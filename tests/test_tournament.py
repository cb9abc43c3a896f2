"""Tests for tournament construction, generators, and file formats."""

import gc
import hashlib
import json
import math
import random
import sys
import tracemalloc
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from tourneydice import (
    Tournament,
    almost_transitive,
    build_0mod4,
    dice_set,
    even_rounds,
    from_edges,
    odd_rounds,
    paley,
    parse_dice,
    parse_tournament,
    random_tournament,
    serialize_dice,
    serialize_tournament,
    transitive,
)
from tourneydice.errors import (
    DuplicateEdgeError,
    InvalidTournamentError,
    MissingEdgeError,
    NotPrimeError,
    NTooSmallError,
    ParityError,
    ParseError,
    SelfLoopError,
    VertexOutOfRangeError,
    WrongResidueClassError,
)
from tourneydice.tournament import _oriented

FIG1_EDGES = [(1, 2), (2, 3), (3, 1)]


def assert_complete(t):
    """Every pair of distinct vertices has exactly one direction."""
    for i, j in combinations(range(1, t.n + 1), 2):
        assert t.beats(i, j) != t.beats(j, i), (i, j)
    for v in range(1, t.n + 1):
        assert not t.beats(v, v)


def three_cycles(t):
    """All directed 3-cycles, as sorted vertex triples."""
    cycles = set()
    for a, b, c in permutations(range(1, t.n + 1), 3):
        if t.beats(a, b) and t.beats(b, c) and t.beats(c, a):
            cycles.add(tuple(sorted((a, b, c))))
    return cycles


class TestFromEdges:
    def test_three_cycle(self):
        t = from_edges(3, FIG1_EDGES)
        assert t.beats(1, 2) and t.beats(2, 3) and t.beats(3, 1)
        assert_complete(t)

    def test_single_vertex(self):
        t = from_edges(1, [])
        assert t.n == 1
        assert t.edges == frozenset()

    def test_missing_edge(self):
        with pytest.raises(MissingEdgeError, match=r"\{1,3\}"):
            from_edges(3, [(1, 2), (2, 3)])

    def test_duplicate_same_direction(self):
        with pytest.raises(DuplicateEdgeError):
            from_edges(3, [(1, 2), (1, 2), (2, 3), (3, 1)])

    def test_duplicate_both_directions(self):
        with pytest.raises(DuplicateEdgeError):
            from_edges(3, [(1, 2), (2, 1), (2, 3), (3, 1)])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            from_edges(2, [(1, 1), (1, 2)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            from_edges(2, [(1, 3)])

    @pytest.mark.parametrize(
        "n, edges, error, message",
        [
            (3, [(1.5, 2), (2, 3), (3, 1)], ParseError, "bad edge entry (1.5, 2)"),
            (2, [("1", 2)], ParseError, "bad edge entry ('1', 2)"),
            (2, [(1.0, 2.0)], ParseError, "bad edge entry (1.0, 2.0)"),
            (2, [(True, 2)], ParseError, "bad edge entry (True, 2)"),
            (3, [(1, 2), (2, 1.0), (3, 1)], ParseError, "bad edge entry (2, 1.0)"),
            (3, [(2, 2), (1.5, 2)], ParseError, "bad edge entry (1.5, 2)"),  # shape before any order fault
            (2.5, [(1, 2)], VertexOutOfRangeError, "n must be an integer, got 2.5"),
            (True, [], VertexOutOfRangeError, "n must be an integer, got True"),
        ],
        ids=["float", "str", "integral-float", "bool", "float-late", "self-loop-first", "float-n", "bool-n"],
    )
    def test_non_integer_refused(self, n, edges, error, message):
        with pytest.raises(InvalidTournamentError) as info:
            from_edges(n, edges)
        assert (type(info.value), str(info.value)) == (error, message)


class TestGenerators:
    def test_transitive_3(self):
        assert transitive(3).edges == frozenset({(1, 2), (1, 3), (2, 3)})

    def test_transitive_2(self):
        assert transitive(2).edges == frozenset({(1, 2)})

    def test_transitive_7(self):
        t = transitive(7)
        assert len(t.edges) == 21
        assert all(i < j for i, j in t.edges)

    def test_transitive_has_no_cycles(self):
        assert three_cycles(transitive(6)) == set()

    def test_almost_transitive_4(self):
        t = almost_transitive(4)
        assert t.edges == frozenset({(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 1)})

    def test_almost_transitive_3_is_fig1(self):
        assert almost_transitive(3) == from_edges(3, FIG1_EDGES)

    def test_almost_transitive_7(self):
        t = almost_transitive(7)
        assert t.beats(7, 1)
        assert t.beats(1, 2) and t.beats(2, 7)
        assert_complete(t)

    def test_almost_transitive_too_small(self):
        with pytest.raises(NTooSmallError):
            almost_transitive(2)

    def test_almost_transitive_cycles_go_through_wraparound_edge(self):
        # the only 3-cycles are {1, j, n} for 1 < j < n
        n = 6
        expected = {(1, j, n) for j in range(2, n)}
        assert three_cycles(almost_transitive(n)) == expected

    def test_random_deterministic(self):
        assert random_tournament(5, 99) == random_tournament(5, 99)

    def test_random_seeds_differ(self):
        assert random_tournament(8, 1) != random_tournament(8, 2)

    def test_random_valid(self):
        assert_complete(random_tournament(8, 7))

    def test_random_single_vertex(self):
        assert random_tournament(1, 3).edges == frozenset()

    @pytest.mark.parametrize(
        "make, n",
        [
            (transitive, True),
            (transitive, 2.0),
            (lambda n: random_tournament(n, 1), True),
            (lambda n: random_tournament(n, 1), 2.0),
            (almost_transitive, 3.0),
            (paley, 7.0),
        ],
        ids=["transitive-bool", "transitive-float", "random-bool", "random-float", "almost-float", "paley-float"],
    )
    def test_non_integer_n_refused(self, make, n):
        # the n that from_edges and so the parsers refuse: no generator builds a tournament they would not read
        with pytest.raises(VertexOutOfRangeError) as info:
            make(n)
        assert str(info.value) == f"n must be an integer, got {n!r}"

    @pytest.mark.parametrize(
        "make, n, error",
        [(paley, 0, NotPrimeError), (paley, True, NotPrimeError), (almost_transitive, True, NTooSmallError)],
        ids=["paley-0", "paley-bool", "almost-bool"],
    )
    def test_generator_checks_come_before_the_vertex_count(self, make, n, error):
        with pytest.raises(error):
            make(n)


class TestPaley:
    def test_p3_is_three_cycle(self):
        assert paley(3) == from_edges(3, FIG1_EDGES)

    def test_p7_matches_quadratic_residues(self):
        # oracle: enumerate the nonzero squares mod 7 directly
        squares = {(x * x) % 7 for x in range(1, 7)}
        assert squares == {1, 2, 4}
        t = paley(7)
        for i, j in permutations(range(1, 8), 2):
            assert t.beats(i, j) == ((j - i) % 7 in squares)

    def test_wrong_residue_class(self):
        with pytest.raises(WrongResidueClassError):
            paley(5)

    def test_not_prime(self):
        with pytest.raises(NotPrimeError):
            paley(15)

    @pytest.mark.parametrize(
        "p, error, message",
        [(2, WrongResidueClassError, "2 is not 3 mod 4"), (4, NotPrimeError, "4 is not prime")],
        ids=["p2", "p4"],
    )
    def test_even_p_refused(self, p, error, message):
        with pytest.raises(error) as info:
            paley(p)
        assert str(info.value) == message

    @pytest.mark.parametrize("p", [3, 7, 11, 19, 23])
    def test_out_degrees(self, p):
        t = paley(p)
        assert_complete(t)
        assert all(t.rows[v - 1].bit_count() == (p - 1) // 2 for v in range(1, p + 1))


class TestFormats:
    def test_serialize_json_golden(self):
        data = serialize_tournament(transitive(3), "json")
        assert data == b'{"n":3,"beats":[[1,2],[1,3],[2,3]]}'

    def test_parse_matrix_fig1(self):
        text = b"0 1 0\n0 0 1\n1 0 0\n"
        assert parse_tournament(text, "matrix") == from_edges(3, FIG1_EDGES)

    def test_serialize_matrix(self):
        data = serialize_tournament(from_edges(3, FIG1_EDGES), "matrix")
        assert data == b"0 1 0\n0 0 1\n1 0 0"

    @pytest.mark.parametrize("fmt", ["json", "matrix"])
    def test_round_trip_fixed(self, fmt):
        t = almost_transitive(6)
        assert parse_tournament(serialize_tournament(t, fmt), fmt) == t

    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32), fmt=st.sampled_from(["json", "matrix"]))
    def test_round_trip_random(self, n, seed, fmt):
        t = random_tournament(n, seed)
        assert parse_tournament(serialize_tournament(t, fmt), fmt) == t

    def test_parse_bad_json(self):
        with pytest.raises(ParseError):
            parse_tournament(b"{not json", "json")

    def test_parse_json_missing_keys(self):
        with pytest.raises(ParseError):
            parse_tournament(b'{"n": 3}', "json")

    @pytest.mark.parametrize(
        "data, error, message",
        [
            (b'{"n": "3", "beats": []}', VertexOutOfRangeError, "n must be an integer, got '3'"),
            (b'{"n": 3, "beats": {}}', ParseError, '"beats" must be a list of pairs'),
        ],
        ids=["n_a_str", "beats_an_object"],
    )
    def test_parse_json_field_types(self, data, error, message):
        with pytest.raises(InvalidTournamentError) as info:
            parse_tournament(data, "json")
        assert (type(info.value), str(info.value)) == (error, message)

    @pytest.mark.parametrize(
        "call",
        [lambda: serialize_tournament(transitive(3), "xml"), lambda: parse_tournament(b"", "xml")],
        ids=["serialize", "parse"],
    )
    def test_unknown_format_refused(self, call):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError and str(info.value) == "unknown format 'xml'"

    def test_parse_json_incomplete_orientation(self):
        with pytest.raises(MissingEdgeError):
            parse_tournament(b'{"n":3,"beats":[[1,2],[2,3]]}', "json")

    def test_parse_matrix_bad_entry(self):
        with pytest.raises(ParseError):
            parse_tournament(b"0 2\n0 0", "matrix")

    def test_parse_matrix_ragged(self):
        with pytest.raises(ParseError):
            parse_tournament(b"0 1\n0", "matrix")

    def test_parse_matrix_diagonal_set(self):
        with pytest.raises(SelfLoopError):
            parse_tournament(b"1 1\n0 0", "matrix")

    def test_parse_matrix_symmetric_entry(self):
        # both directions present for {1,2}
        with pytest.raises(DuplicateEdgeError):
            parse_tournament(b"0 1\n1 0", "matrix")

    def test_parse_matrix_missing_direction(self):
        with pytest.raises(MissingEdgeError):
            parse_tournament(b"0 0\n0 0", "matrix")


@given(n=st.integers(1, 14), seed=st.integers(0, 2**16))
def test_random_tournaments_are_complete(n, seed):
    t = random_tournament(n, seed)
    assert_complete(t)
    for v in range(1, n + 1):
        assert not any(t.beats(v, w) or t.beats(w, v) for w in (0, n + 1))
        assert t.rows[v - 1].bit_count() == sum(t.beats(v, j) for j in range(1, n + 1))
    assert sum(t.rows[v - 1].bit_count() for v in range(1, n + 1)) == n * (n - 1) // 2


def test_random_tournament_memory():
    tracemalloc.start()
    try:
        t = random_tournament(500, 1)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.n == 500 and held < 1_000_000


class CountingRandom(random.Random):
    """A Mersenne Twister that counts its ``getrandbits`` calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("n", [1, 2, 3, 40, 301])
def test_random_tournament_draws_once_per_row(monkeypatch, n):
    made = []

    def counting(seed):
        made.append(CountingRandom(seed))
        return made[-1]

    monkeypatch.setattr(random, "Random", counting)
    random_tournament(n, 5)
    assert [rng.draws for rng in made] == [n - 1]


def reference_random_tournament(n, seed):
    """random_tournament as one getrandbits(1) per pair, in lexicographic order; a set bit keeps i -> j."""
    rng = random.Random(seed)
    return from_edges(n, [(i, j) if rng.getrandbits(1) else (j, i) for i, j in combinations(range(1, n + 1), 2)])


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 10**30])
def test_random_tournament_matches_per_pair_draws(seed):
    for n in range(1, 41):
        assert random_tournament(n, seed) == reference_random_tournament(n, seed), n


@pytest.mark.parametrize(
    "make, n",
    [
        (transitive, 10**5000),
        (almost_transitive, 10**5000),
        (lambda n: random_tournament(n, 1), 10**5000),
        (transitive, math.isqrt(sys.maxsize) + 1),
    ],
    ids=["transitive", "almost_transitive", "random", "transitive-first-unindexable"],
)
def test_generators_refuse_an_n_whose_cells_cannot_be_indexed(make, n):
    # refused before the n*n cell array is asked for, with the package's own error and a bounded quote of n
    with pytest.raises(VertexOutOfRangeError) as info:
        make(n)
    echoed = "<unprintable>" if n > 10**4000 else str(n)
    assert str(info.value) == f"n is too large for an n*n cell array, got {echoed}"


@pytest.mark.parametrize("n", [0, -3])
def test_random_tournament_needs_a_vertex(n):
    with pytest.raises(VertexOutOfRangeError, match=f"^n must be positive, got {n}$"):
        random_tournament(n, 1)


def peak_bytes(call):
    """Tracemalloc peak while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "stage, fmt, bound_mb",
    [(parse_tournament, "json", 100), (parse_tournament, "matrix", 70), (serialize_tournament, "json", 25)],
    ids=["parse-json", "parse-matrix", "serialize-json"],
)
def test_format_peak_memory_n1000(stage, fmt, bound_mb):
    # the formats go row by row: no list of n(n-1)/2 edges, no dict keyed by pair
    t = random_tournament(1000, 1)
    arg = serialize_tournament(t, fmt) if stage is parse_tournament else t
    assert peak_bytes(lambda: stage(arg, fmt)) < bound_mb * 1_000_000


def test_random_tournament_peak_memory_n1000():
    # the n*n cell array and the bit rows; no list of pairs or of random draws
    assert peak_bytes(lambda: random_tournament(1000, 1)) <= 1_350_000


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("fails", [False, True], ids=["good", "bad-json"])
def test_json_parse_leaves_the_collector_as_it_found_it(enabled, fails):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if fails:
            with pytest.raises(ParseError, match="bad JSON"):
                parse_tournament(b'{"n":2,"beats":[[2,1]', "json")
        else:
            assert parse_tournament(b'{"n":2,"beats":[[2,1]]}', "json") == from_edges(2, [(2, 1)])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_exact_formats_pinned():
    # both wire formats, byte for byte, for every generator over a range of n
    tournaments = [random_tournament(n, s) for n in range(1, 41) for s in (n, n + 1)]
    tournaments += [transitive(n) for n in range(1, 41)]
    tournaments += [almost_transitive(n) for n in range(3, 41)]
    tournaments += [paley(p) for p in (3, 7, 11, 19, 23, 31, 43)]
    blob = b"".join(
        serialize_tournament(t, "json") + b"\n" + serialize_tournament(t, "matrix") + b"\n"
        for t in tournaments
    )
    assert hashlib.sha256(blob).hexdigest() == (
        "cbd04caee62b43928b8cf0376154f135c2655fa9fa61050f5e2652ccdc151151"
    )


MALFORMED = [
    (from_edges, 0, []),
    (from_edges, 3, [(1, 2), (2, 3)]),
    (from_edges, 4, [(1, 2), (3, 4)]),  # five pairs missing: the first in order is named
    (from_edges, 3, [(1, 1), (1, 5)]),  # self-loop before out-of-range
    (from_edges, 3, [(1, 5), (1, 1)]),  # out-of-range before self-loop
    (from_edges, 3, [(0, 1), (2, 3)]),
    (from_edges, 3, [(2, 1), (1, 2), (2, 2)]),  # duplicate before self-loop
    (from_edges, 3, [(1, 2), (2, 3), (1, 3), (3, 1), (3, 3)]),
    (from_edges, 3, [5]),  # entries that are not pairs, named in edge order
    (from_edges, 3, [(1, 2, 3)]),
    (from_edges, 3, [(1, 2), (2, 3), (1,)]),
    (from_edges, 3, [None]),
    (parse_tournament, b"0 2\n1 1", "matrix"),  # bad entry before diagonal
    (parse_tournament, b"1 0\n1 0", "matrix"),  # diagonal before duplicate
    (parse_tournament, b"0 1 1\n0 0 1\n0 1 0", "matrix"),
    (parse_tournament, b"0 0 0\n0 0 0\n0 0 0", "matrix"),
    (parse_tournament, b"0 1 1\n0 x\n", "matrix"),
    (parse_tournament, b'{"n":3,"beats":[[3,4],[2,2]]}', "json"),
    (parse_tournament, b'{"n":-1,"beats":[[1,2]]}', "json"),
    (parse_tournament, b'{"n":3,"beats":[[1,2],[1,2,3]]}', "json"),
    (parse_tournament, b'{"n":3000,"beats":[[1,2]]}', "json"),
    (parse_tournament, b'{"n":3,"beats":[[2,2],[1,2,3]]}', "json"),  # a bad entry outranks a self-loop
    (parse_tournament, b'{"n":3,"beats":[[1,5],[1,2],[2,3],[1,3],5]}', "json"),
    (parse_tournament, b'{"n":2,"beats":[[1,2],null]}', "json"),
    (parse_tournament, b'{"n":3,"beats":["ab",[1,1]]}', "json"),
    (parse_tournament, b'{"n":2,"beats":[[1.0,2]]}', "json"),
    (parse_tournament, b'{"n":1000000000,"beats":[[1,2],[2,1],[true,2]]}', "json"),
    (parse_tournament, b'{"n":3,"beats":[[1,2],[2,3],[3,1],{"a":1,"b":2}]}', "json"),
]

MALFORMED_DIAGNOSTICS = [
    ("VertexOutOfRangeError", "n must be positive, got 0"),
    ("MissingEdgeError", "pair {1,3} has no direction"),
    ("MissingEdgeError", "pair {1,3} has no direction"),
    ("SelfLoopError", "self-loop at vertex 1"),
    ("VertexOutOfRangeError", "edge (1,5) outside 1..3"),
    ("VertexOutOfRangeError", "edge (0,1) outside 1..3"),
    ("DuplicateEdgeError", "pair {1,2} oriented twice"),
    ("DuplicateEdgeError", "pair {1,3} oriented twice"),
    ("ParseError", "bad edge entry 5"),
    ("ParseError", "bad edge entry (1, 2, 3)"),
    ("ParseError", "bad edge entry (1,)"),
    ("ParseError", "bad edge entry None"),
    ("ParseError", "entry (1,2) is '2', expected 0 or 1"),
    ("SelfLoopError", "self-loop at vertex 1"),
    ("DuplicateEdgeError", "pair {2,3} oriented twice"),
    ("MissingEdgeError", "pair {1,2} has no direction"),
    ("ParseError", "row 1 has 3 entries, expected 2"),
    ("VertexOutOfRangeError", "edge (3,4) outside 1..3"),
    ("VertexOutOfRangeError", "n must be positive, got -1"),
    ("ParseError", "bad edge entry [1, 2, 3]"),
    ("MissingEdgeError", "pair {1,3} has no direction"),
    ("ParseError", "bad edge entry [1, 2, 3]"),
    ("ParseError", "bad edge entry 5"),
    ("ParseError", "bad edge entry None"),
    ("ParseError", "bad edge entry 'ab'"),
    ("ParseError", "bad edge entry [1.0, 2]"),
    ("ParseError", "bad edge entry [True, 2]"),
    ("ParseError", "bad edge entry {'a': 1, 'b': 2}"),
]


def test_malformed_diagnostics_pinned():
    # exception type and message, so the order in which faults are found is pinned too
    seen = []
    for build, *args in MALFORMED:
        with pytest.raises(ValueError) as info:
            build(*args)
        seen.append((type(info.value).__name__, str(info.value)))
    assert seen == MALFORMED_DIAGNOSTICS


BIG = "x" * 100_000
HUGE = 10**3999  # JSON and int() refuse ints over 4300 digits, so an echoed int is at most that long
# an int str() refuses to print: one over sys.get_int_max_str_digits() digits (4300 by default, 0 for no limit)
TOO_LONG = 10**5000
printable_when_unlimited = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5001, reason="str() prints a 5001-digit int"
)


def unprintable(call, error, template, id):
    """A case whose input is TOO_LONG, quoted as ``<unprintable>`` (echoed None)."""
    return pytest.param(call, error, template, None, id=id, marks=printable_when_unlimited)


@pytest.mark.parametrize(
    "call, error, template, echoed",
    [
        pytest.param(lambda: from_edges(BIG, []), VertexOutOfRangeError, "n must be an integer, got {}", repr(BIG),
                     id="n-type"),
        pytest.param(lambda: from_edges(3, [list(range(50_000))]), ParseError, "bad edge entry {}",
                     repr(list(range(50_000))), id="edge-entry"),
        pytest.param(lambda: parse_tournament(b"0 " + b"2" * 140_000 + b"\n1 0", "matrix"), ParseError,
                     "entry (1,2) is {}, expected 0 or 1", repr("2" * 140_000), id="matrix-cell"),
        pytest.param(lambda: parse_dice(b"1," + b"a" * 140_000 + b"\n3,4", "csv"), ParseError,
                     "face labels must be plain ASCII digits, got row {}", repr(["1", "a" * 140_000]), id="csv-row"),
        pytest.param(lambda: parse_dice(json.dumps({"n": BIG, "dice": [[1]]}).encode()), ParseError,
                     '"n" is {} but 1 dice given', BIG, id="dice-n"),
        pytest.param(lambda: parse_dice(json.dumps({"sides": BIG, "dice": [[1]]}).encode()), ParseError,
                     '"sides" is {} but dice have 1 faces', BIG, id="dice-sides"),
        pytest.param(lambda: dice_set([[BIG]]), ParseError, "face label {} is not a positive integer", repr(BIG),
                     id="label"),
        pytest.param(lambda: from_edges(-HUGE, []), VertexOutOfRangeError, "n must be positive, got {}", str(-HUGE),
                     id="n-size"),
        pytest.param(lambda: from_edges(3, [(HUGE, HUGE)]), SelfLoopError, "self-loop at vertex {}", str(HUGE),
                     id="self-loop"),
        pytest.param(lambda: from_edges(3, [(1, HUGE)]), VertexOutOfRangeError, "edge (1,{}) outside 1..3", str(HUGE),
                     id="out-of-range"),
        pytest.param(lambda: from_edges(HUGE, [(1, HUGE), (HUGE, 1)]), DuplicateEdgeError,
                     "pair {{1,{}}} oriented twice", str(HUGE), id="repeat"),
        pytest.param(lambda: odd_rounds(BIG), ParityError, "odd construction needs a positive odd n, got {}", BIG,
                     id="odd-rounds-n"),
        pytest.param(lambda: serialize_tournament(transitive(2), BIG), ValueError, "unknown format {}", repr(BIG),
                     id="serialize-tournament-format"),
        pytest.param(lambda: parse_tournament(b"", BIG), ValueError, "unknown format {}", repr(BIG),
                     id="parse-tournament-format"),
        pytest.param(lambda: serialize_dice(dice_set([[1]]), BIG), ValueError, "unknown format {}", repr(BIG),
                     id="serialize-dice-format"),
        pytest.param(lambda: parse_dice(b"", BIG), ValueError, "unknown format {}", repr(BIG), id="parse-dice-format"),
        unprintable(lambda: from_edges(-TOO_LONG, []), VertexOutOfRangeError, "n must be positive, got {}",
                    id="unprintable-n"),
        unprintable(lambda: from_edges(2, [(1, TOO_LONG)]), VertexOutOfRangeError, "edge (1,{}) outside 1..2",
                    id="unprintable-vertex"),
        unprintable(lambda: random_tournament(-TOO_LONG, 1), VertexOutOfRangeError, "n must be positive, got {}",
                    id="unprintable-random-n"),
        unprintable(lambda: dice_set([[-TOO_LONG]]), ParseError, "face label {} is not a positive integer",
                    id="unprintable-label"),
        unprintable(lambda: paley(-TOO_LONG), NotPrimeError, "{} is not prime", id="unprintable-paley-p"),
        unprintable(lambda: almost_transitive(-TOO_LONG), NTooSmallError, "almost-transitive needs n >= 3, got {}",
                    id="unprintable-almost-transitive-n"),
        unprintable(lambda: odd_rounds(-TOO_LONG), ParityError, "odd construction needs a positive odd n, got {}",
                    id="unprintable-odd-rounds-n"),
        unprintable(lambda: even_rounds(TOO_LONG), ParityError, "even construction needs n = 2 (mod 4), got {}",
                    id="unprintable-even-rounds-n"),
        unprintable(lambda: build_0mod4(Tournament(TOO_LONG + 1, ())), ParityError,
                    "this construction needs n = 0 (mod 4), got {}", id="unprintable-build-n"),
    ],
)
def test_echoed_input_is_cut(call, error, template, echoed):
    # a diagnostic quotes at most 80 characters of its input: longer text shows its first 77 and "...",
    # so the message starts as the uncut one does and stays short whatever the input's size; a value str()
    # or repr() cannot print at all (echoed None) shows "<unprintable>", and the error is still the package's own
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is error
    assert echoed is None or len(echoed) > 80
    assert str(info.value) == template.format("<unprintable>" if echoed is None else echoed[:77] + "...")
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("fault", ["self-loop", "repeat", "missing"])
def test_first_fault_peak_memory_n300(fault):
    # the fault is named in one walk that holds the set of pairs seen and no copy of the entries:
    # tracemalloc peak on CPython 3.11 is 4.5-4.6 MB, and 7.4-7.5 MB with every entry copied first
    n = 300
    edges = list(combinations(range(1, n + 1), 2))
    edges[-1:] = {"self-loop": [(n, n)], "repeat": [edges[0]], "missing": []}[fault]

    def judge():
        with pytest.raises(InvalidTournamentError):
            from_edges(n, edges)

    assert peak_bytes(judge) < 5_500_000


def reference_from_edges(n, beats):
    """from_edges as a walk over a dict keyed by pair; the reference for the cell-array version."""
    if n < 1:
        raise VertexOutOfRangeError(f"n must be positive, got {n}")
    forward = {}  # (low, high) -> low beats high
    for i, j in beats:
        if i == j:
            raise SelfLoopError(f"self-loop at vertex {i}")
        if not (1 <= i <= n) or not (1 <= j <= n):
            raise VertexOutOfRangeError(f"edge ({i},{j}) outside 1..{n}")
        key = (i, j) if i < j else (j, i)
        if key in forward:
            raise DuplicateEdgeError(f"pair {{{key[0]},{key[1]}}} oriented twice")
        forward[key] = i < j
    if len(forward) != n * (n - 1) // 2:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if (i, j) not in forward:
                    raise MissingEdgeError(f"pair {{{i},{j}}} has no direction")
    return _oriented(n, lambda i, j: forward[i, j])


def _with_fault(data, n, edges, fault):
    """edges with one fault of the given kind drawn into it, as an extra edge or in place of one.

    Kinds that need an edge fall back to a self-loop.
    """
    if fault == "none":
        return edges
    if not edges and fault in ("duplicate", "reversed", "dropped"):
        fault = "self_loop"
    if fault == "dropped":
        del edges[data.draw(st.integers(0, len(edges) - 1))]
        return edges
    if fault == "duplicate":
        extra = data.draw(st.sampled_from(edges))
    elif fault == "reversed":
        extra = data.draw(st.sampled_from(edges))[::-1]
    elif fault == "self_loop":
        v = data.draw(st.integers(1, n))
        extra = (v, v)
    else:
        outside = data.draw(st.sampled_from([0, -1, n + 1, 10**9]))
        inside = data.draw(st.integers(1, n))
        extra = data.draw(st.sampled_from([(outside, inside), (inside, outside)]))
    if edges and data.draw(st.booleans()):  # keep n(n-1)/2 edges, so the fault passes the length check
        edges[data.draw(st.integers(0, len(edges) - 1))] = extra
    else:
        edges.insert(data.draw(st.integers(0, len(edges))), extra)
    return edges


@pytest.mark.parametrize("fault", ["none", "duplicate", "reversed", "self_loop", "out_of_range", "dropped"])
@given(
    data=st.data(),
    n=st.integers(1, 10),
    container=st.sampled_from([list, tuple, lambda edges: (e for e in edges)]),
)
def test_from_edges_matches_dict_walk(fault, data, n, container):
    flips = data.draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    complete = [(j, i) if flip else (i, j) for (i, j), flip in zip(combinations(range(1, n + 1), 2), flips)]
    edges = _with_fault(data, n, data.draw(st.permutations(complete)), fault)

    def outcome(build):
        try:
            return build(n, container(edges))
        except ValueError as exc:
            return type(exc), str(exc)

    assert outcome(from_edges) == outcome(reference_from_edges)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=True) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@given(
    n=st.integers(-2, 6) | st.integers(),
    beats=st.lists(st.lists(st.integers(-1, 7), min_size=2, max_size=2) | JSON_VALUES, max_size=16),
)
def test_from_edges_raises_only_invalid_tournament_on_json_values(n, beats):
    # a list of decoded JSON values, as _parse_json hands from_edges;
    # any refusal is an InvalidTournamentError, which the CLI reports as one error line
    try:
        from_edges(n, beats)
    except InvalidTournamentError:
        pass


@given(
    n=st.integers(-2, 6) | st.integers() | JSON_VALUES,
    beats=st.lists(st.lists(st.integers(-1, 7), min_size=2, max_size=2) | JSON_VALUES, max_size=16),
)
def test_json_parse_judges_as_from_edges(n, beats):
    # _parse_json adds only the JSON shape checks: n and every entry are judged by from_edges alone
    text = json.dumps({"n": n, "beats": beats}).encode()
    decoded = json.loads(text)

    def outcome(call):
        try:
            return call()
        except InvalidTournamentError as exc:
            return type(exc), str(exc)

    assert outcome(lambda: parse_tournament(text, "json")) == outcome(
        lambda: from_edges(decoded["n"], decoded["beats"])
    )


@pytest.mark.parametrize(
    "make",
    [transitive, almost_transitive, lambda n: random_tournament(n, 1), paley],
    ids=["transitive", "almost_transitive", "random", "paley"],
)
@given(n=JSON_VALUES)
def test_generators_raise_only_invalid_tournament_on_json_values(make, n):
    # a generator's own rule is applied to an int n only; any other n meets the vertex-count rule
    try:
        make(n)
    except InvalidTournamentError:
        pass
