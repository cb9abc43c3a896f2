"""Design rules of the package source, checked on its syntax trees.

These read ``src/tourneydice`` with :mod:`ast` and import nothing from the
package, so a rule holds whatever the code does at run time.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tourneydice"


def _nodes():
    """(module file name, qualified name of the enclosing def or class, node) for every node of the package."""
    found = []

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            found.append((module, ".".join(scope), child))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, module, scope + (child.name,))
            else:
                walk(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path.name, ())
    return found


def _calls():
    """(module file name, qualified name of the enclosing def or class, call node) for every call."""
    return [(module, scope, node) for module, scope, node in _nodes() if isinstance(node, ast.Call)]


def _name(func):
    """The called name: ``f`` for ``f(...)`` and for ``module.f(...)``; also the name a bare ``f`` or ``x.f`` reads."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_face_wins_is_called_only_by_the_shared_sweep():
    # one way to compute pairwise wins: every check, matchup included, reads DiceSet._pair_wins
    callers = {(module, scope) for module, scope, call in _calls() if _name(call.func) == "face_wins"}
    assert callers == {("dice.py", "DiceSet._pair_wins")}


def test_tournaments_are_built_only_in_tournament_module():
    # one place builds the bit rows; every other module goes through from_edges, a generator or a parser
    modules = {module for module, _, call in _calls() if _name(call.func) == "Tournament"}
    assert modules == {"tournament.py"}


def test_pairs_become_a_tournament_only_through_from_edges():
    """No module but tournament.py names its cell-array helpers or its fault walk; only from_edges calls the walk.

    ``dominance`` and the matrix reader hand their (winner, loser) pairs to
    ``from_edges``, so the entry rule and the order in which faults are named
    have one judge.  ``dominance`` makes no dict: its pairs go to from_edges
    as a list, with no verdict stored per pair beside them.
    """
    internal = {"_oriented", "_first_fault", "_drawn", "_checked", "_blank", "_bit_rows"}
    nodes = _nodes()
    named = sorted(
        f"{module}:{node.lineno} in {scope} names {name}"
        for module, scope, node in nodes
        if module != "tournament.py"
        for name in [node.name if isinstance(node, ast.alias) else _name(node)]
        if name in internal
    )
    assert named == []
    callers = {(module, scope) for module, scope, call in _calls() if _name(call.func) == "_first_fault"}
    assert callers == {("tournament.py", "from_edges")}
    dicts = [
        node.lineno
        for module, scope, node in nodes
        if (module, scope) == ("dice.py", "dominance")
        and (isinstance(node, (ast.Dict, ast.DictComp)) or isinstance(node, ast.Call) and _name(node.func) == "dict")
    ]
    assert dicts == []


def test_label_record_is_written_only_by_the_label_check_and_read_only_by_compact_labels():
    """``DiceSet._label_flags`` caches the label check's flags; only dice_set and compact_labels read it.

    The cached property is its only writer: no package code names it in a
    string, as ``setattr``, ``__setattr__``, ``getattr`` or a ``__dict__``
    key would, or as a keyword, and none assigns or deletes the attribute.
    ``dice_set`` reads it once to run the check, and compact_labels once to
    rank from its flags.  Nothing else reads it, so neither ``_pair_wins``
    nor any whole-set check can come to depend on it.
    """
    record = "_label_flags"
    nodes = _nodes()
    uses = []
    for module, scope, node in nodes:
        if isinstance(node, ast.Constant) and node.value == record:
            uses.append((module, scope, "string"))
        elif isinstance(node, ast.keyword) and node.arg == record:
            uses.append((module, scope, "keyword"))
        elif isinstance(node, ast.Attribute) and node.attr == record:
            uses.append((module, scope, "read" if isinstance(node.ctx, ast.Load) else "write"))
        elif isinstance(node, ast.Name) and node.id == record:
            uses.append((module, scope, "name"))
    assert sorted(uses) == [("dice.py", "compact_labels", "read"), ("dice.py", "dice_set", "read")]
    (prop,) = [(module, scope, node) for module, scope, node in nodes if getattr(node, "name", None) == record]
    assert prop[:2] == ("dice.py", "DiceSet")
    assert [ast.unparse(d) for d in prop[2].decorator_list] == ["cached_property"]


def test_label_rule_is_checked_only_by_one_function():
    """The face-label rule, every label a plain int >= 1 and none repeated, has one copy: ``DiceSet._label_flags``.

    Only that cached property raises the "is not a positive integer" error
    and makes a ``DuplicateLabelError``.  ``dice_set`` and ``compact_labels``
    raise nothing themselves and each read it once, so both refuse what it
    refuses, alike.
    """
    nodes = _nodes()
    positive = {
        (module, scope)
        for module, scope, node in nodes
        if isinstance(node, ast.Raise)
        and any(isinstance(part, ast.Constant) and "is not a positive integer" in str(part.value)
                for part in ast.walk(node))
    }
    assert positive == {("dice.py", "DiceSet._label_flags")}
    repeats = {(module, scope) for module, scope, call in _calls() if _name(call.func) == "DuplicateLabelError"}
    assert repeats == {("dice.py", "DiceSet._label_flags")}
    for caller in ("dice_set", "compact_labels"):
        body = [node for module, scope, node in nodes if (module, scope) == ("dice.py", caller)]
        assert [node.lineno for node in body if isinstance(node, ast.Raise)] == []
        assert len([node for node in body if isinstance(node, ast.Attribute) and node.attr == "_label_flags"]) == 1


def test_one_function_allocates_a_label_table():
    """One label-indexed table: the flags ``DiceSet._label_flags`` makes for its repeat check, read by compact_labels.

    In dice.py a list by repetition, ``[0] * size``, is made only by
    ``_label_columns`` (one slot per vertex), and a ``bytearray`` only by
    the label check (one slot per label value).  ``compact_labels`` takes
    no ``max`` of its own and makes no table by repetition, ``bytearray``
    or ``array``: it ranks from the flags the check cached, so a set
    needing ranks has its labels flagged once.
    """
    tables = set()
    compact = []
    for module, scope, node in _nodes():
        if module != "dice.py":
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            if isinstance(node.left, (ast.List, ast.ListComp)) or isinstance(node.right, (ast.List, ast.ListComp)):
                tables.add((scope, "list"))
        if isinstance(node, ast.Call) and _name(node.func) in ("bytearray", "array", "fromkeys"):
            tables.add((scope, _name(node.func)))
        if scope == "compact_labels":
            compact.append(node)
    assert tables == {("_label_columns", "list"), ("DiceSet._label_flags", "bytearray")}
    calls = {_name(node.func) for node in compact if isinstance(node, ast.Call)}
    assert not calls & {"max", "bytearray", "array", "fromkeys"}


def test_shared_sweep_revalidates_every_set_first():
    # the oracle trusts no record: _pair_wins opens with a bare dice_set(self.faces), under no condition
    (pair_wins,) = [
        node for _, scope, node in _nodes() if scope == "DiceSet" and getattr(node, "name", None) == "_pair_wins"
    ]
    docstring, first = pair_wins.body[:2]
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert isinstance(first, ast.Expr) and ast.unparse(first) == "dice_set(self.faces)"


def test_tuples_are_built_from_sources_of_known_size():
    """``tuple()`` never takes a generator expression, ``zip(...)`` or ``map(...)``.

    On CPython such a tuple is allocated at a guessed size and then shrunk,
    and the shrunk small tuples pile up on per-size free lists, so the heap
    grows with the number of small sets processed.  On CPython 3.11, an
    in-process loop over ``small_batch`` benchmark sets (seed 7) that kept
    nothing between sets grew ``ru_maxrss`` by 512-640 KB per 1000 sets
    with seven such sites, and by 128-256 KB with each built from a list.
    """
    sites = [
        f"{module}:{call.lineno} in {scope}"
        for module, scope, call in _calls()
        if _name(call.func) == "tuple"
        and call.args
        and (
            isinstance(call.args[0], ast.GeneratorExp)
            or isinstance(call.args[0], ast.Call) and _name(call.args[0].func) in ("zip", "map")
        )
    ]
    assert sites == []


def test_imports_that_slow_every_start_are_absent_or_deferred():
    """Modules that slow every CLI start are imported nowhere, or only by the one call that needs them.

    No module imports ``dataclasses``, ``typing``, ``pathlib`` or ``csv``,
    and ``fractions`` and ``random`` are imported only inside function
    bodies.  Each CLI command is a fresh process, so at the sizes people
    pipe its time is interpreter start plus imports.  On CPython 3.11 with
    ``PYTHONDONTWRITEBYTECODE=1`` and no ``__pycache__``,
    ``python -S -c "import tourneydice.cli"`` took 104 ms with these imports
    at module level and 60 ms without them, against 14 ms for a bare
    interpreter (medians of 25 runs).  By ``-X importtime`` (7 runs),
    ``dataclasses`` took 10-16 ms to import, with ``inspect``, ``ast``,
    ``dis`` and ``tokenize``, before decorating eight classes; ``pathlib``
    4-10 ms, ``typing`` 2-4 ms, ``fractions`` with ``decimal`` 2-4 ms and
    ``random`` 1 ms.  CSV dice are read and written with ``str`` methods,
    one die per line, so no call needs ``csv``.
    """
    banned, deferred = {"dataclasses", "typing", "pathlib", "csv"}, {"fractions", "random"}
    found = []

    def walk(node, module, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                walk(child, module, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))
                continue
            for name in names:
                top = name.partition(".")[0]
                if top in banned or top in deferred and not in_function:
                    found.append(f"{module}:{child.lineno} imports {name}")

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path.name, False)
    assert found == []


def test_dice_build_walks_rows_not_stored_rounds():
    """No module but ``factorization.py`` reads ``.rounds`` to build dice, and no ``tuple()`` takes a row directly.

    ``build_odd`` and ``build_even_2mod4`` hand ``_label_columns`` the rows
    of ``factorization._rows(n)``, which reads each round's pairs off the
    circle formula, so a build stores no round; only the CLI's ``factor``
    output reads ``.rounds`` outside that module.  ``_label_columns`` labels
    the rows it is handed, its ``rows`` parameter.  Where the rows are
    turned into tuples, each goes through a list first, as
    ``test_tuples_are_built_from_sources_of_known_size`` asks.  On CPython
    3.11 the tracemalloc peak of ``build_dice`` at n = 1001 was 81.3 MB with
    every round stored first and 49.3 MB with the rows walked.
    """
    generators = {"_rows"}
    parameters = {("dice.py", "_label_columns"): {"rows"}}  # row sources handed in, by scope
    nodes = _nodes()
    readers = {
        (module, scope)
        for module, scope, node in nodes
        if module != "factorization.py"
        and isinstance(node, ast.Attribute) and node.attr == "rounds" and isinstance(node.ctx, ast.Load)
    }
    assert readers == {("cli.py", "_format_rounds_table"), ("cli.py", "_cmd_factor")}
    walkers = {(module, scope) for module, scope, call in _calls() if _name(call.func) == "_rows"}
    assert walkers == {
        ("dice.py", "build_odd"),
        ("dice.py", "build_even_2mod4"),
        ("factorization.py", "OneFactorization.rounds"),
    }

    def is_source(node, key):
        return (
            isinstance(node, ast.Call) and _name(node.func) in generators
            or isinstance(node, ast.Name) and node.id in parameters.get(key, ())
        )

    # names bound, in each scope, by a loop over a row source: the rows (and their indices)
    bound = {}
    for module, scope, node in nodes:
        if isinstance(node, (ast.For, ast.comprehension)) and any(
            is_source(source, (module, scope)) for source in ast.walk(node.iter)
        ):
            names = {name.id for name in ast.walk(node.target) if isinstance(name, ast.Name)}
            bound.setdefault((module, scope), set()).update(names)
    assert set(bound) == {("dice.py", "_label_columns"), ("factorization.py", "OneFactorization.rounds")}
    direct = [
        f"{module}:{call.lineno} in {scope}"
        for module, scope, call in _calls()
        if _name(call.func) == "tuple" and call.args
        and (
            isinstance(call.args[0], ast.Name) and call.args[0].id in bound.get((module, scope), ())
            or is_source(call.args[0], (module, scope))
            or isinstance(call.args[0], ast.Call) and _name(call.args[0].func) in {"chain", "islice"}
        )
    ]
    assert direct == []


def test_build_odd_asks_odd_rounds_with_no_condition():
    """``build_odd``'s first statement is the bare call ``odd_rounds(t.n)``, and it holds no ``if`` and no literal.

    The residue rule has one site, the rounds function, and K_1 is an
    ordinary odd case there, so the builder has no case of n of its own.
    """
    (build_odd,) = [
        node for module, scope, node in _nodes()
        if (module, scope) == ("dice.py", "") and isinstance(node, ast.FunctionDef) and node.name == "build_odd"
    ]
    body = build_odd.body[1:] if ast.get_docstring(build_odd) is not None else build_odd.body
    assert ast.unparse(body[0]) == "odd_rounds(t.n)"
    nodes = [node for statement in body for node in ast.walk(statement)]
    assert not [node.lineno for node in nodes if isinstance(node, (ast.If, ast.IfExp, ast.Constant))]


def test_value_protocol_is_defined_once():
    """One class defines the read-only value protocol; ``DiceSet``, ``Tournament`` and ``OneFactorization`` inherit it.

    Assignment and deletion refused, equality and hash by fields: a second
    copy of any of these would let the three value types drift apart.
    """
    protocol = ("__setattr__", "__delattr__", "__eq__", "__hash__")
    defs = [(module, scope, node.name) for module, scope, node in _nodes() if isinstance(node, ast.FunctionDef)]
    definers = {name: {(module, scope) for module, scope, found in defs if found == name} for name in protocol}
    assert definers == {name: {("_value.py", "_Value")} for name in protocol}


def test_json_is_decoded_by_one_function():
    # json.loads or a bare loads: both parsers read JSON through _json_object, which pauses the collector
    callers = {(module, scope) for module, scope, call in _calls() if _name(call.func) == "loads"}
    assert callers == {("tournament.py", "_json_object")}


def test_text_is_decoded_by_one_function():
    # both line formats, the matrix and CSV dice, read their input through _text_lines; the one other
    # decode in the package reads back the package's own ASCII output
    decoders = {
        (module, scope)
        for module, scope, call in _calls()
        if _name(call.func) == "decode" and [ast.unparse(arg) for arg in call.args] != ["'ascii'"]
    }
    assert decoders == {("tournament.py", "_text_lines")}


def test_each_input_rule_is_refused_at_one_site():
    """The residue, vertex-count and edge-entry rules, the CLI size cap and the quote each have one copy.

    ``ParityError(...)`` is made only by the rounds functions, which hold the
    residue rule for build_odd and build_even_2mod4 too, and by build_0mod4,
    whose rule is written nowhere else.  Both vertex-count texts ("must be an
    integer" and "must be positive") are written by one errors.py function,
    which from_edges, _blank, paley and verify_partition call.  One site
    makes the ``ParseError`` for an edge entry that is not a pair of plain
    ints, and the CLI raises its size cap at one site.  Quoted input is cut,
    ``[:limit - 3] + "..."``, in one errors.py function, which the CLI's
    handler calls too; and in the library modules no message formats a value
    with ``!r`` or calls ``repr`` itself, so every value a message quotes
    goes through that function and none can make a message unbounded.
    """
    nodes = _nodes()
    parity = {(module, scope) for module, scope, call in _calls() if _name(call.func) == "ParityError"}
    assert parity == {
        ("factorization.py", "odd_rounds"),
        ("factorization.py", "even_rounds"),
        ("dice.py", "build_0mod4"),
    }

    def written(text):
        return {
            (module, scope)
            for module, scope, node in nodes
            if isinstance(node, ast.JoinedStr)
            and any(isinstance(part, ast.Constant) and text in part.value for part in node.values)
        }

    integer = written("must be an integer")
    assert integer == written("n must be positive, got") and len(integer) == 1
    ((module, guard),) = integer
    assert module == "errors.py"
    callers = {(module, scope) for module, scope, call in _calls() if _name(call.func) == guard}
    assert callers == {
        ("tournament.py", "from_edges"),
        ("tournament.py", "_blank"),
        ("tournament.py", "paley"),
        ("factorization.py", "verify_partition"),
    }
    entry = [
        (module, scope)
        for module, scope, call in _calls()
        if _name(call.func) == "ParseError"
        and any(isinstance(part, ast.Constant) and "bad edge entry" in str(part.value) for part in ast.walk(call))
    ]
    assert entry == [("tournament.py", "_first_fault")]
    (cap,) = [
        (module, scope)
        for module, scope, node in nodes
        if isinstance(node, ast.Raise)
        and any(isinstance(part, ast.Constant) and "is over the limit of" in str(part.value) for part in ast.walk(node))
    ]
    assert cap[0] == "cli.py"

    cuts = {
        (module, scope)
        for module, scope, node in nodes
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        and isinstance(node.left, ast.Subscript) and isinstance(node.right, ast.Constant) and node.right.value == "..."
    }
    assert len(cuts) == 1
    ((module, quote),) = cuts
    assert module == "errors.py"
    assert ("cli.py", "main") in {(module, scope) for module, scope, call in _calls() if _name(call.func) == quote}
    library = {"tournament.py", "dice.py", "factorization.py", "errors.py"}
    unquoted = sorted(
        f"{module}:{node.lineno} in {scope}"
        for module, scope, node in nodes
        if module in library
        and (
            isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
            or isinstance(node, ast.Call) and _name(node.func) == "repr" and scope != quote
        )
    )
    assert unquoted == []


def test_factorization_has_one_path():
    """``factorization.py`` holds no ``try``: verify_partition judges its input first, then runs its checks once.

    A check that catches an error and then walks the input again to say
    what went wrong has two paths, and passes whatever raises no error.
    """
    kinds = (ast.Try, getattr(ast, "TryStar", ast.Try))  # try/except* is a node of its own from Python 3.11
    tries = [node.lineno for module, _, node in _nodes() if module == "factorization.py" and isinstance(node, kinds)]
    assert tries == []


def test_no_try_wraps_from_edges():
    """No ``try`` in the package holds a call to ``from_edges``: it is the one judge of tournament input.

    A caller that caught its error and walked the entries again to name a
    fault of its own would keep a second copy of the entry rule.
    """
    kinds = (ast.Try, getattr(ast, "TryStar", ast.Try))
    wrapped = [
        f"{module}:{node.lineno} in {scope}"
        for module, scope, node in _nodes()
        if isinstance(node, kinds)
        and any(isinstance(call, ast.Call) and _name(call.func) == "from_edges" for call in ast.walk(node))
    ]
    assert wrapped == []


def test_checks_share_no_code_with_the_construction():
    """Oracle independence: the checks name no construction function, and the construction names no check.

    The checks are the face-win oracle, the sweep every whole-set check
    reads (``DiceSet._pair_wins``), the public checks and
    ``verify_partition``.  The construction is ``_label_columns``, the
    ``build_*`` functions and the rounds functions ``_rows``, ``odd_rounds``,
    ``even_rounds`` and ``_derived``.  A check that ran construction code
    could agree with a wrong construction, so neither side calls or reads
    the other.
    """
    checks = {"face_wins", "DiceSet._pair_wins", "matchup", "dominance", "is_balanced",
              "verify_realization", "guaranteed_wins_audit", "verify_partition"}
    rounds = {"_label_columns", "_rows", "odd_rounds", "even_rounds", "_derived"}
    builds = {"build_dice", "build_odd", "build_even_2mod4", "build_0mod4"}
    nodes = _nodes()
    defined = {
        f"{scope}.{node.name}" if scope else node.name
        for _, scope, node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert checks | rounds | builds <= defined

    def inside(scope, names):
        return any(scope == name or scope.startswith(name + ".") for name in names)

    def is_construction(name):
        return name in rounds or name.startswith("build_")

    in_checks = sorted(
        f"{module}:{node.lineno} {scope} names {_name(node)}"
        for module, scope, node in nodes
        if inside(scope, checks) and _name(node) and is_construction(_name(node))
    )
    assert in_checks == []
    oracle = {"face_wins", "_pair_wins"} | {name.rpartition(".")[2] for name in checks}
    in_construction = sorted(
        f"{module}:{node.lineno} {scope} names {_name(node)}"
        for module, scope, node in nodes
        if inside(scope, rounds | builds) and _name(node) in oracle
    )
    assert in_construction == []
