"""The paper's left/right lemma as a count over a factorization's columns, for the tests.

For two vertices w and x, count the rounds that hold both in which w's
column is left of x's, right of it, or the same column.  The lemma says
the first two counts are equal, so in the construction every cross-die
comparison outside the column that pairs w with x cancels out.
"""

from collections import namedtuple


class LeftCount(namedtuple("LeftCount", "less greater ties")):
    __slots__ = ()


# (factorization, its column tables): a memo of the last factorization asked about, since callers ask
# about many pairs of one factorization in turn; keyed by identity, as hashing the rounds costs O(n^2)
_tables = (None, ())


def _columns(f):
    """Per round, vertex -> 1-based column; built once per factorization asked about in a row."""
    global _tables
    if _tables[0] is not f:
        tables = []
        for row in f.rounds:
            cols = {}
            for j, (a, b) in enumerate(row, start=1):
                cols[a] = j
                cols[b] = j
            tables.append(cols)
        _tables = (f, tuple(tables))
    return _tables[1]


def left_count(f, w, x):
    """Over rounds containing both vertices, how often w's column is left of, right of, or equal to x's."""
    if w == x:
        raise ValueError("left_count needs two distinct vertices")
    less = greater = ties = 0
    for cols in _columns(f):
        cw = cols.get(w)
        cx = cols.get(x)
        if cw is None or cx is None:
            continue
        if cw < cx:
            less += 1
        elif cw > cx:
            greater += 1
        else:
            ties += 1
    return LeftCount(less, greater, ties)
