"""The brute-force face-win count, kept for the tests as the reference for ``face_wins``.

It compares every face of a with every face of b, so it makes exactly
|a|·|b| comparisons and shares no method with the bisection count that
``tourneydice.face_wins`` uses.  Any faster count must equal it.
"""


def exhaustive_wins(a, b):
    """Count ordered face pairs (x, y) with x from a, y from b, x > y, by comparing every pair."""
    b = tuple(b)  # read once, so a one-shot b is not used up by a's first face; a tuple comes back as it is
    return len([0 for x in a for y in b if x > y])
