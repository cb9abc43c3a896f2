"""Non-transitive dice sets realizing arbitrary tournaments.

Given any tournament on n vertices, :func:`build_dice` produces n dice
with at most n+1 sides whose pairwise win probabilities reproduce the
tournament exactly, every matchup decided at 1/2 + 1/(2k^2).  The layer
underneath exposes the round/column edge partitions of K_n the
construction is built on, and an exact face-win count, independent of the
construction, for verification.

Importing the package loads none of its modules: the first read of a
public name (or of ``dice``, ``factorization`` or ``tournament``) loads
those three together and binds every name in ``__all__``.  So a CLI
command, a fresh process each time, compiles only the modules it runs.
"""

__all__ = [
    "DiceSet",
    "OneFactorization",
    "Tournament",
    "almost_transitive",
    "build_0mod4",
    "build_dice",
    "build_even_2mod4",
    "build_odd",
    "compact_labels",
    "dice_set",
    "dominance",
    "even_rounds",
    "face_wins",
    "from_edges",
    "guaranteed_wins_audit",
    "is_balanced",
    "matchup",
    "odd_rounds",
    "paley",
    "parse_dice",
    "parse_tournament",
    "random_tournament",
    "serialize_dice",
    "serialize_tournament",
    "transitive",
    "verify_partition",
    "verify_realization",
]

_MODULES = ("dice", "factorization", "tournament")


def __getattr__(name: str):
    # All three load at once, not only the module holding ``name``: callers such
    # as bench/tracer.py look all three up in sys.modules once they have read
    # any public name.
    if name not in __all__ and name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    names = globals()
    for module in _MODULES:
        found = vars(import_module(f"{__name__}.{module}"))
        names.update({public: found[public] for public in __all__ if public in found})
    return names[name]
