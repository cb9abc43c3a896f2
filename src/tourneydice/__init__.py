"""Non-transitive dice sets realizing arbitrary tournaments.

Given any tournament on n vertices, :func:`build_dice` produces n dice
with at most n+1 sides whose pairwise win probabilities reproduce the
tournament exactly, every matchup decided at 1/2 + 1/(2k^2).  The layer
underneath exposes the round/column edge partitions of K_n the
construction is built on, and an exhaustive face-win oracle for exact
verification.
"""

from .dice import (
    DiceSet,
    build_0mod4,
    build_dice,
    build_even_2mod4,
    build_odd,
    compact_labels,
    dice_set,
    dominance,
    face_wins,
    guaranteed_wins_audit,
    is_balanced,
    matchup,
    parse_dice,
    serialize_dice,
    verify_realization,
)
from .factorization import (
    OneFactorization,
    even_rounds,
    odd_rounds,
    verify_partition,
)
from .tournament import (
    Tournament,
    almost_transitive,
    from_edges,
    paley,
    parse_tournament,
    random_tournament,
    serialize_tournament,
    transitive,
)

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
