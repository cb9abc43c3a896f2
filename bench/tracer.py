"""Spans around calls into the library's public functions.

``Tracer.install`` replaces each traced function, wherever a tourneydice
module holds a reference to it, with a wrapper that records a span:
(set id, name, start, end, parent index).  Nested calls become child
spans because the library calls its own functions through module
globals.  ``face_wins`` runs about n^2 times per check, so it is counted,
not spanned.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# traced function -> per-layer metric that receives its self time
SPANNED = {
    "random_tournament": "tournament.generate_s",
    "transitive": "tournament.generate_s",
    "almost_transitive": "tournament.generate_s",
    "paley": "tournament.generate_s",
    "serialize_tournament": "tournament.serialize_{fmt}_s",
    "parse_tournament": "tournament.parse_{fmt}_s",
    "odd_rounds": "factorization.rounds_s",
    "even_rounds": "factorization.rounds_s",
    "verify_partition": "factorization.verify_partition_s",
    "build_dice": "dice.build_s",
    "build_odd": "dice.build_s",
    "build_even_2mod4": "dice.build_s",
    "build_0mod4": "dice.build_s",
    "serialize_dice": "dice.serialize_s",
    "parse_dice": "dice.parse_s",
    "compact_labels": "dice.compact_s",
    "dice_set": "dice.validate_s",
    "verify_realization": "dice.verify_s",
    "dominance": "dice.dominance_s",
    "is_balanced": "dice.balance_s",
    "guaranteed_wins_audit": "dice.audit_s",
    "matchup": "dice.matchup_s",
}
WHOLE_SET_CHECKS = {"verify_realization", "dominance", "is_balanced", "guaranteed_wins_audit"}
CHECKS = WHOLE_SET_CHECKS | {"matchup"}
COUNTED = "face_wins"
MODULES = ("tourneydice", "tourneydice.tournament", "tourneydice.factorization", "tourneydice.dice")

LIBRARY_METRICS = sorted(set(
    m.format(fmt=f) for m in SPANNED.values() for f in ("json", "matrix")
)) + [
    "tournament.bytes",
    "factorization.rounds_calls",
    "dice.bytes",
    "dice.validate_calls",
    "dice.checks_s",
    "dice.pairs_checked",
    "dice.pairs_per_s",
    "dice.oracle_calls",
    "dice.face_comparisons",
    "dice.oracle_calls_per_pair",
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.set_id = -1
        self.counts = {"tournament.bytes": 0, "dice.bytes": 0,
                       "dice.oracle_calls": 0, "dice.face_comparisons": 0}
        self.set_pairs: dict[int, tuple[int, set]] = {}
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [sys.modules[m] for m in MODULES]
        dice = sys.modules["tourneydice.dice"]
        targets = {}
        for name in SPANNED:
            fn = next((getattr(m, name) for m in modules[1:] if hasattr(m, name)), None)
            if fn is not None:
                targets[name] = (fn, self._span(name, fn))
        if hasattr(dice, COUNTED):
            fn = getattr(dice, COUNTED)
            targets[COUNTED] = (fn, self._count(fn))
        for module in modules:
            for name, (fn, wrapper) in targets.items():
                if getattr(module, name, None) is fn:
                    self._saved.append((module, name, fn))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, fn in self._saved:
            setattr(module, name, fn)
        self._saved.clear()

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        fmt_arg = name in ("serialize_tournament", "parse_tournament")
        size_key = {"serialize_tournament": "tournament.bytes",
                    "serialize_dice": "dice.bytes"}.get(name)

        def wrapper(*args, **kwargs):
            label = name
            if fmt_arg:
                label = f"{name}:{args[1] if len(args) > 1 else kwargs.get('fmt', 'json')}"
            if name in CHECKS:
                self._note_pairs(name, args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (self.set_id, label, start, end, parent)
            if size_key:
                self.counts[size_key] += len(result)
            return result

        return wrapper

    def _count(self, fn):
        counts = self.counts

        def wrapper(a, b):
            counts["dice.oracle_calls"] += 1
            counts["dice.face_comparisons"] += len(a) * len(b)
            return fn(a, b)

        return wrapper

    def _note_pairs(self, name, args) -> None:
        """Record which die pairs this set's checks cover: all of them, or one matchup pair."""
        full, pairs = self.set_pairs.setdefault(self.set_id, (0, set()))
        if name in WHOLE_SET_CHECKS:
            self.set_pairs[self.set_id] = (max(full, args[0].n), pairs)
        elif args[0] and args[1]:
            pairs.add((min(args[0][0], args[1][0]), max(args[0][0], args[1][0])))

    def metrics(self) -> dict:
        """Per-layer metrics: self time per metric, counts, and pair rates."""
        out = {name: 0.0 for name in LIBRARY_METRICS}
        out.update(self.counts)
        child_time = [0.0] * len(self.spans)
        in_check = [False] * len(self.spans)
        checks_s = 0.0
        for index, (_, label, start, end, parent) in enumerate(self.spans):
            base = label.split(":")[0]
            outer_check = base in CHECKS and not (parent >= 0 and in_check[parent])
            in_check[index] = base in CHECKS or (parent >= 0 and in_check[parent])
            if outer_check:
                checks_s += end - start
            if parent >= 0:
                child_time[parent] += end - start
        for index, (_, label, start, end, _) in enumerate(self.spans):
            base, _, fmt = label.partition(":")
            out[SPANNED[base].format(fmt=fmt)] += end - start - child_time[index]
        names = [label for _, label, _, _, _ in self.spans]
        out["factorization.rounds_calls"] = names.count("odd_rounds") + names.count("even_rounds")
        out["dice.validate_calls"] = names.count("dice_set")
        pairs = sum(
            full * (full - 1) // 2 if full else len(matchups)
            for full, matchups in self.set_pairs.values()
        )
        out["dice.checks_s"] = checks_s
        out["dice.pairs_checked"] = pairs
        out["dice.pairs_per_s"] = pairs / checks_s if checks_s else 0.0
        out["dice.oracle_calls_per_pair"] = out["dice.oracle_calls"] / pairs if pairs else 0.0
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for set_id, label, start, end, parent in self.spans:
                fh.write(json.dumps({"set": set_id, "name": label, "start": start,
                                     "end": end, "parent": parent}) + "\n")
