"""Finite-set bookkeeping for the determinantal construction.

The construction is driven by a quartet of finite sets of positive integers.
Two transforms turn those sets into the degree sets that label determinant
rows: an involution I and a padded complement J_h.  Throughout, the maximum
of the empty set is taken to be -1, which makes every counting identity below
hold without case splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import index
from typing import Iterable, Sequence


def _normalize(fset: Iterable[int]) -> tuple[int, ...]:
    items = sorted(set(map(index, fset)))
    if items and items[0] < 1:
        raise ValueError(f"set elements must be positive integers, got {items[0]}")
    return tuple(items)


def set_max(fset: Sequence[int]) -> int:
    """max F, with max(empty) = -1."""
    return fset[-1] if fset else -1


def involution(fset: Sequence[int]) -> tuple[int, ...]:
    """I(F) = {1, ..., max F} minus {max F - f : f in F}.

    An involution on finite sets of positive integers: applying it twice gives
    the set back.  I(empty) = empty.
    """
    fset = _normalize(fset)
    if not fset:
        return ()
    top = fset[-1]
    removed = {top - f for f in fset}
    return tuple(x for x in range(1, top + 1) if x not in removed)


def padded_complement(fset: Sequence[int], pad: int) -> tuple[int, ...]:
    """J_pad(F) = {0, ..., max F + pad - 1} minus {f - 1 : f in F}.

    With max(empty) = -1, the empty set maps to {0, ..., pad-2}; for pad = 1
    that is again empty.
    """
    if pad < 1:
        raise ValueError("pad must be at least 1")
    fset = _normalize(fset)
    top = set_max(fset)
    removed = {f - 1 for f in fset}
    return tuple(x for x in range(0, top + pad) if x not in removed)


@dataclass(frozen=True)
class SetQuartet:
    """Quartet of finite sets of positive integers, stored sorted."""

    first: tuple[int, ...]
    second: tuple[int, ...]
    third: tuple[int, ...]
    fourth: tuple[int, ...]

    @classmethod
    def of(cls, first=(), second=(), third=(), fourth=()) -> "SetQuartet":
        return cls(
            _normalize(first), _normalize(second), _normalize(third), _normalize(fourth)
        )

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        return (self.first, self.second, self.third, self.fourth)

    @property
    def maxima(self) -> tuple[int, int, int, int]:
        return tuple(set_max(s) for s in self.sets)  # type: ignore[return-value]

    def reversal(self) -> "SetQuartet":
        """Replace each of the first three sets F by {max F - f + 1 : f in F}.

        This is the quartet fed to the direct construction when starting from
        a Christoffel factor; the fourth set goes through unchanged.
        """
        def rev(s: tuple[int, ...]) -> tuple[int, ...]:
            if not s:
                return ()
            top = s[-1]
            return tuple(sorted(top - f + 1 for f in s))

        return SetQuartet(rev(self.first), rev(self.second), rev(self.third), self.fourth)


def transform_quartet(
    quartet: SetQuartet, pads: tuple[int, int, int]
) -> tuple[tuple[int, ...], ...]:
    """Row-degree sets: padded complements of the first three, involution of the fourth."""
    return (
        padded_complement(quartet.first, pads[0]),
        padded_complement(quartet.second, pads[1]),
        padded_complement(quartet.third, pads[2]),
        involution(quartet.fourth),
    )


def default_pads(quartet: SetQuartet) -> tuple[int, int, int]:
    """Pads that make the transformed quartet equal the involuted reversal.

    min F for a nonempty set, 1 otherwise.
    """
    return tuple(s[0] if s else 1 for s in quartet.sets[:3])  # type: ignore[return-value]


def theorem_halfwidth(quartet: SetQuartet, pads: tuple[int, int, int]) -> int:
    """Half the order of the difference operator built on the direct path."""
    f1, f2, f3, f4 = quartet.sets
    r = sum(f4) - sum(f1) - sum(f2) - sum(f3)
    r -= sum(comb(len(s), 2) for s in quartet.sets)
    r += sum(len(s) * (set_max(s) + pad) for s, pad in zip((f1, f2, f3), pads))
    return r + 1


def degree_sum_halfwidth(row_degrees: tuple[tuple[int, ...], ...]) -> int:
    """Half the order of the operator whose determinant rows have these degree
    sets.  Read on a quartet's own sets, it is the half-width of the operator
    attached to the Christoffel factor (the corollary path)."""
    r = sum(sum(s) for s in row_degrees)
    r -= sum(comb(len(s), 2) for s in row_degrees)
    return r + 1
