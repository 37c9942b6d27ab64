"""Construction contexts: the validated input that :mod:`krallhahn.casorati` builds from."""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from operator import index

from .errors import ParameterSingularity, ResonantParameters
from .hahn import HahnParams, companion_eigencoefficients, companion_polynomial, reflect
from .polynomials import Polynomial
from .rationals import format_rational, is_integer_at_most
from .sets import SetQuartet, default_pads, transform_quartet


@dataclass(frozen=True)
class ConstructionContext:
    """Validated input data for one determinantal construction."""

    params: HahnParams
    row_kinds: tuple[int, ...]
    row_polys: tuple[Polynomial, ...]
    prefactor: Polynomial
    quartet: SetQuartet | None = None
    pads: tuple[int, int, int] | None = None

    def __post_init__(self) -> None:
        # The stage store looks the context up on every stage call; hashing it
        # once spares re-hashing the parameters and every row polynomial.
        # The cached value is not a field, so equality ignores it.
        values = tuple(getattr(self, f.name) for f in fields(self))
        object.__setattr__(self, "_hash", hash(values))

    def __hash__(self) -> int:
        return self._hash

    @property
    def m(self) -> int:
        return len(self.row_kinds)

    @property
    def row_degrees(self) -> tuple[int, ...]:
        return tuple(p.degree for p in self.row_polys)

    @property
    def block_counts(self) -> tuple[int, int, int, int]:
        return tuple(self.row_kinds.count(k) for k in (1, 2, 3, 4))  # type: ignore[return-value]

    @property
    def spectral_roots(self) -> tuple[Fraction, ...]:
        out = []
        for kind, degree in zip(self.row_kinds, self.row_degrees):
            slope, intercept = companion_eigencoefficients(kind, self.params)
            out.append(slope * degree + intercept)
        return tuple(out)

    @property
    def orthogonality_range(self) -> int:
        """Largest degree with guaranteed nonzero norm: N + m3 + m4."""
        counts = self.block_counts
        return self.params.N + counts[2] + counts[3]


def context_from_degrees(
    params: HahnParams,
    degree_sets: tuple[tuple[int, ...], ...],
    row_polys: tuple[Polynomial, ...] | None = None,
    prefactor: Polynomial | None = None,
    quartet: SetQuartet | None = None,
    pads: tuple[int, int, int] | None = None,
) -> ConstructionContext:
    """Build and validate a context from four row-degree sets.

    ``row_polys`` defaults to the companion dual-Hahn polynomials of the
    listed degrees, which is the choice that makes the constructed family
    orthogonal.  Arbitrary polynomials of the same degrees are accepted.
    """
    if len(degree_sets) != 4:
        raise ValueError("expected four degree sets")
    kinds: list[int] = []
    degrees: list[int] = []
    for kind, dset in enumerate(degree_sets, start=1):
        previous = -1
        for u in dset:
            u = index(u)
            if u < 0:
                raise ValueError(f"row degree must be nonnegative, got {u}")
            if u <= previous:
                raise ValueError(f"degrees within a block must increase, got {dset}")
            previous = u
            kinds.append(kind)
            degrees.append(u)
    if row_polys is None:
        row_polys = tuple(
            companion_polynomial(kind, degree, params)
            for kind, degree in zip(kinds, degrees)
        )
    else:
        row_polys = tuple(row_polys)
        if len(row_polys) != len(kinds):
            raise ValueError(f"expected {len(kinds)} row polynomials, got {len(row_polys)}")
        for poly, degree in zip(row_polys, degrees):
            if poly.degree != degree:
                raise ValueError(
                    f"row polynomial degree {poly.degree} does not match listed degree {degree}"
                )
    if prefactor is None:
        prefactor = Polynomial.one()
    ctx = ConstructionContext(
        params=params,
        row_kinds=tuple(kinds),
        row_polys=row_polys,
        prefactor=prefactor,
        quartet=quartet,
        pads=pads,
    )
    roots = ctx.spectral_roots
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if roots[i] == roots[j]:
                raise ResonantParameters(
                    f"rows {i} and {j} (kinds {kinds[i]},{kinds[j]}, degrees "
                    f"{degrees[i]},{degrees[j]}) share the spectral root "
                    f"{format_rational(roots[i])}"
                )
    if prefactor.degree > 0:
        shift = params.a + params.b - ctx.m - 1
        if reflect(prefactor, shift) != prefactor:
            raise ValueError("prefactor is not invariant under the construction reflection")
    return ctx


def context_from_quartet(
    params: HahnParams,
    quartet: SetQuartet,
    pads: tuple[int, int, int] | None = None,
    row_polys: tuple[Polynomial, ...] | None = None,
    prefactor: Polynomial | None = None,
) -> ConstructionContext:
    """Context for the direct construction driven by a set quartet.

    Validates the parameter bounds the orthogonality statement needs: two
    integrality exclusions on a, b and a + b, plus positive-integer
    exclusions when certain sets are nonempty.
    """
    if pads is None:
        pads = default_pads(quartet)
    if len(pads) != 3 or any(h < 1 for h in pads):
        raise ValueError(f"pads must be three integers >= 1, got {pads}")
    f1m, f2m, f3m, f4m = quartet.maxima
    checks = [
        ("a", params.a, f2m + f4m + pads[1]),
        ("b", params.b, f1m + f3m + pads[0] + pads[2] - 1),
        ("a+b", params.a + params.b, f1m + f2m + f3m + f4m + sum(pads)),
    ]
    for name, value, bound in checks:
        if is_integer_at_most(value, bound):
            raise ParameterSingularity(
                f"{name} = {format_rational(value)} is an integer <= {bound}"
            )
    if quartet.second or quartet.fourth:
        if params.a.denominator == 1 and params.a.numerator >= 1:
            raise ParameterSingularity(
                f"a = {format_rational(params.a)} is a positive integer but the "
                "second or fourth set is nonempty"
            )
    if quartet.first or quartet.third:
        if params.b.denominator == 1 and params.b.numerator >= 1:
            raise ParameterSingularity(
                f"b = {format_rational(params.b)} is a positive integer but the "
                "first or third set is nonempty"
            )
    degree_sets = transform_quartet(quartet, pads)
    return context_from_degrees(
        params, degree_sets, row_polys=row_polys, prefactor=prefactor,
        quartet=quartet, pads=pads,
    )
