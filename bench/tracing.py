"""Spans and counts recorded around calls into the library's public functions.

The library itself is not instrumented: every span opens and closes in this
file, at the boundary of one call (or one batch of calls) into a module.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

from workloads import coefficients

# The cached construction stages in dependency order.  Called cold before the
# warm run_config, each span holds exactly that stage's work, and each check
# span then holds only the check's own work.
PARTITION = (
    "verify.build_run",
    "casorati.cleared_matrix",
    "casorati.casorati_cleared",
    "casorati.core_determinant",
    "casorati.eigenvalue_polynomial",
    "casorati.mixing_polynomial",
    "casorati.spectral_polynomial",
    "casorati.krall_operator",
)

# Uncached work that the checks recompute; timed in a separate pass and kept
# out of the partition.
PROBES = (
    "hahn.hahn_polynomial",
    "casorati.krall_polynomial",
    "measures.orthogonality_table",
    "measures.gram_schmidt",
    "diffops.apply",
    "matrices.poly_det",
    "casorati.casorati_rational",
    "oracle.operator_solution_space",
)

COUNTS = (
    "casorati.m",
    "casorati.r",
    "casorati.core_degree",
    "casorati.core_bits",
    "casorati.operator_bits",
    "casorati.q_bits",
    "measures.support_size",
    "oracle.rows",
    "oracle.cols",
)

# layers with spans inside an op; the probe layers appear only in probe spans
LAYERS = ("bench", "verify", "casorati", "check")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0] if "." in name else "bench"


class Tracer:
    """Spans ``{name, start, end, parent, op_id}`` and per-op counts, in memory."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self._stack: list[int] = []

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    @contextmanager
    def span(self, name: str, op_id: int):
        rec = {"name": name, "start": self._now(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "op_id": op_id}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield self._stack[-1]
        finally:
            self._stack.pop()
            rec["end"] = self._now()

    def add_span(self, name: str, start: float, end: float, parent: int, op_id: int) -> None:
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent, "op_id": op_id})

    def count(self, name: str, value: int, op_id: int) -> None:
        self.counts.append({"name": name, "value": value, "op_id": op_id})

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer, over the op spans and their descendants: span durations
        minus the time their child spans cover."""
        child_time = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        for i, s in enumerate(self.spans):
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
                root[i] = root[s["parent"]]
        out = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(self.spans):
            if self.spans[root[i]]["name"] == "op":
                layer = layer_of(s["name"])
                out[layer] += s["end"] - s["start"] - child_time[i]
        return out


def coeff_bits(polys) -> int:
    """Largest numerator plus denominator bit-length among the coefficients."""
    return max((Fraction(c).numerator.bit_length() + Fraction(c).denominator.bit_length()
                for poly in polys for c in coefficients(poly)), default=0)


def traced_op(lib: SimpleNamespace, tracer: Tracer, cfg, op_id: int):
    """One cold op: partition stages, then a warm run_config, then the probes.

    Returns the warm report.  ``lib`` must not have seen this config before.
    """
    cas, ver = lib.casorati, lib.verify
    tr, i = tracer, op_id
    with tr.span("op", i):
        with tr.span("verify.build_run", i):
            run = ver.build_run(cfg)
        ctx = run.ctx
        tr.count("casorati.m", ctx.m, i)
        tr.count("measures.support_size", run.measure.size, i)
        with tr.span("casorati.cleared_matrix", i):
            cas.cleared_matrix(ctx)
        with tr.span("casorati.casorati_cleared", i):
            cas.casorati_cleared(ctx)
        with tr.span("casorati.core_determinant", i):
            core = cas.core_determinant(ctx)
        tr.count("casorati.core_degree", core.degree, i)
        tr.count("casorati.core_bits", coeff_bits([core]), i)
        with tr.span("casorati.eigenvalue_polynomial", i):
            lam = cas.eigenvalue_polynomial(ctx)
        with tr.span("casorati.mixing_polynomial", i):
            for row in range(ctx.m):
                cas.mixing_polynomial(ctx, row)
        with tr.span("casorati.spectral_polynomial", i):
            cas.spectral_polynomial(ctx)
        with tr.span("casorati.krall_operator", i):
            op = cas.krall_operator(ctx)
        r = cas.operator_halfwidth(ctx)
        tr.count("casorati.r", r, i)
        tr.count("casorati.operator_bits", coeff_bits(op.terms.values()), i)
        with tr.span("verify.run_config", i) as parent:
            report = ver.run_config(cfg)
        # check spans come from the report's own timings.  The checks run back
        # to back after run_config's build_run and before its summary, which
        # only reads cached stages here, so they are laid at the span's end.
        start = tr.spans[parent]["end"] - sum(c.elapsed for c in report.checks)
        for check in report.checks:
            tr.add_span(f"check.{check.name}", start, start + check.elapsed, parent, i)
            start += check.elapsed

    cap = max(2 * r, max((c.degree for c in op.terms.values()), default=0))
    top = max(run.n_max, 2 * r + 1)
    lambdas = [Fraction(lam(n)) for n in range(2 * r + 2)]
    with tr.span("probe", i):
        with tr.span("hahn.hahn_polynomial", i):
            for n in range(top + 1):
                lib.hahn.hahn_polynomial(n, ctx.params)
        with tr.span("casorati.krall_polynomial", i):
            qs = [cas.krall_polynomial(ctx, n) for n in range(top + 1)]
        tr.count("casorati.q_bits", coeff_bits(qs), i)
        family = qs[: run.n_max + 1]
        with tr.span("measures.orthogonality_table", i):
            lib.measures.orthogonality_table(run.inner_measure, family)
        with tr.span("measures.gram_schmidt", i):
            lib.measures.gram_schmidt(run.inner_measure, run.n_max)
        with tr.span("diffops.apply", i):
            for q in family:
                op.apply(q)
        with tr.span("matrices.poly_det", i):
            lib.matrices.poly_det(cas.cleared_matrix(ctx))
        with tr.span("casorati.casorati_rational", i):
            cas.casorati_rational(ctx)
        fed = qs[: 2 * r + 2]
        with tr.span("oracle.operator_solution_space", i):
            _, nullity = lib.oracle.operator_solution_space(fed, lambdas, r, cap)
    tr.count("oracle.rows", sum(q.degree + cap + 1 for q in fed), i)
    tr.count("oracle.cols", (2 * r + 1) * (cap + 1), i)
    tr.count("oracle.nullity", nullity, i)
    return report
