"""Workload definitions, the seeded op stream, and the exact-output digest.

One op is one generated configuration verified by ``run_config`` with the
workload's check subset.  The seed draws the numerators of ``(a, b)``; the
templates (root sets, path, N) and the denominators cycle in a fixed order,
so every seed runs the same mix of costs on different inputs.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0

_MODULES = ("config", "errors", "verify", "casorati", "matrices", "diffops",
            "hahn", "measures", "oracle", "rationals")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    checks: tuple[str, ...]
    # (F, path, N), cycled in this order; repeats set the weights
    templates: tuple[tuple[tuple[tuple[int, ...], ...], str, int], ...]
    # stream length: about 30 s of wall time on the 2-core Xeon the baseline
    # was taken on, so a run ends with its stream and two commits time the
    # same ops
    ops: int


_M3_COR = (((), (), (), (3,)), "corollary", 12)
_M3_THM = (((1,), (1,), (1,), ()), "theorem", 12)
_M3_PAD = (((2,), (), (), ()), "theorem", 12)
_M4_COR = (((1,), (1,), (1,), (1,)), "corollary", 12)

_R3_COR = (((), (), (), (2,)), "corollary", 8)
_R3_THM = (((2,), (), (), ()), "theorem", 8)
_R4_COR = (((), (), (), (1, 3)), "corollary", 8)

# Costs cluster by template.  The cycles are weighted so that the median and
# the tail (the sample with ten above it) each fall inside one cluster, away
# from its edges: in construct the median among the m=3 theorem ops and the
# tail among the m=4 ops; in oracle both among the half-width-4 ops.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="construct",
            why="m=3-4 rows at N=12, both paths: casorati determinants, mixing "
            "polynomials and operator assembly do the work; measures and oracle idle",
            checks=("omega-nonvanishing", "hypotheses", "degree-leading", "genre",
                    "eigen-equation"),
            templates=(_M3_COR, _M3_THM, _M4_COR, _M3_PAD, _M3_THM, _M4_COR),
            ops=60,
        ),
        Workload(
            name="family",
            why="m=1-2 single-root variants at N=16-17: q_n from Hahn polynomials, "
            "the Gram table and Gram-Schmidt dominate; the construction is tiny",
            checks=("orthogonality", "support", "criteria"),
            # N set per template so that all four cost about the same.  Not
            # F3=[1]: 6 of its 850 (a, b) draws at N=16 pass build_run, but
            # their Casorati determinant vanishes at n=6 and the checks fail
            templates=(
                (((), (), (), (1,)), "corollary", 16),
                (((), (), (2,), ()), "corollary", 16),
                (((), (), (), (2,)), "corollary", 16),
                (((), (), (), (1, 2)), "corollary", 17),
            ),
            ops=28,
        ),
        Workload(
            name="oracle",
            why="m=2-3 rows, half-width 3-4 at N=8: one large Fraction "
            "Gauss-Jordan solve per op, not many small polynomial determinants",
            checks=("oracle",),
            templates=(_R3_COR, _R4_COR, _R4_COR, _R3_THM, _R4_COR, _R4_COR),
            ops=24,
        ),
    )
}


def load_library() -> SimpleNamespace:
    """Import krallhahn from this checkout afresh, with every cache empty.

    Dropping the modules and importing them again gives new module-level
    caches, the state a CLI process starts in.
    """
    if not (SRC / "krallhahn" / "__init__.py").is_file():
        raise FileNotFoundError(f"no krallhahn package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "krallhahn" or k.startswith("krallhahn.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    gc.collect()
    lib = SimpleNamespace(
        **{name: importlib.import_module(f"krallhahn.{name}") for name in _MODULES}
    )
    origin = Path(lib.verify.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"krallhahn imported from {origin}, not from {SRC}")
    return lib


# Denominator pairs of (a, b), one per template cycle, in this order.  The
# coefficient bit-lengths, and with them the op costs, follow the denominators
# far more than the numerators, so the seed draws only the numerators and
# every seed runs the same cost mix.  Unequal denominators keep a + b
# non-integer.
DENOMINATORS = ((2, 3), (3, 4), (5, 2), (4, 3), (3, 5), (2, 5), (5, 4))


def _draw(rng: random.Random, q: int) -> Fraction:
    """A rational in (0, 5) whose reduced denominator is q."""
    while True:
        p = rng.randint(1, 5 * q - 1)
        if gcd(p, q) == 1:
            return Fraction(p, q)


def generate_ops(workload: Workload, seed: int, count: int,
                 validate) -> tuple[list[dict], dict[str, int]]:
    """The first ``count`` ops of the workload's stream for ``seed``.

    Each op is a config dict with its own ``(a, b)``: both non-integer, with
    ``a + b`` non-integer, never repeated within the stream.  ``validate``
    returns ``(context, None)`` for a usable draw, or ``(None, reason)``;
    such draws are redrawn and counted by reason.  A draw whose context
    equals an earlier op's (the corollary path can reduce to a theorem-path
    context) is also redrawn, so no op hits another's caches.  Returns the
    ops and the redraw counts.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    cycle = len(workload.templates)
    used: set[tuple[Fraction, Fraction]] = set()
    contexts: set = set()
    ops: list[dict] = []
    redraws: dict[str, int] = {}
    while len(ops) < count:
        F, path, N = workload.templates[len(ops) % cycle]
        qa, qb = DENOMINATORS[len(ops) // cycle % len(DENOMINATORS)]
        a, b = _draw(rng, qa), _draw(rng, qb)
        if (a, b) in used:
            continue
        op = {
            "a": str(a), "b": str(b), "N": N, "F": [list(s) for s in F],
            "path": path, "checks": list(workload.checks),
        }
        ctx, reason = validate(op)
        if reason is not None:
            redraws[reason] = redraws.get(reason, 0) + 1
            continue
        if ctx in contexts:
            continue
        contexts.add(ctx)
        used.add((a, b))
        ops.append(op)
    return ops, redraws


def make_validator(lib: SimpleNamespace):
    """Accepts a draw that ``build_run`` accepts.

    ``build_run`` raising ConfigInvalid gives reason "invalid"; nothing else
    sends a draw back.  A config that builds but then fails a check stays in
    the stream and counts as a failed op.
    """

    def validate(op: dict):
        try:
            run = lib.verify.build_run(lib.config.config_from_dict(op))
        except lib.errors.ConfigInvalid:
            return None, "invalid"
        return run.ctx, None

    return validate


def coefficients(poly) -> list:
    """A polynomial's coefficients through its public accessor, lowest first."""
    return [poly.coefficient(k) for k in range(poly.degree + 1)]


def op_key(op: dict) -> str:
    return f"{op['path']} N={op['N']} F={op['F']} a={op['a']} b={op['b']}"


def op_digest(lib: SimpleNamespace, workload: Workload, cfg, report) -> str:
    """Hash of the op's exact outputs; timings are left out.

    Covers the eigenvalues, the norms, the criteria constant, and, when the
    workload's checks build the operator, its genre and terms and the oracle
    verdict.  Call it after the op: the operator then comes from the
    library's cache, so hashing adds no construction work.
    """
    fmt = lib.rationals.format_rational
    witness = {c.name: c.witness for c in report.checks}
    out = {
        "eigenvalues": report.summary.get("eigenvalues"),
        "criteria_constant": report.summary.get("criteria_constant"),
        "norms": witness.get("orthogonality", {}).get("norms"),
    }
    if "oracle" in witness:
        w = witness["oracle"]
        out["oracle"] = [w.get("agrees_with_construction"), w.get("nullity")]
    if {"genre", "eigen-equation", "oracle"} & set(workload.checks):
        operator = lib.casorati.krall_operator(lib.verify.build_run(cfg).ctx)
        out["genre"] = list(operator.genre)
        out["operator"] = {
            str(shift): [fmt(c) for c in coefficients(poly)]
            for shift, poly in sorted(operator.terms.items())
        }
    blob = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]
