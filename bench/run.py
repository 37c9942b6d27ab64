"""The krallhahn benchmark: seeded workloads verified exactly, closed loop.

    python3 bench/run.py --workload construct --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --smoke

One client runs the workload's ops serially in this process, each a cold
``verify.run_config`` call on a config no earlier op used.  A run ends when
its op stream does, or at ``--seconds`` if that comes first.

With ``--trace 0`` it prints the end-to-end metrics.  Each of their times is
a wall time divided by the contention factor measured around it (see
Contention); the raw wall figures are printed on the line before them.  With ``--trace 1`` it runs
every op twice, once untraced and once cold under spans in a freshly
imported library, prints the per-layer metrics (raw wall time, per op) and
writes the spans to bench/out/.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  An op fails if it raises, if any
check fails, or if its exact-output digest differs from the frozen one.
Without the library under src/, it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import COUNTS, PARTITION, PROBES, Tracer, traced_op  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    DIGESTS,
    WORKLOADS,
    generate_ops,
    load_library,
    make_validator,
    op_digest,
    op_key,
)

OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 11
SMOKE_OPS = 2
# the kernel's fastest calls on the uncontended 2-core Xeon took 3.9-4.2 ms;
# a fixed value, because a per-run estimate of the fastest call is noisier
KERNEL_REFERENCE_S = 0.004
KERNEL_CALLS = 8


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples above it, and that percentile.

    With 21 samples or fewer no such percentile clears the median, and the
    sample just above the median stands in.
    """
    ordered = sorted(values)
    rank = max(len(ordered) - 10, len(ordered) // 2 + 1)
    return ordered[rank - 1], 100 * rank / len(ordered)


def _kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 1200):
        acc += Fraction(1, i)
    return acc


class Contention:
    """How much slower than a reference speed the machine ran around each timing.

    The machine the benchmark was built on shares its cores with other
    tenants, and its speed swings by up to 2x from one second to the next.  A
    fixed stdlib Fraction kernel, which no change to this repository can speed
    up, is timed before every op or set-up repetition and once after the last;
    a sample's factor is its mean call time over KERNEL_REFERENCE_S.  Each
    timing is divided by the mean factor of the samples just before and just
    after it, so it reads as seconds on a machine where the kernel takes
    KERNEL_REFERENCE_S.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []

    def sample(self) -> None:
        gc.disable()  # a collection of the op's garbage is not machine speed
        try:
            times = []
            for _ in range(KERNEL_CALLS):
                start = time.perf_counter()
                _kernel()
                times.append(time.perf_counter() - start)
        finally:
            gc.enable()
        self.factors.append(statistics.mean(times) / KERNEL_REFERENCE_S)

    def scaled(self, times: list[float]) -> list[float]:
        """``times[i]`` ran between samples ``i`` and ``i + 1``."""
        f = self.factors
        return [t / ((f[i] + f[i + 1]) / 2) for i, t in enumerate(times)]

    def mean_factor(self) -> float:
        return statistics.mean(self.factors)


def setup(workload, seed: int, count: int,
          reps: int) -> tuple[list[dict], dict[str, int], float, float]:
    """Import, generate and validate the op stream ``reps`` times.

    Returns the ops, the redraw counts, and the median over the repetitions
    of the raw set-up time and of the contention-scaled one.
    """
    contention = Contention()
    raw = []
    for _ in range(reps):
        gc.collect()
        contention.sample()
        start = time.perf_counter()
        lib = load_library()
        ops, redraws = generate_ops(workload, seed, count, make_validator(lib))
        raw.append(time.perf_counter() - start)
        del lib
    contention.sample()
    return ops, redraws, statistics.median(raw), statistics.median(contention.scaled(raw))


class Checker:
    """Judges one op's report: all checks passed and the digest is the frozen one.

    Digests are frozen for the default seed's stream only.  On that seed an
    op with no frozen digest fails too: the stream itself has changed.
    """

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.frozen = json.loads(DIGESTS.read_text()).get(workload.name, {})
        self.require_digest = seed == DEFAULT_SEED
        self.checked = 0
        self.notes: list[str] = []

    def ok(self, lib, op: dict, cfg, report) -> bool:
        if not report.passed:
            failed = [c.name for c in report.checks if not c.passed]
            self.notes.append(f"{op_key(op)}: checks failed {failed}")
            return False
        expected = self.frozen.get(op_key(op))
        if expected is None:
            if self.require_digest:
                self.notes.append(f"{op_key(op)}: not in the frozen default-seed stream")
                return False
            return True
        self.checked += 1
        got = op_digest(lib, self.workload, cfg, report)
        if got != expected:
            self.notes.append(f"{op_key(op)}: digest {got} != frozen {expected}")
            return False
        return True


def run_untraced(ops: list[dict], seconds: float, checker: Checker) -> dict:
    lib = load_library()
    cfgs = [lib.config.config_from_dict(op) for op in ops]
    gc.collect()
    contention = Contention()
    op_times: list[float] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    for op, cfg in zip(ops, cfgs):
        if op_times and time.perf_counter() >= deadline:
            break
        contention.sample()
        start = time.perf_counter()
        try:
            report = lib.verify.run_config(cfg)
        except Exception as exc:  # any raise is a failed op, not a crash
            op_times.append(time.perf_counter() - start)
            checker.notes.append(f"{op_key(op)}: {type(exc).__name__}: {exc}")
            failed += 1
            continue
        op_times.append(time.perf_counter() - start)
        if not checker.ok(lib, op, cfg, report):
            failed += 1
    contention.sample()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"op_times": op_times, "scaled": contention.scaled(op_times),
            "factor": contention.mean_factor(), "failed": failed, "rss_kb": rss_kb}


def run_traced(workload, ops: list[dict], seconds: float, checker: Checker) -> dict:
    """Each op untraced and cold, then traced and cold in a fresh library."""
    tracer = Tracer()
    untraced: list[float] = []
    accounted: list[float] = []
    attempted = failed = 0
    cycle = len(workload.templates)
    deadline = time.perf_counter() + seconds
    for i, op in enumerate(ops):
        # stop only between whole template cycles, so every average covers
        # the same mix of templates
        if i % cycle == 0 and i >= cycle and time.perf_counter() >= deadline:
            break
        attempted += 1
        lib = load_library()
        cfg = lib.config.config_from_dict(op)
        first = len(tracer.spans)
        try:
            start = time.perf_counter()
            report = lib.verify.run_config(cfg)
            cold = time.perf_counter() - start
            ok = checker.ok(lib, op, cfg, report)
            lib = load_library()
            warm = traced_op(lib, tracer, lib.config.config_from_dict(op), i)
        except Exception as exc:  # any raise is a failed op, not a crash
            checker.notes.append(f"{op_key(op)}: {type(exc).__name__}: {exc}")
            failed += 1
            del tracer.spans[first:]
            tracer.counts = [c for c in tracer.counts if c["op_id"] != i]
            continue
        if not (ok and warm.passed):
            failed += 1
        untraced.append(cold)
        accounted.append(sum(s["end"] - s["start"] for s in tracer.spans[first:]
                             if s["name"] in PARTITION or s["name"].startswith("check.")))
    return {"tracer": tracer, "untraced": untraced, "accounted": accounted,
            "attempted": attempted, "failed": failed, "cycle": cycle}


def end_to_end_metrics(result: dict, setup_s: float) -> dict:
    """Op times and ``setup_s`` come already scaled for contention."""
    times = result["scaled"]
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail(times)[0], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["rss_kb"] / 1024, "MB"),
    }


def per_layer_metrics(result: dict) -> dict:
    """Seconds per traced op for every span name and layer, and the counts."""
    tracer: Tracer = result["tracer"]
    n = max(1, len(result["untraced"]))
    totals = tracer.totals()
    out = {}
    for name in PARTITION + PROBES:
        out[f"{name}_s"] = (totals.get(name, 0.0) / n, "s")
    for layer, seconds in tracer.self_times().items():
        out[f"{layer}.self_s"] = (seconds / n, "s")
    # the partition plus the warm checks, against the same op run untraced
    out["trace.untraced_op_s"] = (sum(result["untraced"]) / n, "s")
    out["trace.overhead_s"] = ((sum(result["accounted"]) - sum(result["untraced"])) / n, "s")
    for name in COUNTS:
        out[name] = (first_cycle_count(result, name), "count")
    return out


def first_cycle_count(result: dict, name: str) -> int:
    """A count summed over the first template cycle, so two runs of a seed repeat it."""
    return sum(c["value"] for c in result["tracer"].counts
               if c["op_id"] < result["cycle"] and c["name"] == name)


def write_trace(workload, seed: int, result: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    tracer: Tracer = result["tracer"]
    path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "spans": tracer.spans,
        "counts": tracer.counts, "untraced_op_s": result["untraced"],
    }))
    return path


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = WORKLOADS[name]
    count = SMOKE_OPS if smoke else workload.ops
    # set-up time is an end-to-end metric only; a traced run sets up once
    reps = 1 if smoke or trace else SETUP_REPS
    ops, redraws, setup_raw, setup_s = setup(workload, seed, count, reps)
    checker = Checker(workload, seed)
    if trace:
        result = run_traced(workload, ops, seconds, checker)
        attempted = result["attempted"]
        metrics = per_layer_metrics(result)
    else:
        result = run_untraced(ops, seconds, checker)
        attempted = len(result["op_times"])
        metrics = end_to_end_metrics(result, setup_s)
    failed = result["failed"]
    print(f"workload={name} seed={seed} trace={int(trace)} attempted={attempted} "
          f"failed={failed} redraws={redraws.get('invalid', 0)} stream={len(ops)} "
          f"digest_checked={checker.checked}")
    for note in checker.notes:
        print(f"FAILED {note}")
    if trace:
        tracer: Tracer = result["tracer"]
        # a workload runs only its own checks, so these are not metrics
        checks = {k: v for k, v in tracer.totals().items() if k.startswith("check.")}
        for check, seconds_total in checks.items():
            print(f"span {check}_s {seconds_total / max(1, len(result['untraced'])):.6g} s")
        self_times = tracer.self_times()
        op_total = sum(self_times.values())
        print(f"self time per layer, share of {op_total:.3f} s in traced ops: " + ", ".join(
            f"{layer} {seconds / op_total:.1%}" for layer, seconds in self_times.items()))
        # zero on every passing op, so a printed count and not a metric
        print(f"count oracle.nullity {first_cycle_count(result, 'oracle.nullity')}")
        print(f"tracing overhead {sum(result['accounted']) - sum(result['untraced']):.4f} s "
              f"over {sum(result['untraced']):.3f} s untraced")
        print(f"trace file {write_trace(workload, seed, result)}")
    else:
        wall = result["op_times"]
        print(f"op_s samples={attempted} tail=p{tail(wall)[1]:.1f} "
              f"contention_factor={result['factor']:.4f} wall: ops_per_s={len(wall) / sum(wall):.4f} "
              f"op_s.p50={statistics.median(wall):.4f} op_s.tail={tail(wall)[0]:.4f} "
              f"setup_s={setup_raw:.4f}")
    print(f"metric failed_frac {failed / attempted:.6g} frac")
    print_metrics(metrics)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"every workload, {SMOKE_OPS} ops each")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        load_library()
    except (OSError, ImportError) as exc:
        print(f"error: cannot load the library: {exc}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.smoke else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.smoke)
               for n in names]
    if args.smoke:
        merged = {"correct": all(r["correct"] for r in results),
                  "attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results),
                  "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                              for k, v in r["metrics"].items()}}
        print(json.dumps(merged))
    else:
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
