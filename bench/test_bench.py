"""Tests of the benchmark harness itself.

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from run import Checker, tail
from tracing import Tracer
from workloads import (
    DEFAULT_SEED,
    ROOT,
    WORKLOADS,
    generate_ops,
    load_library,
    make_validator,
    op_key,
)

BENCH = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def lib():
    return load_library()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_stream_validates_with_distinct_contexts(lib, name):
    workload = WORKLOADS[name]
    ops, _ = generate_ops(workload, DEFAULT_SEED, workload.ops, make_validator(lib))
    assert len(ops) == workload.ops
    contexts = []
    for op in ops:
        cfg = lib.config.config_from_dict(op)
        contexts.append(lib.verify.build_run(cfg).ctx)  # raises on an invalid op
        assert cfg.checks == workload.checks
    assert len(set(contexts)) == len(ops)
    assert len({(op["a"], op["b"]) for op in ops}) == len(ops)


def test_stream_is_a_function_of_the_seed(lib):
    workload = WORKLOADS["oracle"]
    validate = make_validator(lib)
    first, _ = generate_ops(workload, 3, 10, validate)
    again, _ = generate_ops(workload, 3, 10, validate)
    other, _ = generate_ops(workload, 4, 10, validate)
    assert first == again
    assert first != other
    templates = workload.templates
    for i, op in enumerate(first):
        F, path, N = templates[i % len(templates)]
        assert (op["F"], op["path"], op["N"]) == ([list(s) for s in F], path, N)


def test_redraws_count_only_rejected_draws(lib):
    validate = make_validator(lib)
    calls = []

    def reject_every_third(op):
        calls.append(op)
        return (None, "invalid") if len(calls) % 3 == 0 else validate(op)

    ops, redraws = generate_ops(WORKLOADS["construct"], 1, 12, reject_every_third)
    assert len(ops) == 12
    assert redraws == {"invalid": len(calls) // 3}
    assert all(op in ops for i, op in enumerate(calls) if (i + 1) % 3)


def test_only_config_invalid_sends_a_draw_back(lib):
    validate = make_validator(lib)
    # build_run accepts this draw although its Casorati determinant vanishes
    # at n = 6: it stays in the stream, and its failing checks fail the op
    op = {"a": "11/3", "b": "24/5", "N": 16, "F": [[], [], [1], []],
          "path": "corollary", "checks": ["orthogonality"]}
    ctx, reason = validate(op)
    assert reason is None
    assert ctx == lib.verify.build_run(lib.config.config_from_dict(op)).ctx
    assert validate(dict(op, a="-1")) == (None, "invalid")


_PASSED = SimpleNamespace(passed=True, checks=[])


def test_default_seed_op_without_a_frozen_digest_fails(lib):
    workload = WORKLOADS["construct"]
    validate = make_validator(lib)
    frozen, _ = generate_ops(workload, DEFAULT_SEED, 3, validate)
    # a library change that sends one more draw back shifts the whole stream
    calls = []

    def reject_first(op):
        calls.append(op)
        return (None, "invalid") if len(calls) == 1 else validate(op)

    shifted, _ = generate_ops(workload, DEFAULT_SEED, 3, reject_first)
    assert op_key(shifted[0]) != op_key(frozen[0])
    checker = Checker(workload, DEFAULT_SEED)
    assert op_key(frozen[0]) in checker.frozen
    assert not checker.ok(lib, shifted[0], None, _PASSED)
    assert "not in the frozen default-seed stream" in checker.notes[-1]
    # other seeds have no frozen digests; their ops are judged by the checks
    assert Checker(workload, DEFAULT_SEED + 1).ok(lib, shifted[0], None, _PASSED)


def test_tail_has_ten_samples_above_it():
    values = [float(v) for v in range(1, 41)]
    value, pct = tail(values)
    assert value == 30.0 and pct == 75.0
    assert sum(v > value for v in values) == 10
    assert tail([3.0, 1.0, 2.0]) == (2.0, pytest.approx(200 / 3))


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.add_span("op", 0.0, 10.0, None, 0)
    tracer.add_span("verify.run_config", 1.0, 9.0, 0, 0)
    tracer.add_span("check.genre", 2.0, 5.0, 1, 0)
    tracer.add_span("check.oracle", 5.0, 8.0, 1, 0)
    tracer.add_span("probe", 10.0, 12.0, None, 0)
    tracer.add_span("oracle.operator_solution_space", 10.0, 11.0, 4, 0)
    self_times = tracer.self_times()
    assert self_times == {"bench": 2.0, "verify": 2.0, "casorati": 0.0, "check": 6.0}


def _metric_lines(stdout: str) -> dict[str, tuple[float, str]]:
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            out.setdefault(name, []).append((float(value), unit))
    return out


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    printed = _metric_lines(proc.stdout)
    for metric in spec[section]:
        units = [unit for _, unit in printed[metric["name"]]]
        assert units == [metric["unit"]] * len(WORKLOADS)
    assert [v for v, _ in printed["failed_frac"]] == [0.0] * len(WORKLOADS)
    assert proc.stdout.count("redraws=") == len(WORKLOADS)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
