"""Every report of the golden corpus equals its frozen file.

The files under ``tests/golden/`` hold the reports of the builtin, example,
CI and edge-case configs listed in ``freeze_golden``, with timings removed.
A change that moves one witness, norm or eigenvalue fails here, and the
failure names the path of the first field that differs.
"""

import json

import pytest

from freeze_golden import NAMES, golden_path, scrubbed_report


def first_difference(got, expected, path="report"):
    """The path of the first field where got and expected differ, or None."""
    if isinstance(got, dict) and isinstance(expected, dict):
        for key in sorted(set(got) | set(expected)):
            if key not in got or key not in expected:
                return f"{path}.{key} ({'missing' if key not in got else 'unexpected'})"
            found = first_difference(got[key], expected[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(got, list) and isinstance(expected, list):
        for i, (g, e) in enumerate(zip(got, expected)):
            found = first_difference(g, e, f"{path}[{i}]")
            if found:
                return found
        if len(got) != len(expected):
            return f"{path} (length {len(got)}, expected {len(expected)})"
        return None
    if got != expected or type(got) is not type(expected):
        return f"{path}: {got!r}, expected {expected!r}"
    return None


def test_first_difference_names_the_field():
    expected = {"checks": [{"name": "criteria", "witness": {"constant": "3/4"}}]}
    got = {"checks": [{"name": "criteria", "witness": {"constant": "-3/4"}}]}
    assert first_difference(got, expected) == (
        "report.checks[0].witness.constant: '-3/4', expected '3/4'"
    )
    assert first_difference(expected, expected) is None
    assert first_difference({"a": [1, 2]}, {"a": [1]}) == "report.a (length 2, expected 1)"
    assert first_difference({"a": True}, {"a": 1}) == "report.a: True, expected 1"
    assert first_difference({}, {"a": 1}) == "report.a (missing)"


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(name):
    expected = json.loads(golden_path(name).read_text())
    difference = first_difference(scrubbed_report(name), expected)
    assert difference is None, f"{golden_path(name).name}: {difference}"
