"""Run configurations: parsing, validation, and the bundled examples.

A configuration is a JSON object with rationals written as strings so that
exactness survives serialization:

    {"a": "1/2", "b": "1/3", "N": 8, "F": [[], [], [], [1]],
     "h": [1, 1, 1], "path": "corollary", "checks": ["all"]}

``F`` lists the four root sets.  ``h`` (optional) gives the three block
paddings of the direct construction; on the corollary path it is determined
by ``F`` and may only be supplied redundantly.  ``name`` (optional) is a
string that labels the report; when it is absent or null, a config file is
named by its stem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ConfigInvalid
from .rationals import as_rational, format_rational
from .sets import SetQuartet, default_pads

CHECK_NAMES = (
    "omega-nonvanishing",
    "hypotheses",
    "degree-leading",
    "genre",
    "eigen-equation",
    "orthogonality",
    "support",
    "criteria",
    "oracle",
)

PATHS = ("theorem", "corollary")


@dataclass(frozen=True)
class ConstructionConfig:
    """Validated inputs for one verification run."""

    a: Fraction
    b: Fraction
    N: int
    quartet: SetQuartet
    pads: tuple[int, int, int] | None = None
    path: str = "corollary"
    checks: tuple[str, ...] = ("all",)
    n_max: int | None = None
    name: str = ""

    def resolved_checks(self) -> tuple[str, ...]:
        if "all" in self.checks:
            return CHECK_NAMES
        return self.checks

    def to_dict(self) -> dict:
        out = {
            "a": format_rational(self.a),
            "b": format_rational(self.b),
            "N": self.N,
            "F": [list(s) for s in self.quartet.sets],
            "path": self.path,
            "checks": list(self.checks),
        }
        if self.pads is not None:
            out["h"] = list(self.pads)
        if self.n_max is not None:
            out["n_max"] = self.n_max
        if self.name:
            out["name"] = self.name
        return out


def _parse_rational(data: dict, key: str) -> Fraction:
    if key not in data:
        raise ConfigInvalid(f"missing field '{key}'")
    raw = data[key]
    if not isinstance(raw, (str, int)):
        raise ConfigInvalid(f"field '{key}' must be a rational string, got {raw!r}")
    try:
        return as_rational(raw)
    except ZeroDivisionError as exc:
        raise ConfigInvalid(f"field '{key}': zero denominator in {raw!r}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigInvalid(f"field '{key}': {exc}") from exc


def config_from_dict(data: dict, name: str = "") -> ConstructionConfig:
    """Build a configuration from parsed JSON, naming the violated constraint."""
    if not isinstance(data, dict):
        raise ConfigInvalid("configuration must be a JSON object")
    known = {"a", "b", "N", "F", "h", "path", "checks", "n_max", "name"}
    unknown = set(data) - known
    if unknown:
        raise ConfigInvalid(f"unknown fields: {sorted(unknown)}")
    a = _parse_rational(data, "a")
    b = _parse_rational(data, "b")
    n_value = data.get("N")
    if not isinstance(n_value, int) or isinstance(n_value, bool) or n_value < 1:
        raise ConfigInvalid(f"field 'N' must be a positive integer, got {n_value!r}")
    raw_sets = data.get("F")
    if (
        not isinstance(raw_sets, list)
        or len(raw_sets) != 4
        or not all(isinstance(s, list) for s in raw_sets)
    ):
        raise ConfigInvalid("field 'F' must be a list of four integer lists")
    for fset in raw_sets:
        for v in fset:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigInvalid(f"field 'F': set elements must be integers, got {v!r}")
    try:
        quartet = SetQuartet.of(*raw_sets)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"field 'F': {exc}") from exc
    pads = None
    if "h" in data and data["h"] is not None:
        raw_pads = data["h"]
        if (
            not isinstance(raw_pads, list)
            or len(raw_pads) != 3
            or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in raw_pads)
        ):
            raise ConfigInvalid("field 'h' must be a list of three integers >= 1")
        pads = tuple(raw_pads)
    path = data.get("path", "corollary")
    if path not in PATHS:
        raise ConfigInvalid(f"field 'path' must be one of {PATHS}, got {path!r}")
    checks = data.get("checks", ["all"])
    if not isinstance(checks, list) or not checks:
        raise ConfigInvalid("field 'checks' must be a nonempty list of check names")
    for i, check in enumerate(checks):
        if check != "all" and check not in CHECK_NAMES:
            raise ConfigInvalid(
                f"unknown check {check!r}; valid names: {('all',) + CHECK_NAMES}"
            )
        if check in checks[:i]:
            raise ConfigInvalid(f"field 'checks' names {check!r} twice")
    n_max = data.get("n_max")
    if n_max is not None and (not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 0):
        raise ConfigInvalid(f"field 'n_max' must be a nonnegative integer, got {n_max!r}")
    label = data.get("name")
    if label is None:
        label = name
    elif not isinstance(label, str):
        raise ConfigInvalid(f"field 'name' must be a string, got {label!r}")
    if path == "corollary" and pads is not None:
        derived = default_pads(quartet)
        if pads != derived:
            raise ConfigInvalid(
                f"field 'h' is determined by F on the corollary path "
                f"(expected {list(derived)}, got {list(pads)})"
            )
    return ConstructionConfig(
        a=a,
        b=b,
        N=n_value,
        quartet=quartet,
        pads=pads,
        path=path,
        checks=tuple(checks),
        n_max=n_max,
        name=label,
    )


def config_from_file(path: str | Path) -> ConstructionConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(data, name=path.stem)


BUILTIN_CONFIGS: dict[str, dict] = {
    # one removed mass point: the smallest construction with a genuine m >= 1
    "single-root": {
        "a": "1/2",
        "b": "1/3",
        "N": 8,
        "F": [[], [], [], [1]],
        "path": "corollary",
        "checks": ["all"],
    },
    # same input run through the direct construction instead
    "single-root-direct": {
        "a": "1/2",
        "b": "1/3",
        "N": 8,
        "F": [[], [], [], [1]],
        "h": [1, 1, 1],
        "path": "theorem",
        "checks": ["all"],
    },
    # one root in every position: a 4-row determinant, operator order 10
    "four-roots": {
        "a": "1/2",
        "b": "1/3",
        "N": 8,
        "F": [[1], [1], [1], [1]],
        "path": "corollary",
        "checks": ["all"],
    },
    # no roots at all: the construction collapses to the classical family
    "classical": {
        "a": "1/2",
        "b": "1/3",
        "N": 8,
        "F": [[], [], [], []],
        "path": "theorem",
        "checks": ["all"],
    },
}


def builtin_config(name: str) -> ConstructionConfig:
    if name not in BUILTIN_CONFIGS:
        raise ConfigInvalid(
            f"no builtin config {name!r}; available: {sorted(BUILTIN_CONFIGS)}"
        )
    return config_from_dict(dict(BUILTIN_CONFIGS[name]), name=name)
