"""The golden report corpus, and the script that freezes it.

Each config of the corpus (the builtins, ``demos/examples/*.json`` and
``tests/golden/configs/*.json``) has one file ``tests/golden/<name>.json``:
the report that ``krallhahn verify --config ... --report`` writes for it,
with every ``elapsed`` field removed and the keys sorted.  ``test_golden.py`` runs each
config in-process and compares its report with the file field by field.

    PYTHONPATH=src python tests/freeze_golden.py

rewrites every file from the current tree.  Refreeze only when an output is
meant to change, and name each changed field where the change is recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from krallhahn.config import BUILTIN_CONFIGS, builtin_config, config_from_file
from krallhahn.verify import run_config

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

EXAMPLES = sorted((ROOT / "demos" / "examples").glob("*.json"))
# golden/configs holds the configs that CI's console-script steps read, and two
# that no unit test reads in full: the a = b corollary config and a draw whose
# Casorati determinant vanishes at n = 6 (it builds, then fails 3 of its 9 checks)
FILES = {
    **{f"example-{path.stem}": path for path in EXAMPLES},
    **{path.stem: path for path in sorted((GOLDEN / "configs").glob("*.json"))},
}
NAMES = [*BUILTIN_CONFIGS, *FILES]


def config(name: str):
    if name in BUILTIN_CONFIGS:
        return builtin_config(name)
    return config_from_file(FILES[name])


def scrub(payload):
    """The payload without its ``elapsed`` fields."""
    if isinstance(payload, dict):
        return {k: scrub(v) for k, v in payload.items() if k != "elapsed"}
    if isinstance(payload, list):
        return [scrub(v) for v in payload]
    return payload


def scrubbed_report(name: str):
    """The config's report as the CLI writes it (through JSON), less timings."""
    return scrub(json.loads(json.dumps(run_config(config(name)).to_json_dict())))


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.json"


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for name in NAMES:
        text = json.dumps(scrubbed_report(name), indent=2, sort_keys=True) + "\n"
        golden_path(name).write_text(text)
        print(golden_path(name).relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
