"""Freeze the exact-output digests of the default-seed op streams.

    python3 bench/freeze_digests.py

Runs every op of every workload's default-seed stream, refuses to freeze an
op whose checks fail, and writes bench/digests.json.  Rerun only when a change
is meant to alter the outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

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


def main() -> int:
    frozen: dict[str, dict[str, str]] = {}
    for name, workload in WORKLOADS.items():
        lib = load_library()
        ops, _ = generate_ops(workload, DEFAULT_SEED, workload.ops, make_validator(lib))
        lib = load_library()
        frozen[name] = {}
        for op in ops:
            cfg = lib.config.config_from_dict(op)
            report = lib.verify.run_config(cfg)
            if not report.passed:
                print(f"refusing to freeze {name}: {op_key(op)} fails", file=sys.stderr)
                return 1
            frozen[name][op_key(op)] = op_digest(lib, workload, cfg, report)
        print(f"{name}: {len(ops)} digests")
    DIGESTS.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
