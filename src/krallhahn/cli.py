"""Command-line entry points.

Three subcommands:

* ``verify``: run one or more JSON config files and optionally write a
  machine-readable report.
* ``demo``: run one of the bundled example configurations by name.
* ``enumerate-couples``: list every third/fourth-set representation of a
  root-factored weight together with the operator half-width each implies.

Exit codes: 0 all requested checks passed, 1 at least one check failed,
2 configuration or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import BUILTIN_CONFIGS, builtin_config, config_from_file
from .errors import ConfigInvalid, KrallHahnError
from .verify import VerificationReport, enumerate_root_couples, run_config, run_many


def _print_report(report: VerificationReport, out) -> None:
    label = report.config.name or "config"
    for check in report.checks:
        verdict = "PASS" if check.passed else "FAIL"
        print(f"{label}: {check.name}: {verdict} ({check.elapsed:.3f}s)", file=out)
        if not check.passed:
            print(f"{label}:   witness: {json.dumps(check.witness)}", file=out)
    tally = sum(1 for c in report.checks if c.passed)
    print(f"{label}: {tally}/{len(report.checks)} checks passed", file=out)


def _probe_report(path: Path) -> None:
    """Fail before any check runs if the report cannot be written."""
    existed = path.exists()
    try:
        path.open("a").close()
    except OSError as exc:
        raise ConfigInvalid(f"cannot write report {path}: {exc}") from exc
    if not existed:
        path.unlink()


def _cmd_verify(args) -> int:
    configs = [config_from_file(path) for path in args.config]
    if args.report:
        _probe_report(Path(args.report))
    reports = run_many(configs)
    for report in reports:
        _print_report(report, sys.stdout)
    if args.report:
        if len(reports) == 1:
            payload = reports[0].to_json_dict()
        else:
            payload = [report.to_json_dict() for report in reports]
        try:
            Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
        except OSError as exc:
            raise ConfigInvalid(f"cannot write report {args.report}: {exc}") from exc
    return 0 if all(report.passed for report in reports) else 1


def _cmd_demo(args) -> int:
    report = run_config(builtin_config(args.name))
    _print_report(report, sys.stdout)
    summary = report.summary
    if "r" in summary:
        print(
            f"{args.name}: half-width r = {summary['r']}, "
            f"support size {summary['support_size']}, "
            f"eigenvalues {', '.join(summary['eigenvalues'][:4])}, ...",
            file=sys.stdout,
        )
    return 0 if report.passed else 1


def _cmd_enumerate(args) -> int:
    try:
        roots = [int(token) for token in args.roots.split(",") if token.strip()]
    except ValueError as exc:
        raise ConfigInvalid(f"--roots must be comma-separated integers: {exc}") from exc
    try:
        couples = enumerate_root_couples(args.N, roots)
    except (ValueError, KrallHahnError) as exc:
        raise ConfigInvalid(str(exc)) from exc
    print(f"N = {args.N}, roots = {sorted(set(roots))}: {len(couples)} couples")
    for rec in couples:
        marks = []
        if rec["minimal"]:
            marks.append("minimal r")
        if rec["within_half"]:
            marks.append("maxima < N/2")
        suffix = f"  <-- {', '.join(marks)}" if marks else ""
        print(
            f"  F3={rec['F3']!r:>18}  F4={rec['F4']!r:>18}  r={rec['r']:>4}  "
            f"sign={rec['sign']:+d}{suffix}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="krallhahn",
        description="Exact verification of determinantal Krall-Hahn constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run JSON config files")
    p_verify.add_argument(
        "--config",
        action="append",
        required=True,
        metavar="FILE",
        help="config file; repeat to verify several in parallel",
    )
    p_verify.add_argument("--report", metavar="FILE", help="write a JSON report here")
    p_verify.set_defaults(handler=_cmd_verify)

    p_demo = sub.add_parser("demo", help="run a bundled example config")
    p_demo.add_argument(
        "--name", required=True, choices=sorted(BUILTIN_CONFIGS), help="example name"
    )
    p_demo.set_defaults(handler=_cmd_demo)

    p_enum = sub.add_parser(
        "enumerate-couples",
        help="list equivalent third/fourth-set representations of a factored weight",
    )
    p_enum.add_argument("--N", type=int, required=True, help="support parameter")
    p_enum.add_argument(
        "--roots", required=True, help="comma-separated roots, e.g. 1,5,68"
    )
    p_enum.set_defaults(handler=_cmd_enumerate)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
