"""Command-line profile tooling: ``python -m repro.obs report|diff``.

``report`` analyzes a trace or profile JSON file and prints the critical
path with blocked-time attribution; ``diff`` compares two profile
reports (any mix of Chrome trace exports, bare profile dicts, or BENCH
payloads carrying a ``profile`` section) and exits non-zero when a
critical-path metric regressed beyond the tolerance, so a script can use
it as a gate.  No CI step runs it, and no baseline profile is checked in
for one; the committed reference profiles are the test goldens under
``tests/obs/golden/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from .profile import (
    ProfileReport,
    describe_diff,
    diff_profiles,
    resolve_profile,
)


def _load(path: str) -> dict[str, Any]:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot load {path}: {exc}")


def _profile_or_die(path: str, epochs: int | None = None) -> dict[str, Any]:
    document = _load(path)
    if "traceEvents" in document and not (
        (document.get("otherData") or {}).get("channels")
    ):
        # Older exports (and third-party Chrome traces) carry no embedded
        # channel metadata; producer/unblocker pairing then falls back to
        # timestamp bisection, which is approximate for latency channels.
        print(
            f"warning: {path} has no embedded channel metadata "
            "(otherData.channels); critical-path attribution falls back "
            "to timestamp bisection and may be approximate",
            file=sys.stderr,
        )
    if epochs is not None and "traceEvents" in document:
        from .profile import events_from_chrome_trace, profile_trace

        events, channels = events_from_chrome_trace(document)
        if events:
            return profile_trace(
                events, channel_meta=channels, epochs=epochs
            ).to_dict()
    profile = resolve_profile(document)
    if profile is None:
        raise SystemExit(
            f"error: {path} holds neither a trace export, a profile "
            "report, nor a BENCH payload with a profile section"
        )
    return profile


def _cmd_report(ns: argparse.Namespace) -> int:
    profile = _profile_or_die(ns.trace, epochs=ns.epochs)
    if ns.json:
        print(json.dumps(profile, indent=2, sort_keys=True, default=str))
    else:
        print(ProfileReport.from_dict(profile).describe())
    return 0


def _cmd_diff(ns: argparse.Namespace) -> int:
    base = _profile_or_die(ns.base)
    other = _profile_or_die(ns.other)
    diff = diff_profiles(base, other, tolerance=ns.tolerance)
    if ns.json:
        print(json.dumps(diff, indent=2, sort_keys=True, default=str))
    else:
        print(describe_diff(diff))
    return 0 if diff["ok"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Profile reporting and run diffing over exported traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="print the critical path of a trace/profile JSON"
    )
    report.add_argument("trace", help="Chrome trace export or profile JSON")
    report.add_argument(
        "--epochs",
        type=int,
        default=None,
        help="utilization timeline bins (recomputes from trace events)",
    )
    report.add_argument("--json", action="store_true", help="emit raw JSON")
    report.set_defaults(func=_cmd_report)

    diff = sub.add_parser(
        "diff", help="compare two profile reports; exit 1 on regression"
    )
    diff.add_argument("base", help="baseline trace/profile JSON")
    diff.add_argument("other", help="candidate trace/profile JSON")
    diff.add_argument(
        "--tolerance",
        type=float,
        default=3.0,
        help="regression threshold as a multiple of the baseline (default 3.0)",
    )
    diff.add_argument("--json", action="store_true", help="emit raw JSON")
    diff.set_defaults(func=_cmd_diff)

    ns = parser.parse_args(argv)
    return ns.func(ns)


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # e.g. piped into `head`
        code = 0
    sys.exit(code)
