"""Implementation of the ``janus lint`` subcommand.

Kept out of :mod:`repro.cli` so the top-level CLI module stays a thin
dispatcher and the lint surface is importable (and testable) on its own:

- ``janus lint [paths...]`` — run the checker registry, print one line
  per finding, exit 1 when anything is flagged;
- ``--format {text,json,sarif}`` — output shape; ``sarif`` is the
  SARIF 2.1.0 document GitHub code scanning ingests
  (:mod:`repro.analysis.sarif`).  ``--json`` remains as an alias for
  ``--format json``;
- ``--rules a,b`` — restrict to a subset of rules;
- ``--list-rules`` — print the catalog and exit;
- ``--cache [FILE]`` — incremental mode: replay per-file results whose
  content hash is unchanged, rerun the whole-program passes only when
  any file changed (:mod:`repro.analysis.cache`);
- ``--baseline FILE`` / ``--write-baseline FILE`` — gate only findings
  *not* in the baseline document / snapshot the current findings as
  that document;
- ``--wire-spec FILE`` / ``--wire-corpus DIR`` — after linting, extract
  the protocol wire model (:mod:`repro.analysis.wiremodel`) from the
  linted tree's ``core/protocol.py`` and write the spec JSON / fuzz
  seed corpus, so CI publishes both as artifacts of the same run;
- ``--runtime-report [FILE]`` — instead of static analysis, read a
  lock-order report written by :meth:`LockOrderGraph.save` (the test
  fixture writes one when ``JANUS_LOCK_REPORT`` is set) and summarize
  cycles and held-duration outliers; exits 1 when a cycle is present.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from repro.analysis import all_checkers
from repro.analysis.cache import (
    Baseline,
    DEFAULT_CACHE_FILE,
    lint_paths_cached,
)
from repro.analysis.framework import iter_python_files, lint_paths
from repro.analysis.sarif import to_sarif

__all__ = ["add_lint_arguments", "run_lint_command",
           "DEFAULT_RUNTIME_REPORT"]

DEFAULT_RUNTIME_REPORT = ".janus-lock-report.json"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default=None, dest="output_format",
                        help="output shape (default: text)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="alias for --format json")
    parser.add_argument("--rules", default=None, metavar="RULE[,RULE...]",
                        help="run only these rules")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--cache", nargs="?", default=None,
                        const=DEFAULT_CACHE_FILE, metavar="FILE",
                        help="incremental mode: reuse results for files "
                             "whose content hash is unchanged "
                             f"(default file: {DEFAULT_CACHE_FILE})")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="report all findings but fail only on those "
                             "absent from this findings document")
    parser.add_argument("--write-baseline", default=None, metavar="FILE",
                        help="write the current findings as a baseline "
                             "document and exit 0")
    parser.add_argument("--wire-spec", default=None, metavar="FILE",
                        help="also extract the wire model from the linted "
                             "tree's core/protocol.py and write it as JSON")
    parser.add_argument("--wire-corpus", default=None, metavar="DIR",
                        help="also write the wire-model fuzz seed corpus "
                             "into DIR")
    parser.add_argument("--runtime-report", nargs="?", default=None,
                        const=DEFAULT_RUNTIME_REPORT, metavar="FILE",
                        help="summarize a lock-order runtime report "
                             f"(default file: {DEFAULT_RUNTIME_REPORT}) "
                             "instead of running static analysis")


def _find_protocol_module(paths: "list[str]") -> Optional[Path]:
    for candidate in iter_python_files(paths):
        if candidate.name == "protocol.py" and "core" in candidate.parts:
            return candidate
    return None


def _emit_wire_outputs(args: argparse.Namespace) -> int:
    """Handle ``--wire-spec`` / ``--wire-corpus``; returns 0 or 2."""
    from repro.analysis import wiremodel
    from repro.analysis.framework import ModuleSource

    protocol = _find_protocol_module(args.paths)
    if protocol is None:
        print("error: --wire-spec/--wire-corpus need a core/protocol.py "
              "under the linted paths", file=sys.stderr)
        return 2
    module = ModuleSource(str(protocol),
                          protocol.read_text(encoding="utf-8"))
    model = wiremodel.extract_protocol_model(module)
    if args.wire_spec:
        Path(args.wire_spec).write_text(
            json.dumps(model.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"janus lint: wire spec -> {args.wire_spec}",
              file=sys.stderr)
    if args.wire_corpus:
        wiremodel.write_corpus(model, Path(args.wire_corpus))
        seeds = len(wiremodel.build_seed_corpus(model))
        print(f"janus lint: {seeds} corpus seed(s) -> "
              f"{args.wire_corpus}", file=sys.stderr)
    return 0


def run_lint_command(args: argparse.Namespace) -> int:
    if args.list_rules:
        for checker in all_checkers():
            print(f"{checker.rule:<32} {checker.description}")
        return 0
    if args.runtime_report is not None:
        return _runtime_report(args.runtime_report,
                               as_json=_format_of(args) == "json")
    rules = ([part.strip() for part in args.rules.split(",") if part.strip()]
             if args.rules else None)
    try:
        if args.cache is not None:
            result = lint_paths_cached(args.paths, all_checkers(),
                                       rules=rules, cache_file=args.cache)
        else:
            result = lint_paths(args.paths, all_checkers(), rules=rules)
    except ValueError as exc:            # unknown rule name
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        Baseline.write(result, args.write_baseline)
        print(f"janus lint: baseline with {len(result.findings)} "
              f"finding(s) -> {args.write_baseline}", file=sys.stderr)
        return 0

    gating = result.findings
    known: "list" = []
    if args.baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        gating, known = baseline.split(result)

    fmt = _format_of(args)
    if fmt == "json":
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    elif fmt == "sarif":
        print(json.dumps(to_sarif(result, all_checkers()),
                         indent=2, sort_keys=True))
    else:
        for finding in result.findings:
            suffix = ("  (baselined)"
                      if args.baseline and finding not in gating else "")
            print(finding.format() + suffix)
        tail = f" ({len(known)} baselined)" if args.baseline else ""
        print(f"janus lint: {len(result.findings)} finding(s){tail} in "
              f"{result.files_scanned} file(s) "
              f"[{', '.join(result.rules)}]",
              file=sys.stderr)

    if args.wire_spec or args.wire_corpus:
        status = _emit_wire_outputs(args)
        if status:
            return status
    return 0 if not gating else 1


def _format_of(args: argparse.Namespace) -> str:
    if args.output_format:
        return args.output_format
    return "json" if args.as_json else "text"


def _runtime_report(path: str, as_json: bool = False) -> int:
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except FileNotFoundError:
        print(f"error: no runtime report at {path} — run the tests with "
              f"JANUS_LOCK_REPORT={path} (lock_order_graph fixture) first",
              file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not a valid report: {exc}", file=sys.stderr)
        return 2
    cycles = report.get("cycles", [])
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 1 if cycles else 0
    locks = report.get("locks", {})
    print(f"lock-order report: {len(locks)} lock(s), "
          f"{len(report.get('edges', []))} acquisition edge(s)")
    for name, stat in locks.items():
        print(f"  {name:<28} acquisitions={stat.get('acquisitions', 0):<8} "
              f"held max={stat.get('held_max_s', 0.0) * 1e3:.3f}ms "
              f"median={stat.get('held_median_s', 0.0) * 1e3:.3f}ms")
    for outlier in report.get("outliers", []):
        print(f"  OUTLIER {outlier['lock']}: held up to "
              f"{outlier['held_max_s'] * 1e3:.3f}ms vs median "
              f"{outlier['held_median_s'] * 1e3:.3f}ms — something slow "
              f"runs under this lock")
    if cycles:
        for cycle in cycles:
            print(f"  CYCLE: locks {' <-> '.join(cycle)} are acquired in "
                  f"conflicting orders (potential deadlock)")
        return 1
    print("  no acquisition-order cycles detected")
    return 0


def _main(argv: Optional[list] = None) -> int:      # python -m repro.analysis.cli
    parser = argparse.ArgumentParser(
        prog="janus lint", description="janus-lint static analysis")
    add_lint_arguments(parser)
    return run_lint_command(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(_main())
