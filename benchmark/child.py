"""One lexcite process of the benchmark.

    child.py cli REPORT [SPANS] -- ARGS...   run lexcite.cli.main(ARGS)
    child.py setup tagger|none               import lexcite.cli, build state

`cli` writes {"rc", "maxrss_kb"} to REPORT, read with RUSAGE_SELF so that
each process reports its own peak. With SPANS, the tracer is installed
before main() runs; the spans go to SPANS and their summary into REPORT.
The lexcite package is imported from the checkout's src/ directory.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_lexcite():
    sys.path.insert(0, str(ROOT / "src"))
    import lexcite.cli

    if not Path(lexcite.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"lexcite imported from {lexcite.cli.__file__}, not {ROOT / 'src'}")
    return lexcite.cli


def run_cli(report: Path, spans: Path | None, argv: list[str]) -> int:
    cli = _import_lexcite()
    tracer = None
    if spans is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.root("cli.main"):
                rc = cli.main(argv)
    except SystemExit as exc:  # argparse exits on a bad command line
        rc = exc.code if isinstance(exc.code, int) else 2
    result = {"rc": rc,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(spans)
        result["summary"] = tracer.summary()
    report.write_text(json.dumps(result), encoding="utf-8")
    return rc


def setup(state: str) -> None:
    """The fixed start-up work every invocation of a workload pays."""
    _import_lexcite()
    if state == "tagger":
        from lexcite.tagging import LexiconTagger

        LexiconTagger()


def main(args: list[str]) -> int:
    if args[:1] == ["setup"] and len(args) == 2:
        setup(args[1])
        return 0
    if args[:1] == ["cli"] and "--" in args:
        sep = args.index("--")
        head = args[1:sep]
        if len(head) in (1, 2):
            spans = Path(head[1]) if len(head) == 2 else None
            return run_cli(Path(head[0]), spans, args[sep + 1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
