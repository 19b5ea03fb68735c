"""Run one ``virialkit`` CLI command with the benchmark's spans installed.

    python3 perfbench/trace_child.py SPANS_OUT <cli arguments...>

Behaves like ``python3 -m virialkit.cli <cli arguments...>`` (same stdout and
exit code) and writes the command's spans and counts to SPANS_OUT as JSON
lines.  The whole command is one op; the import of virialkit happens before
the spans are installed and is timed separately as cli.import_s.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import virialkit.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.counting = True
    tracer.op = 0
    try:
        code = tracer.span("op", virialkit.cli.main, argv)
    finally:
        tracer.uninstall()
        tracer.finish_counts()
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            tracer.write_jsonl(fh)
            fh.write(json.dumps({"counts": tracer.counts, "mc_samples": tracer.mc_samples}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
