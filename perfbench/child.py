"""Run one bitorsor-kit command in a fresh interpreter, as a CLI user does.

    python3 perfbench/child.py INFO SPANS -- <bitorsor-kit arguments>

Writes {"ready": <perf_counter after importing the CLI>} to INFO (the clock
is system-wide, so the parent can subtract its spawn time).  When SPANS is
not empty the command runs traced and the spans are written to SPANS.
Exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bitorsor_kit import cli  # noqa: E402

READY = time.perf_counter()


def main() -> int:
    info, spans, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py INFO SPANS -- ARGS...")
    if spans:
        sys.path.insert(0, str(HERE))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            rc = cli.main(argv)
        finally:
            tracer.uninstall()
            tracer.dump(Path(spans))
    else:
        rc = cli.main(argv)
    sys.stdout.flush()
    Path(info).write_text(json.dumps({"ready": READY}))
    return rc


if __name__ == "__main__":
    sys.exit(main())
