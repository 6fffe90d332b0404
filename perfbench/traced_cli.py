"""The multmap command line with its layers traced.

    python3 traced_cli.py TRACE_FILE ARGS...

Behaves like `python3 -m multmap ARGS...`, and writes the span totals and the
time the import of the package took to TRACE_FILE as JSON.
"""

import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
import multmap.cli  # noqa: E402

import_s = perf_counter() - t0

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    trace_file = Path(sys.argv[1])
    tracer = Tracer()
    install(tracer)
    tracer.add("cli.import_s", import_s)
    tracer.enabled = True
    try:
        return multmap.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        trace_file.write_text(tracer.dump())


if __name__ == "__main__":
    sys.exit(main())
