"""Run one multigrank CLI command with perfbench's wrappers installed.

    python3 perfbench/traced_cli.py SPANS_FILE COMMAND [ARGS...]

Times the fresh ``import multigrank.cli`` (cli.import_s), wraps every traced
call site, runs ``multigrank.cli.main`` as one span and writes the spans to
SPANS_FILE.  The exit code is the command's.
"""

from __future__ import annotations

import sys
import time

from tracing import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import multigrank.cli as cli

    tracer = Tracer()
    tracer.import_s = time.perf_counter() - t0
    tracer.install()
    tracer.op = argv[0]
    try:
        main_span = tracer.span("cli.main", cli.main, lambda a, k, r: {"cmd": argv[0]})
        return main_span(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
