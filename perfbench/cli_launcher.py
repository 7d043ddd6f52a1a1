"""Run one eqpush CLI request with layer spans, for the traced cli-requests run.

    python3 cli_launcher.py SPANS_FILE pushforward --space ... --f ...

Behaves like `python -m eqpush.cli ARGS` (same output, exit code and
tracebacks) and writes the request's spans and counters to SPANS_FILE.
"""

import sys
import time


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import eqpush.cli
    import_s = time.perf_counter() - start
    import tracing
    tracer = tracing.Tracer().install()
    tracer.counters["cli.import_s"] = import_s
    try:
        return eqpush.cli.main(argv)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
