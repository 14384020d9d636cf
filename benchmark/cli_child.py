"""Traced CLI run: install the span wrappers, then call spinlind.cli.main.

    python3 benchmark/cli_child.py SPAN_FILE --config CFG --out DIR

Exits with the CLI's own exit code after writing the spans, the counters and
the import time to SPAN_FILE.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402

import spinlind.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import tracing  # noqa: E402


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = spinlind.cli.main(argv)
    finally:
        tracer.active = False
        tracer.dump(span_file, import_s=IMPORT_S)
    return code


if __name__ == "__main__":
    sys.exit(main())
