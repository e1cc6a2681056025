"""Traced stand-in for ``python -m vdwdim.cli``.

    python3 -X importtime perfbench/cli_launch.py SPANS_OUT -- CLI_ARGS...

Run with ``PYTHONPATH`` naming the checkout's ``src``.  Imports the CLI,
installs the tracer's wrappers, runs ``vdwdim.cli.main(argv)`` and writes
the spans to SPANS_OUT even when the CLI raises, so the traceback and exit
status match an untraced run.
"""

import json
import sys
import time

START = time.perf_counter()

from tracer import Tracer, install  # noqa: E402


def main():
    spans_out, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: cli_launch.py SPANS_OUT -- CLI_ARGS...")
    tracer = Tracer()
    frame = tracer.enter("cli.import")
    import vdwdim.cli

    install(tracer)
    tracer.exit(frame)
    try:
        return vdwdim.cli.main(argv)
    finally:
        data = tracer.dump()
        data["start"] = START
        data["end"] = time.perf_counter()
        with open(spans_out, "w") as fh:
            json.dump(data, fh)


if __name__ == "__main__":
    sys.exit(main())
