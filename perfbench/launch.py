"""Run the rotosense CLI with the benchmark's timing wrappers installed.

Usage: python -X importtime perfbench/launch.py TRACE_OUT.json <cli args...>

Behaves like ``python -m rotosense.cli <cli args...>`` (same stdout, stderr
and exit code) and writes the trace snapshot to TRACE_OUT.json on exit.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import rotosense.cli

    tracer = Tracer()
    tracer.install()
    try:
        return rotosense.cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
