"""Run one xrank CLI command with the tracer installed.

    python3 perfbench/cli_child.py TRACE_FILE OP_ID COMMAND --in DOC ...

Behaves like `python -m xrank.cli COMMAND ...` and, on exit, writes the
tracer's stats and records for this op to TRACE_FILE as JSON.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import xrank.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def main():
    trace_file, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.op = op_id
    tracer.install()
    try:
        return xrank.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_file, "w") as fh:
            json.dump({"stats": tracer.stats(),
                       "records": list(tracer.records())}, fh)


if __name__ == "__main__":
    sys.exit(main())
