"""Run one fibrank CLI command with the perfbench tracer installed.

    PYTHONPATH=src python perfbench/traced_cli.py density 2 --depth 20000 --json

Standard output is the command's own output, byte for byte.  The trace
summary goes to standard error as one line starting "perfbench-trace ".
"""

import json
import sys

import tracing
from workloads import TRACE_MARK


def main() -> int:
    tracer = tracing.install()
    from fibrank import cli

    rc = cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps(tracer.summary()), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
