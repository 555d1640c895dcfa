"""Run one `varikon` command with the tracer installed.

Usage, from the repository root with `src` on PYTHONPATH:

    python3 benchmark/cli_child.py solve --random --seed 3 --method a6

The command's stdout and exit code are those of `python -m varikon`.
After the command, the tracer's counters are written to stderr as one
JSON line after MARKER.
"""

import json
import sys

from tracer import Tracer

MARKER = "@@varikon-trace "


def main() -> int:
    tracer = Tracer()
    tracer.install()
    from varikon import cli

    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code
    sys.stdout.flush()
    print(MARKER + json.dumps(tracer.snapshot()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
