"""Run `padicloop.cli` once under the span tracer.

Used by the traced run of the cli_oneshot workload: the CLI's stdout and exit
code are unchanged, and the recorded spans are written to stderr as one JSON
line after MARK.  Needs `src` on PYTHONPATH, like `python -m padicloop.cli`.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402

MARK = "@@perfbench-spans@@ "


def main():
    tracer = Tracer()
    tracer.install()
    from padicloop import cli

    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write(MARK + json.dumps(tracer.dump()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
