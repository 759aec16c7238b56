"""One fresh-interpreter set-up: import the CLI and answer the warm-up requests.

Reads a JSON list of argv lists on stdin; exits 0 only if every request
returned 0.  run.py times this process from spawn to exit.
"""

import io
import json
import sys


def main() -> int:
    requests = json.load(sys.stdin)
    from ntbounds import cli

    saved = sys.stdout, sys.stderr
    codes = []
    for argv in requests:
        sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        sys.stderr = io.StringIO()
        try:
            codes.append(cli.main(argv))
        finally:
            sys.stdout, sys.stderr = saved
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
