"""Set-up probe: a fresh interpreter imports the CLI, runs the tiny calls
that fill its lazy caches, and prints ``ready``.

Usage: python3 probe.py <src dir> <JSON file holding a list of argv lists>
"""

import json
import sys
from pathlib import Path


def main() -> int:
    src, calls_file = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from tourlim import cli

    for argv in json.loads(Path(calls_file).read_text()):
        if cli.main(argv) != 0:
            print("failed", flush=True)
            return 1
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
