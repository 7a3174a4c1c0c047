"""pairdom's CLI under the speed probe.

    python3 perfbench/cli_probed.py <probes.json> verify enum:8 --jobs 2

Runs ``pairdom.cli.main`` with the remaining arguments, then writes the
probes of this process to ``probes.json`` and exits with the CLI's code.
"""

from __future__ import annotations

import json
import sys

import speedprobe

speedprobe.start()

from pairdom import cli  # noqa: E402


def main(argv) -> int:
    try:
        code = cli.main(argv[1:])
    finally:
        speedprobe.stop()
        with open(argv[0], "w") as fh:
            json.dump(speedprobe.samples(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
