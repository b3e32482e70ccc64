"""Write expected/: the stdout of each batch command as ``python -m freelat``
prints it.  Run from the repository root, at a commit whose output is
known to be right:

    python3 perfbench/capture.py

Refuses to write when a command exits with another code than the one
workloads.py expects.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"), PYTHONHASHSEED="0")
    W.EXPECTED.mkdir(exist_ok=True)
    for commands in W.BATCH.values():
        for cmd in commands:
            proc = subprocess.run([sys.executable, "-m", "freelat", *cmd.argv],
                                  env=env, stdout=subprocess.PIPE, check=False)
            if proc.returncode != cmd.exit_code:
                print(f"{' '.join(cmd.argv)}: exit {proc.returncode}, "
                      f"expected {cmd.exit_code}", file=sys.stderr)
                return 1
            (W.EXPECTED / cmd.expected).write_bytes(proc.stdout)
            print(f"wrote expected/{cmd.expected} ({len(proc.stdout)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
