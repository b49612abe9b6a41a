"""Run a command and fail if its peak resident set exceeds a cap.

Usage::

    python benchmarks/micro/check_maxrss.py --max-mb 150 -- \\
        python -m repro.bench fig5 --nodes 48 --quick --reps 1

The peak is the child's ``ru_maxrss`` from ``resource.getrusage``
(KiB on Linux), reported in MB (10**6 bytes).  Exit status: the
command's own when it fails, 1 when it succeeds above the cap, else 0.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    returncode = subprocess.run(command).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
    print(f"peak RSS {peak_mb:.1f} MB (cap {args.max_mb:g} MB)")
    if returncode:
        return returncode
    return 1 if peak_mb > args.max_mb else 0


if __name__ == "__main__":
    sys.exit(main())
