"""Set-up step run in its own process: a list of segfuse CLI commands.

Usage: python3 perfbench/setup_child.py '[["synth", ...], ["select-policy", ...]]'

Running set-up apart from the measuring process keeps its memory out of
the peak measured while the ops run.  The last stdout line is the child's
own peak RSS as JSON.  Exits with the first nonzero command status.
An empty list measures program start-up alone.
"""

import json
import sys


def peak_rss_mb() -> float:
    """High-water RSS of this process's own address space (VmHWM), in MB.

    ``getrusage`` would not do: its ``ru_maxrss`` survives exec, so a child
    would report at least its parent's RSS at the time of the fork.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("VmHWM missing from /proc/self/status")


if __name__ == "__main__":
    from segfuse import cli

    for argv in json.loads(sys.argv[1]):
        rc = cli.main(argv)
        if rc:
            sys.exit(rc)
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}))
