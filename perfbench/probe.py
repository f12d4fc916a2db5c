"""Set-up probe, run in a fresh interpreter by ``run.py``.

Imports the tau2 CLI, reads and parses the workload's input files, then
prints ``ready`` and the CPU seconds this process has used since it
started, interpreter start-up included.

Usage: python3 perfbench/probe.py <src dir> <JSON list of inputs>
"""

import json
import sys
import time


def main(argv):
    sys.path.insert(0, argv[1])
    import tau2.cli  # noqa: F401  (the import is what is being timed)
    from tau2.core import load_presentation
    from tau2.dioph import parse_equations

    for kind, *paths in json.loads(argv[2]):
        if kind == "presentation":
            load_presentation(paths[0])
        elif kind == "equations":
            with open(paths[1], encoding="utf-8") as fh:
                parse_equations(load_presentation(paths[0]), fh.read())
        elif kind == "config":
            with open(paths[0], encoding="utf-8") as fh:
                fh.read()
        else:
            raise ValueError(f"unknown input kind {kind!r}")
    sys.stdout.write(f"ready {time.process_time()!r}\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv)
