"""Set-up probe: what a fresh `nonholo` command pays before it does any work.

Run from the repository root as `python3 perfbench/setup_probe.py <workload>`:
imports the CLI (and with it the whole package), then parses and compiles
the workload's systems and observables. run.py times this process from spawn
to exit.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import nonholo.cli  # noqa: E402,F401  (the import a CLI command pays)
import workloads  # noqa: E402

workloads.setup_objects(sys.argv[1])
