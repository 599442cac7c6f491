"""Set-up probe, run in a fresh process: import ``wfsim.cli``, then parse a
workload config and build its rule and context (rule, interior
equilibrium, least-fit set).

Prints one JSON line with the import time and the import-plus-set-up
time, both measured from the first statement, before any wfsim import.

    PYTHONPATH=src python3 perfbench/probe.py CONFIG.json
"""

import json
import sys
import time

started = time.perf_counter()
import wfsim.cli  # noqa: E402,F401  (the import being timed)

imported = time.perf_counter()

from wfsim.extinction import ExperimentSpec, least_fit  # noqa: E402
from wfsim.fitness import make_rule  # noqa: E402
from wfsim.meanfield import solve_interior_equilibrium  # noqa: E402

with open(sys.argv[1]) as fh:
    cfg = json.load(fh)
if "initials" in cfg:
    rule = ExperimentSpec.from_config(cfg).build_rule()
else:
    rule = make_rule(cfg["matrix"], omega=cfg["omega"])
equilibrium = solve_interior_equilibrium(cfg["matrix"]).vector
least_fit(rule, equilibrium)
done = time.perf_counter()
print(json.dumps({"import_s": imported - started, "setup_s": done - started}))
