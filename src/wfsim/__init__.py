"""Simulation and numerical-analysis toolkit for multinomial resampling
dynamics with fitness-weighted updates.

The package covers the full pipeline: the simplex state space and its
count lattices (:mod:`wfsim.simplex`), fitness landscapes and the
expected-update map (:mod:`wfsim.fitness`), deterministic orbits,
equilibria, and stability diagnostics (:mod:`wfsim.meanfield`), the
finite-population resampling chain with exact small-scale analysis
(:mod:`wfsim.chain`), the Gaussian linearization around the orbit
(:mod:`wfsim.gaussian`), decoupling-time concentration bounds
(:mod:`wfsim.deviation`), metastability and extinction-route ensembles
(:mod:`wfsim.extinction`), and a reproducible command-line front end
(:mod:`wfsim.cli`).

Public names come from their submodules, for example
``from wfsim.fitness import make_rule``: importing the package alone loads
no numpy, so ``wf`` can choose OpenBLAS's thread count before numpy starts.
"""

__version__ = "0.1.0"
