"""Pin BLAS to one thread for the test run, before any test module imports numpy.

The companion-matrix eigensolver's speed and its last bits depend on the BLAS
thread count: on a loaded 2-core host the N = 1000 solves took about ten times
longer with two threads than with one, and roots at N = 400 differ in their
trailing bits between the two counts.  A count the environment already sets is
kept.  Neither the hypothesis nor the pytest-benchmark plugin imports numpy
before this file runs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
