"""Grassmann-Berezin weights on 4-simplices and the three-for-three trade
of simplices around a 2-face.

The modules build on each other roughly in this order: grassmann (finite
anticommuting algebra), simplicial (faces and cochains), operators (first
order operators and subspace tools), weights (Gaussian weights of skew
matrices), edgeops (annihilating edge operators and the induced cocycle),
cocycle2weight (the reverse direction), elliptic (a concrete parameterized
family), pachner (the six-simplex scene), cli (command line entry point).
"""

import os

# The program's matrices are small: several BLAS threads cost far more CPU
# than one and save no time.  Set before numpy loads; a value set by the
# user still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
