"""Random inputs shared by the unit tests: face values uniform on the square
[-1, 1]^2, away from 0, and the weight matrix they make on SIMPLEX.  Unlike
pachner33.weights' disc draws, these are the tests' own, so a change to the
program's draws leaves every expected value here as it is."""

from __future__ import annotations

from pachner33.simplicial import Cochain, faces
from pachner33.weights import WeightMatrix

SIMPLEX = (1, 2, 3, 4, 5)


def random_phi(rng, min_abs=0.05):
    vals = {}
    for s in faces(SIMPLEX, 2):
        z = 0.0
        while abs(z) < min_abs:
            z = complex(*rng.uniform(-1, 1, size=2))
        vals[s] = z
    return Cochain(SIMPLEX, 2, vals)


def random_wm(rng):
    return WeightMatrix.from_phi(SIMPLEX, random_phi(rng))
