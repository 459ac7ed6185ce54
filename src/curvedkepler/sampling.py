"""Deterministic sample-point generation for verification runs.

All generators take a ``numpy.random.Generator`` so a fixed seed gives
bit-identical point sets across runs and platforms (PCG64 is fully
specified).  Points keep a margin of at least ``GUARD`` from the chart
singular loci t = 0, t = 1 and t1 = t2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .geometry import ParabolicPoints, spherical_to_parabolic
from .spaces import Model, SpaceTag

GUARD = 1e-3

# quasi-Cartesian shells stay inside the chart (H3 needs |q| < 1) and
# clear of the q3-axis so phi and the parabolic pair stay smooth.
H3_SHELL = (0.2, 0.8)
S3_SHELL = (0.2, 1.5)
AXIS_CLEARANCE = 0.15


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide PRNG: PCG64 under the given seed."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def factor_samples(
    space: SpaceTag, rng: np.random.Generator, which: int, n: int = 100
) -> np.ndarray:
    """Complex sample abscissas for one separated-factor ODE check.

    H3 draws real values in the chart ranges (t1 in (0,1), t2 < 0 with a
    logarithmic magnitude spread); S3 mixes points taken from the
    physical (chi, theta) parametrization with draws from the open disc
    |t| < 0.9.
    """
    if which not in (1, 2):
        raise ParameterError(f"which must be 1 or 2, got {which}")
    if space.model is Model.H3:
        if which == 1:
            return rng.uniform(2.0 * GUARD, 1.0 - 2.0 * GUARD, n).astype(complex)
        return (-(10.0 ** rng.uniform(-2.5, 0.7, n))).astype(complex)

    out: list[complex] = []
    want_physical = n - n // 2
    while len(out) < want_physical:
        chi = rng.uniform(0.1, math.pi - 0.1, 2 * n)
        theta = rng.uniform(0.1, math.pi - 0.1, 2 * n)
        pts = spherical_to_parabolic(space, (chi, theta, 0.0))
        t = pts.t1 if which == 1 else pts.t2
        good = t[(np.abs(t) >= GUARD) & (np.abs(1.0 - t) >= GUARD)]
        out.extend(good[: want_physical - len(out)])
    while len(out) < n:
        radius = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 2 * n))
        angle = rng.uniform(0.0, 2.0 * math.pi, 2 * n)
        t = radius * np.exp(1j * angle)
        good = t[(np.abs(t) >= GUARD) & (np.abs(1.0 - t) >= GUARD)]
        out.extend(good[: n - len(out)])
    return np.asarray(out, dtype=complex)


def chart_points(
    space: SpaceTag, rng: np.random.Generator, n: int = 200
) -> ParabolicPoints:
    """A batch of n random non-singular chart points from (chi, theta, phi)."""
    chi_hi = 2.5 if space.model is Model.H3 else math.pi - 0.15
    t1, t2, phi = [], [], []
    count = 0
    while True:
        pts = spherical_to_parabolic(
            space,
            (
                rng.uniform(0.15, chi_hi, 2 * n),
                rng.uniform(0.15, math.pi - 0.15, 2 * n),
                rng.uniform(0.0, 2.0 * math.pi, 2 * n),
            ),
        )
        take = np.flatnonzero(pts.clearance() >= GUARD)[: n - count]
        t1.append(pts.t1[take])
        t2.append(pts.t2[take])
        phi.append(pts.phi[take])
        count += take.size
        if count >= n:
            return ParabolicPoints(np.concatenate(t1), np.concatenate(t2), np.concatenate(phi))


def quasi_points(
    space: SpaceTag, rng: np.random.Generator, n: int = 50
) -> np.ndarray:
    """Quasi-Cartesian sample columns (3, n) on a radial shell.

    Radii are uniform on the space's shell; directions uniform on the
    sphere, rejected whenever the cylinder radius around the q3-axis is
    below the clearance needed by finite-difference stencils.
    """
    lo, hi = H3_SHELL if space.model is Model.H3 else S3_SHELL
    cols: list[np.ndarray] = []
    while len(cols) < n:
        vec = rng.standard_normal((3, 2 * n))
        vec /= np.sqrt((vec * vec).sum(axis=0))
        radius = rng.uniform(lo, hi, 2 * n)
        Q = vec * radius
        good = np.sqrt(Q[0] ** 2 + Q[1] ** 2) >= AXIS_CLEARANCE
        for col in Q[:, good].T:
            if len(cols) >= n:
                break
            cols.append(col)
    return np.stack(cols, axis=1)
