"""Deterministic sample-point generation for verification runs.

All generators take a ``numpy.random.Generator`` so a fixed seed gives
bit-identical point sets across runs and platforms (PCG64 is fully
specified).  Points keep a margin of at least ``SINGULAR_GUARD`` from the
chart singular loci t = 0, t = 1 and t1 = t2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, is_integer
from .geometry import SINGULAR_GUARD, ParabolicPoints, SphericalPoint, _chart_factors, _clearance, pullback_accepts
from .spaces import Model, SpaceTag

# quasi-Cartesian shells stay inside the chart (H3 needs |q| < 1) and
# clear of the q3-axis so phi and the parabolic pair stay smooth.
H3_SHELL = (0.2, 0.8)
S3_SHELL = (0.2, 1.5)
AXIS_CLEARANCE = 0.15


def _box(space: SpaceTag) -> tuple[tuple, tuple]:
    """The low and high (chi, theta, phi) corners of the box that chart and pullback points are drawn from."""
    return (0.15, 0.15, 0.0), (2.5 if space.model is Model.H3 else math.pi - 0.15, math.pi - 0.15, 2.0 * math.pi)


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide PRNG: PCG64 under the given seed."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def _count(n) -> None:
    """Refuse a sample count n that is not a non-negative integer."""
    if not is_integer(n) or n < 0:
        raise ParameterError(f"n must be a non-negative integer, got {n!r}")


def _first_accepted(n: int, size: int, draw) -> list[np.ndarray]:
    """The first n candidates that pass, from whole rounds of ``draw(size)``.

    ``draw`` returns arrays with the candidates on the last axis, then the
    mask of those that pass; n = 0 takes one round of size 0 (no draws).
    """
    rounds, count = [], 0
    while count < n or not rounds:
        *columns, ok = draw(size if n else 0)
        rounds.append([c[..., ok][..., : n - count] for c in columns])
        count += rounds[-1][0].shape[-1]
    return [np.concatenate(parts, axis=-1) for parts in zip(*rounds)]


def factor_samples(
    space: SpaceTag, rng: np.random.Generator, which: int, n: int = 100
) -> np.ndarray:
    """Sample abscissas for one separated-factor ODE check (:func:`~curvedkepler.operators.ode_residual`).

    H3 draws float64 values in the chart ranges (t1 in (0,1), t2 < 0 with
    a logarithmic magnitude spread); S3 draws complex128 values, mixing
    points taken from the physical (chi, theta) parametrization with
    draws from the open disc |t| < 0.9.  No suite calls it (the ``ode``
    suite reads the ``hamiltonian`` stream's chart points); acceptance
    criterion 4 draws with it and the benchmark's tracer binds it by name,
    so it stays until the change that retraces the benchmark.
    """
    if which not in (1, 2):
        raise ParameterError(f"which must be 1 or 2, got {which}")
    _count(n)
    if space.model is Model.H3:
        if which == 1:
            return rng.uniform(2.0 * SINGULAR_GUARD, 1.0 - 2.0 * SINGULAR_GUARD, n)
        return -(10.0 ** rng.uniform(-2.5, 0.7, n))

    def guarded(t):
        return t, (np.abs(t) >= SINGULAR_GUARD) & (np.abs(1.0 - t) >= SINGULAR_GUARD)

    def physical(size):
        chi = rng.uniform(0.1, math.pi - 0.1, size)
        theta = rng.uniform(0.1, math.pi - 0.1, size)
        a, u = _chart_factors(space, chi, theta)
        return guarded(a[which - 1] * u[which - 1])

    def disc(size):
        radius = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, size))
        return guarded(radius * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size)))

    near = _first_accepted(n - n // 2, 2 * n, physical)
    return np.concatenate(near + _first_accepted(n // 2, 2 * n, disc))


def chart_points(
    space: SpaceTag, rng: np.random.Generator, n: int = 200
) -> ParabolicPoints:
    """A batch of n random non-singular chart points from (chi, theta, phi), drawn one coordinate at a time.

    The box lies inside the chart: the draws take its factors unchecked, and one batch checks the points kept."""
    _count(n)
    low, high = _box(space)

    def draw(size):
        chi, theta, phi = (rng.uniform(lo, hi, size) for lo, hi in zip(low, high))
        (a1, a2), (u1, u2) = _chart_factors(space, chi, theta)
        t1, t2 = a1 * u1, a2 * u2
        return t1, t2, phi, _clearance(t1, t2) >= SINGULAR_GUARD

    return ParabolicPoints(*_first_accepted(n, 2 * n, draw))


def pullback_points(space: SpaceTag, rng: np.random.Generator, n: int) -> SphericalPoint:
    """n points of the chart-point box that :func:`~curvedkepler.geometry.pullback_accepts` keeps, at phi = 0.

    Each candidate takes three draws (chi, theta, phi) of the stream, one
    row of a (size, 3) block; phi does not enter the metric.
    """
    _count(n)
    low, high = _box(space)

    def draw(size):
        chi, theta, _ = rng.uniform(low, high, (size, 3)).T
        return chi, theta, pullback_accepts(space, SphericalPoint(chi, theta, 0.0))

    return SphericalPoint(*_first_accepted(n, 2 * n, draw), 0.0)


def quasi_points(
    space: SpaceTag, rng: np.random.Generator, n: int = 50
) -> np.ndarray:
    """Quasi-Cartesian sample columns (3, n) on a radial shell.

    Radii are uniform on the space's shell; directions uniform on the
    sphere, rejected whenever the cylinder radius around the q3-axis is
    below the clearance needed by finite-difference stencils.
    """
    _count(n)
    lo, hi = H3_SHELL if space.model is Model.H3 else S3_SHELL

    def draw(size):
        vec = rng.standard_normal((3, size))
        vec /= np.sqrt((vec * vec).sum(axis=0))
        Q = vec * rng.uniform(lo, hi, size)
        return Q, np.sqrt(Q[0] ** 2 + Q[1] ** 2) >= AXIS_CLEARANCE

    return _first_accepted(n, 2 * n, draw)[0]
