"""Space tags for the two constant-curvature backgrounds.

The package works on the unit-curvature hyperboloid H3 (upper sheet of
x0^2 - x1^2 - x2^2 - x3^2 = 1 in Minkowski R^{1,3}) and the unit sphere
S3 (y0^2 + y1^2 + y2^2 + y3^2 = 1 in Euclidean R^4).  S3 is H3 with the
geodesic radius continued to chi -> i chi, so a small frozen tag holds
the model and derives from it the constants of that substitution, in
place of a branch per formula:

* ``unit`` is 1 on H3 and i on S3: each S3 formula is the H3 one with
  chi replaced by ``unit * chi``.
* ``sigma = unit**2`` is the sign in the momentum operator
  P_i = -i (delta_ij - sigma q_i q_j) d/dq_j and in the quadric
  c0^2 - sigma |c|^2 = 1: +1 on H3, -1 on S3.
* ``radius(chi) = sinh(unit chi)/unit`` is f of the spherical metric
  diag(1, f^2, f^2 sin^2 th): sinh on H3 and sin on S3.
* ``coupling(e) = e/unit`` is the coupling as the separated equations
  read it: e on H3 and -i e on S3.
* ``chi_max`` bounds chi: 350 on H3, where the parabolic t2 ~ -e^{2 chi}
  would overflow, and pi on S3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = ["Model", "SpaceTag", "H3", "S3", "space_from_name"]


class Model(Enum):
    H3 = "h3"
    S3 = "s3"


@dataclass(frozen=True)
class SpaceTag:
    """The model, and the constants of chi -> i chi derived from it (module docstring)."""

    model: Model

    unit = property(lambda self: 1 if self.model is Model.H3 else 1j)
    sigma = property(lambda self: 1 if self.model is Model.H3 else -1)  # unit**2, as an int
    chi_max = property(lambda self: 350.0 if self.model is Model.H3 else math.pi)
    name = property(lambda self: self.model.value)

    def radius(self, chi):
        """sinh(unit chi)/unit, elementwise: sinh(chi) on H3 and sin(chi) on S3."""
        return np.sinh(chi) if self.model is Model.H3 else np.sin(chi)

    def coupling(self, e):
        """kappa = e/unit: e on H3 and -i e on S3, the coupling of the separated equations and the closed forms."""
        return e / self.unit

    def __repr__(self) -> str:
        return f"SpaceTag({self.model.value})"


H3 = SpaceTag(Model.H3)
S3 = SpaceTag(Model.S3)

_BY_NAME = {"h3": H3, "s3": S3}


def space_from_name(name: str) -> SpaceTag:
    """Look up a space tag from its CLI name ('h3' or 's3')."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(f"unknown space {name!r}, expected 'h3' or 's3'") from None
