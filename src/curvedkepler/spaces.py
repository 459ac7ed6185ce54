"""Space tags for the two constant-curvature backgrounds.

The package works on the unit-curvature hyperboloid H3 (upper sheet of
x0^2 - x1^2 - x2^2 - x3^2 = 1 in Minkowski R^{1,3}) and the unit sphere
S3 (y0^2 + y1^2 + y2^2 + y3^2 = 1 in Euclidean R^4).  Formulas for the
two spaces differ only by systematic sign and phase substitutions, so a
small frozen tag carries those signs instead of duplicating code:

* ``sigma`` is the sign in the momentum operator
  P_i = -i (delta_ij - sigma q_i q_j) d/dq_j: +1 on H3, -1 on S3.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["Model", "SpaceTag", "H3", "S3", "space_from_name"]


class Model(Enum):
    H3 = "h3"
    S3 = "s3"


@dataclass(frozen=True)
class SpaceTag:
    model: Model
    sigma: int

    def __post_init__(self) -> None:
        # sigma = +1 iff the model is H3; the pair is redundant on purpose.
        if (self.sigma == 1) != (self.model is Model.H3):
            raise ValueError("sigma must be +1 exactly for H3")
        if self.sigma not in (-1, 1):
            raise ValueError("sigma must be +1 or -1")

    @property
    def name(self) -> str:
        return self.model.value

    def __repr__(self) -> str:
        return f"SpaceTag({self.model.value})"


H3 = SpaceTag(Model.H3, +1)
S3 = SpaceTag(Model.S3, -1)

_BY_NAME = {"h3": H3, "s3": S3}


def space_from_name(name: str) -> SpaceTag:
    """Look up a space tag from its CLI name ('h3' or 's3')."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(f"unknown space {name!r}, expected 'h3' or 's3'") from None
