"""The space tag: S3 is H3 at chi -> i chi, and the tag holds the constants of that substitution."""

import dataclasses
import math

import numpy as np
import pytest

from curvedkepler import H3, S3, SpaceTag
from curvedkepler.geometry import _chart_factors

CHI = np.linspace(0.0, math.pi, 2001)


def test_the_tag_has_the_model_as_its_one_field():
    assert [f.name for f in dataclasses.fields(SpaceTag)] == ["model"]


@pytest.mark.parametrize("space", [H3, S3], ids=["h3", "s3"])
def test_the_tag_constants_are_those_of_chi_to_unit_chi(space):
    unit = space.unit
    assert unit**2 == space.sigma and type(space.sigma) is int
    for e in (0.5, 2.0, 900.0):
        assert space.coupling(e) == e / unit
    np.testing.assert_allclose(space.radius(CHI), np.sinh(unit * CHI) / unit, rtol=1e-15, atol=1e-300)
    assert space.chi_max == {H3: 350.0, S3: math.pi}[space]


def test_the_s3_chart_factors_are_the_h3_form_at_i_chi():
    """The chart keeps a product form on S3: within 4 ulp of |u| it is H3's -expm1(-+2 w)/2 at w = i chi."""
    _, (u1, u2) = _chart_factors(S3, CHI, np.zeros_like(CHI))
    w = S3.unit * CHI
    for u, h3_form in ((u1, -0.5 * np.expm1(-2.0 * w)), (u2, -0.5 * np.expm1(2.0 * w))):
        assert np.all(np.abs(u - h3_form) <= 4 * np.spacing(np.abs(u)))
