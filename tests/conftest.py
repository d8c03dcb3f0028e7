"""Fixtures shared by the test modules."""

import pytest

from sqvac import GaussianWignerSpec, GridGeometry, WignerGrid, outcome_integrals, rasterize


@pytest.fixture(scope="session")
def zero_added_grid():
    """W = g(sigma_x = 2) - c g(sigma_x = 1) on the 257-point, extent-12 grid,
    with c = integral A(g2) / integral A(g1): integral(A) is a round-off zero
    (about 1.6e-15) and integral(S) = 0.5625. No state gives it, since a state
    has integral(A) = <n> + 1 >= 1."""
    geometry = GridGeometry(12.0, 257)
    g2, g1 = (rasterize(GaussianWignerSpec.pure_state(sx), geometry) for sx in (2.0, 1.0))
    c = outcome_integrals(g2)[0] / outcome_integrals(g1)[0]
    return WignerGrid(geometry, g2.values - c * g1.values)
