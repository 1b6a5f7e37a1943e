import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from htsfem.assembly import linear_blocks
from htsfem.materials import MU0, Materials, PowerLaw, de_dj, rho_power

from util import a_stiffness, e_field


def power_law(n=20, j_reg=1e-3 * 3e8):
    return PowerLaw(e_c=1e-4, j_c=3e8, n=n, j_reg=j_reg)


def test_rho_at_critical_current():
    # at |j| = j_c the law returns e_c/j_c, hence e = e_c
    law = power_law()
    assert rho_power(law.j_c, law) == pytest.approx(law.e_c / law.j_c, rel=1e-15)
    assert e_field(law.j_c, law) == pytest.approx(law.e_c, rel=1e-15)


def test_rho_linear_limit():
    law = power_law(1)
    for j in (0.0, 1e5, 3e8, 9e8):
        assert rho_power(j, law) == law.e_c / law.j_c


def test_rho_half_critical_frozen_value():
    # oracle: exact rational arithmetic for (1e-4/3e8) * 0.5**19
    law = power_law()
    exact = Fraction(1, 10**4) / Fraction(3 * 10**8) / Fraction(2) ** 19
    got = rho_power(1.5e8, law)
    assert got == pytest.approx(float(exact), rel=1e-14)
    assert got == pytest.approx(6.357828776041667e-19, rel=1e-12)


def test_de_dj_linear():
    law = power_law(1)
    assert de_dj(0.0, rho_power(0.0, law), law) == law.e_c / law.j_c
    assert de_dj(2 * law.j_c, rho_power(2 * law.j_c, law), law) == law.e_c / law.j_c


def test_de_dj_finite_difference():
    law = power_law()
    j = 0.7 * law.j_c
    eps = 1e-6 * law.j_c
    fd = (e_field(j + eps, law) - e_field(j - eps, law)) / (2 * eps)
    d = de_dj(j, rho_power(j, law), law)
    assert abs(d - fd) / d < 1e-5


def test_de_dj_floor_clamp():
    law = power_law()
    expect = 20.0 * (1e-4 / 3e8) * 1e-3 ** 19
    assert de_dj(0.0, rho_power(0.0, law), law) == pytest.approx(expect, rel=1e-12)
    assert de_dj(0.0, rho_power(0.0, law), law) > 0.0


def test_cap_is_continuous():
    law = power_law()
    jcap = law.j_cap
    below = e_field(jcap * (1 - 1e-9), law)
    above = e_field(jcap * (1 + 1e-9), law)
    assert above == pytest.approx(below, rel=1e-6)
    assert rho_power(10 * law.j_c, law) == pytest.approx(law.rho_max, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_e_field_monotone(j1_rel, j2_rel):
    law = power_law()
    j1, j2 = sorted((j1_rel * law.j_c, j2_rel * law.j_c))
    assert e_field(j2, law) >= e_field(j1, law)


@given(st.floats(min_value=0.0, max_value=5.0),
       st.integers(min_value=1, max_value=60))
@settings(max_examples=200, deadline=None)
def test_de_dj_dominates_rho(j_rel, n):
    law = power_law(float(n))
    j = j_rel * law.j_c
    assert de_dj(j, rho_power(j, law), law) >= rho_power(j, law) * (1 - 1e-12)
    assert rho_power(j, law) >= 0.0


def test_magnetic_laws(bar_spaces_11):
    # the run's a-block, read off its potential rows, against the
    # reluctivity table: 1/(mu0 mu_r) on the ferromagnet, 1/mu0 in air
    assert 1.0 / MU0 == pytest.approx(7.9577e5, rel=1e-4)
    h, a = bar_spaces_11
    blocks = {}
    for mu_r in (1.0, 10.0, 1000.0):
        mats = Materials(power_law(), mu_r)
        blocks[mu_r] = -linear_blocks(h, a, mats).q_rows[:, h.n_dofs:]
        assert (blocks[mu_r] != a_stiffness(a, mats)[a.free]).nnz == 0
    assert (blocks[1.0] != blocks[1000.0]).nnz > 0


def test_parameter_validation():
    with pytest.raises(ValueError):
        PowerLaw(e_c=-1.0, j_c=3e8, n=20, j_reg=3e5)
    with pytest.raises(ValueError):
        power_law(0.5)
    with pytest.raises(ValueError):
        power_law(j_reg=-1.0)
    with pytest.raises(ValueError, match="mu_r"):
        Materials(power_law(), 0.5)
    assert Materials(power_law(), 1.0).mu_r == 1.0


def test_vectorized_evaluation():
    law = power_law()
    j = np.array([0.0, 1.5e8, 3e8, 9e8])
    rho = rho_power(j, law)
    assert rho.shape == j.shape
    assert rho[2] == pytest.approx(law.e_c / law.j_c, rel=1e-14)
    assert de_dj(j, rho, law).shape == j.shape
