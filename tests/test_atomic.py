"""Level-structure tests.

The coupling tables are checked against an independent derivation done in
sympy: hyperfine states are expanded in the uncoupled |J mJ>|I mI> basis and
the dipole operator acts on J alone, so no 6j/ordering conventions can creep
in.  The package itself never imports sympy.
"""

from fractions import Fraction

import pytest
import scipy.constants
from sympy import S, simplify
from sympy.physics.quantum.cg import CG

from ybcavity import constants
from ybcavity.atomic import LevelScheme
from ybcavity.errors import ConfigError
from ybcavity.ratemodel import CavityParams

I_NUC = S(1) / 2


def _hf_state(J, F, m):
    """|(J I) F m> expanded over (mJ, mI)."""
    out = {}
    for mJ in range(-int(J), int(J) + 1):
        for tmI in (-1, 1):
            mI = S(tmI) / 2
            if mJ + mI == m:
                amp = CG(S(J), S(mJ), I_NUC, mI, F, m).doit()
                if amp != 0:
                    out[(S(mJ), mI)] = amp
    return out


def _dip2(J_lo, F_lo, m_lo, J_hi, F_hi, m_hi):
    """|<F_hi m_hi|d_q|F_lo m_lo>|^2 with the J-reduced element set to 1."""
    q = m_hi - m_lo
    if abs(q) > 1 or abs(m_lo) > F_lo or abs(m_hi) > F_hi:
        return S(0)
    lo = _hf_state(J_lo, F_lo, m_lo)
    hi = _hf_state(J_hi, F_hi, m_hi)
    amp = S(0)
    for (mJ, mI), c_lo in lo.items():
        if (mJ + q, mI) in hi:
            amp += hi[(mJ + q, mI)] * c_lo * \
                CG(S(J_lo), mJ, 1, q, S(J_hi), mJ + q).doit()
    return simplify(amp ** 2)


def _to_frac(x):
    r = S(x)
    return Fraction(int(r.p), int(r.q))


# ---------------------------------------------------------------------------
# excitation weights


def test_excitation_weights_match_uncoupled_basis_oracle():
    for (m2, q), table_value in constants.EXCITATION_WEIGHTS.items():
        oracle = _dip2(0, S(1) / 2, S(m2) / 2, 1, S(3) / 2, S(m2) / 2 + q)
        assert table_value == _to_frac(oracle), (m2, q)


def test_cyclic_weight_is_unity_and_ratios_are_3_2_1():
    weights = constants.EXCITATION_WEIGHTS
    assert weights[(+1, +1)] == 1
    assert weights[(+1, 0)] == Fraction(2, 3)
    assert weights[(+1, -1)] == Fraction(1, 3)
    # exact 3:2:1 between the stretch, pi and cross couplings
    assert (weights[(+1, +1)] / weights[(+1, -1)]) == Fraction(3)
    assert (weights[(+1, 0)] / weights[(+1, -1)]) == Fraction(2)


def test_mirror_symmetry_and_equal_sums():
    weights = constants.EXCITATION_WEIGHTS
    for q in (-1, 0, 1):
        assert weights[(+1, q)] == weights[(-1, -q)]
    up_sum = sum(weights[(+1, q)] for q in (-1, 0, 1))
    dn_sum = sum(weights[(-1, q)] for q in (-1, 0, 1))
    assert up_sum == dn_sum == Fraction(2)


# ---------------------------------------------------------------------------
# decay branching


def test_branching_sums_to_one_exactly():
    for m2, branches in constants.DECAY_BRANCHES.items():
        assert sum(frac for (_, _, frac) in branches) == Fraction(1), m2


def test_stretch_states_are_cyclic():
    # key m2', value (m2 ground, q, fraction): one decay, to the start
    assert constants.DECAY_BRANCHES[+3] == ((+1, +1, 1),)
    assert constants.DECAY_BRANCHES[-3] == ((-1, -1, 1),)


def test_inner_sublevel_branching_values():
    table = {(g2, q): frac
             for (g2, q, frac) in constants.DECAY_BRANCHES[+1]}
    assert table == {(+1, 0): Fraction(2, 3), (-1, +1): Fraction(1, 3)}
    # mirror image
    mirrored = {(g2, q): frac
                for (g2, q, frac) in constants.DECAY_BRANCHES[-1]}
    assert mirrored == {(-1, 0): Fraction(2, 3), (+1, -1): Fraction(1, 3)}


def test_branching_matches_emission_oracle():
    # emission strengths from each excited sublevel, renormalized
    for m2 in (-3, -1, 1, 3):
        m_hi = S(m2) / 2
        strengths = {}
        for q in (-1, 0, 1):
            m_lo = m_hi - q
            if abs(m_lo) > S(1) / 2:
                continue
            w = _dip2(0, S(1) / 2, m_lo, 1, S(3) / 2, m_hi)
            if w != 0:
                strengths[(m_lo, q)] = w
        total = sum(strengths.values())
        branches = {(S(g2) / 2, q): frac
                    for (g2, q, frac) in constants.DECAY_BRANCHES[m2]}
        assert set(branches) == set(strengths)
        for key, w in strengths.items():
            assert branches[key] == _to_frac(simplify(w / total)), (m2, key)


# ---------------------------------------------------------------------------
# 1539-nm pi couplings


def test_d1_pi_weights_match_uncoupled_basis_oracle():
    for (am2, f2), table_value in constants.D1_PI_WEIGHTS.items():
        m = S(am2) / 2
        oracle = _dip2(1, S(3) / 2, m, 1, S(f2) / 2, m)
        assert table_value == _to_frac(oracle), (am2, f2)


def test_oracle_emission_sum_rule_justifies_dipole_normalization():
    # In the units of the table, every 3D1 sublevel decays to the full 3P1
    # manifold (both F) with total squared strength exactly 1; that is what
    # lets the dipole scale be tied directly to the partial decay rate.
    for F_hi in (S(1) / 2, S(3) / 2):
        for tm in range(-int(2 * F_hi), int(2 * F_hi) + 1, 2):
            m_hi = S(tm) / 2
            tot = S(0)
            for F_lo in (S(1) / 2, S(3) / 2):
                for q in (-1, 0, 1):
                    tot += _dip2(1, F_lo, m_hi - q, 1, F_hi, m_hi)
            assert simplify(tot) == 1, (F_hi, m_hi)


# ---------------------------------------------------------------------------
# scheme assembly


def test_default_scheme_values():
    scheme = LevelScheme()
    assert CavityParams().gamma == pytest.approx(
        2 * 3.141592653589793 * 0.091e6)
    assert scheme.gamma_D1_line == pytest.approx(constants.TWO_PI * 16e3)
    assert scheme.d1_hyperfine_splitting > 0


def test_scheme_validation_errors():
    with pytest.raises(ConfigError):
        CavityParams(gamma=0.0)
    with pytest.raises(ConfigError):
        LevelScheme(d1_hyperfine_splitting=-1e6)


def test_scheme_is_immutable():
    scheme = LevelScheme()
    with pytest.raises(Exception):
        scheme.gamma_D1_line = 1.0


def test_physical_constants_are_scipy_codata():
    # the package keeps its own copy so that it never imports scipy; a
    # scipy release with new CODATA values must fail here, not fork them
    assert constants.C_LIGHT == scipy.constants.c
    assert constants.EPSILON_0 == scipy.constants.epsilon_0
    assert constants.PLANCK_H == scipy.constants.h
    assert constants.HBAR == scipy.constants.hbar
    assert constants.FREE_FALL_G == scipy.constants.g
