"""Dynamics tests: Hamiltonian structure, Lindblad generator, steady state,
time propagation, and the adiabatic rate model against the full model."""

import math
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply, spsolve

from ybcavity import constants, dynamics, ratemodel
from ybcavity.atomic import LevelScheme
from ybcavity.dynamics import (
    EmissionRates, LindbladGenerator, SystemState, adiabatic_rates,
    build_hamiltonian, build_lindblad, evolve, ground_vacuum_state,
    steady_state, _reduction,
)
from ybcavity.ratemodel import (
    CavityParams, coupling_at, drive_rabi_sq, spin_rates,
    GROUND_INDEX, EXCITED_INDEX, N_ATOM, _conditional_liouvillian,
    _spin_model,
)
from ybcavity.errors import ConfigError, ModelError, NumericalError
from ybcavity.lightshift import BeamParams, ShiftResult, stark_shift
from ybcavity.transit import TransitConfig, probe_detuning

SCHEME = LevelScheme()
CAVITY = CavityParams()
DRIVE = BeamParams(power=1.8e-6, waist=25e-6)
WEAK_DRIVE = BeamParams(power=5e-9, waist=25e-6)
SHIFTS_ON = ShiftResult(delta_32=6.8e6, delta_12=-12.8e6)
SHIFTS_OFF = ShiftResult(delta_32=0.0, delta_12=0.0)


def _basis_index(atom_idx, n_plus, n_minus, n_max):
    n_ph = n_max + 1
    return (atom_idx * n_ph + n_plus) * n_ph + n_minus


def _random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# Hamiltonian structure


def test_hamiltonian_is_hermitian():
    for shifts in (SHIFTS_OFF, SHIFTS_ON):
        for pos in ((0, 0, 0), (5e-6, -8e-6, 12e-6)):
            h = build_hamiltonian(SCHEME, CAVITY, DRIVE, shifts, 3.3e6,
                                  pos, n_max=2)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_model_terms_are_built_once_per_cutoff_and_read_only():
    # build_hamiltonian and build_lindblad share one set of unit terms per
    # Fock cutoff, which no caller can write into
    h = build_hamiltonian(SCHEME, CAVITY, DRIVE, SHIFTS_ON, 3.3e6, n_max=2)
    build_lindblad(h, SCHEME, CAVITY)
    excited, coupling, drive, modes, _ = ratemodel.model_terms(2, 2)
    assert ratemodel.model_terms(2, 2)[1] is coupling
    for op in (coupling, drive, *excited.values(), *modes):
        with pytest.raises(ValueError):
            op[0, 0] += 1.0
    np.testing.assert_array_equal(
        build_hamiltonian(SCHEME, CAVITY, DRIVE, SHIFTS_ON, 3.3e6, n_max=2),
        h)


def test_ground_vacuum_is_eigenstate_without_drive():
    dark = BeamParams(power=0.0, waist=25e-6)
    h = build_hamiltonian(SCHEME, CAVITY, dark, SHIFTS_OFF, 0.0, n_max=1)
    for g2 in (+1, -1):
        idx = _basis_index(GROUND_INDEX[g2], 0, 0, 1)
        col = h[:, idx]
        assert np.max(np.abs(col)) == 0.0


def test_peak_coupling_matrix_elements():
    # (0, 0, 0) is an antinode of the standing wave on the mode axis
    h = build_hamiltonian(SCHEME, CAVITY, WEAK_DRIVE, SHIFTS_OFF, 0.0,
                          (0, 0, 0), n_max=1)
    up_vac = _basis_index(GROUND_INDEX[+1], 1, 0, 1)   # one sigma+ photon
    e32_vac = _basis_index(EXCITED_INDEX[+3], 0, 0, 1)
    assert h[e32_vac, up_vac] == pytest.approx(CAVITY.g0, rel=1e-12)
    dn_ph = _basis_index(GROUND_INDEX[-1], 1, 0, 1)
    e12_vac = _basis_index(EXCITED_INDEX[+1], 0, 0, 1)
    assert h[e12_vac, dn_ph] == pytest.approx(
        CAVITY.g0 * math.sqrt(1 / 3), rel=1e-12)
    # default config resolves the axial standing wave: full g0 at the
    # antinode x = 0, g0/sqrt(2) (its RMS) an eighth wave away, zero at
    # the node a quarter wave away
    lam = constants.WAVELENGTH_GREEN
    for x, factor in ((0.0, 1.0), (lam / 8, 1 / math.sqrt(2)),
                      (lam / 4, 0.0)):
        h_sw = build_hamiltonian(SCHEME, CAVITY, WEAK_DRIVE, SHIFTS_OFF, 0.0,
                                 (x, 0, 0), n_max=1)
        assert h_sw[e32_vac, up_vac] == pytest.approx(
            CAVITY.g0 * factor, rel=1e-12, abs=1e-9 * CAVITY.g0)


def test_drive_splits_into_equal_sigma_components():
    h = build_hamiltonian(SCHEME, CAVITY, DRIVE, SHIFTS_OFF, 0.0,
                          (0, 0, 0), n_max=1)
    up_vac = _basis_index(GROUND_INDEX[+1], 0, 0, 1)
    e32 = _basis_index(EXCITED_INDEX[+3], 0, 0, 1)
    em1 = _basis_index(EXCITED_INDEX[-1], 0, 0, 1)
    om_sq = drive_rabi_sq((0, 0, 0), DRIVE, CAVITY)
    assert h[e32, up_vac] == pytest.approx(
        0.5 * math.sqrt(0.5 * om_sq), rel=1e-12)
    # sigma- component carries the 1/3 cross weight
    assert (h[em1, up_vac] / h[e32, up_vac]) == pytest.approx(
        math.sqrt(1 / 3), rel=1e-12)
    # no pi component from linear drive: e(+1) unreachable from |up>
    e11 = _basis_index(EXCITED_INDEX[+1], 0, 0, 1)
    assert h[e11, up_vac] == 0.0


def test_drive_rabi_sq_scales_with_the_linewidth():
    # one 3P1 linewidth sets both the decay and the drive's dipole
    wide = CavityParams(gamma=2.0 * CAVITY.gamma)
    pos = (1e-6, -2e-6, 3e-6)
    assert drive_rabi_sq(pos, DRIVE, wide) == pytest.approx(
        2.0 * drive_rabi_sq(pos, DRIVE, CAVITY), rel=1e-14)


def test_fock_truncation_guard():
    with pytest.raises(ModelError):
        build_hamiltonian(SCHEME, CAVITY, DRIVE, SHIFTS_OFF, 0.0, n_max=0)


# ---------------------------------------------------------------------------
# Lindblad generator


def test_generator_preserves_trace():
    h = build_hamiltonian(SCHEME, CAVITY, DRIVE, SHIFTS_ON, 6.8e6, n_max=1)
    gen = build_lindblad(h, SCHEME, CAVITY)
    rng = np.random.default_rng(7)
    scale = 2.0 * CAVITY.kappa
    for _ in range(5):
        rho = _random_density(rng, gen.dim)
        drho = (gen.liouvillian @ rho.flatten(order="F")).reshape(
            rho.shape, order="F")
        assert abs(np.trace(drho)) < 1e-10 * scale


def test_ground_vacuum_is_stationary_without_drive():
    dark = BeamParams(power=0.0, waist=25e-6)
    h = build_hamiltonian(SCHEME, CAVITY, dark, SHIFTS_OFF, 0.0, n_max=1)
    gen = build_lindblad(h, SCHEME, CAVITY)
    rho = ground_vacuum_state(1, p_up=0.7).rho
    assert np.max(np.abs(gen.liouvillian @ rho.flatten(order="F"))) == 0.0


def test_cavity_decay_rate_is_2_kappa():
    n_max = 2
    dim = N_ATOM * (n_max + 1) ** 2
    gen = build_lindblad(np.zeros((dim, dim)), SCHEME, CAVITY)
    rho = np.zeros((dim, dim), dtype=complex)
    one_photon = _basis_index(GROUND_INDEX[+1], 1, 0, n_max)
    rho[one_photon, one_photon] = 1.0
    state = SystemState(rho=rho, n_max=n_max)
    for t in (0.25 / CAVITY.kappa, 1.0 / CAVITY.kappa):
        out = evolve(state, gen, t)
        assert out.photon_number(0) == pytest.approx(
            math.exp(-2.0 * CAVITY.kappa * t), rel=1e-6)


def test_lindblad_dimension_guard():
    with pytest.raises(ModelError):
        build_lindblad(np.zeros((7, 7)), SCHEME, CAVITY)


def test_collapse_operators_of_another_shape_are_rejected():
    # a generator given a Hamiltonian of another cutoff keeps its old
    # collapse operators: a ModelError, not numpy's broadcasting error
    def ham(n_max):
        return build_hamiltonian(SCHEME, CAVITY, DRIVE, SHIFTS_OFF, 0.0,
                                 n_max=n_max)
    gen = build_lindblad(ham(1), SCHEME, CAVITY)
    with pytest.raises(ModelError, match="shape"):
        replace(gen, h=ham(2))


def test_generator_builds_the_liouvillian_of_its_parts():
    # made from its parts, or with `replace` given a new Hamiltonian, a
    # generator holds the Liouvillian that build_lindblad gives the parts
    h, h2 = (build_hamiltonian(SCHEME, CAVITY, DRIVE, SHIFTS_ON, det, n_max=1)
             for det in (6.8e6, 2e6))
    gen = build_lindblad(h, SCHEME, CAVITY)
    for made, ref in (
            (LindbladGenerator(h, gen.collapse_ops, 1), gen),
            (replace(gen, h=h2), build_lindblad(h2, SCHEME, CAVITY))):
        assert (made.liouvillian != ref.liouvillian).nnz == 0


def _kron_liouvillian(h, ops):
    """Reference assembly, one Kronecker product and one sparse sum per
    term: -i (I x H - H^T x I) and, per collapse operator C,
    conj(C) x C - (I x C^dag C + (C^dag C)^T x I) / 2."""
    ident = sp.identity(h.shape[0], format="csr")
    h_s = sp.csr_matrix(h)
    lio = -1j * (sp.kron(ident, h_s) - sp.kron(h_s.T, ident))
    for op in ops:
        c_s = sp.csr_matrix(op)
        cdc = (c_s.conj().T @ c_s).tocsr()
        lio = lio + sp.kron(c_s.conj(), c_s) \
            - 0.5 * sp.kron(ident, cdc) - 0.5 * sp.kron(cdc.T, ident)
    return lio.tocsr()


def _assert_same_generator(lio, ref):
    """lio against the reference: the same structural pattern with no
    explicit zeros (`_reduction` takes the components of |L|, and
    `_SpinModel` checks its grading on the nonzeros), entries within
    1e-13 of the largest, and each column's diagonal-row entries (its
    contribution to d tr(rho)/dt) summing to zero to the same scale."""
    lio, ref = sp.csr_matrix(lio), sp.csr_matrix(ref)
    for mat in (lio, ref):
        assert mat.has_canonical_format and np.all(mat.data != 0)
    assert np.array_equal(lio.indptr, ref.indptr)
    assert np.array_equal(lio.indices, ref.indices)
    scale = abs(ref).max()
    assert abs(lio - ref).max() <= 1e-13 * scale
    dim = math.isqrt(lio.shape[0])
    trace_rows = np.arange(dim) * (dim + 1)
    assert np.abs(lio[trace_rows].sum(axis=0)).max() <= 1e-13 * scale


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_liouvillian_matches_term_by_term_kron(n_max):
    rng = np.random.default_rng(22 + n_max)
    dim = N_ATOM * (n_max + 1) ** 2
    # a sparse random Hermitian H at the model's frequency scale, with a
    # real diagonal, so -i[H, rho] cancels exactly on rho's diagonal
    mask = rng.random((dim, dim)) < 0.05
    b = np.where(mask, rng.normal(size=(dim, dim))
                 + 1j * rng.normal(size=(dim, dim)), 0.0)
    h = 1e8 * (b + b.conj().T + np.diag(rng.normal(size=dim)))
    ops = [op for _, op in build_lindblad(h, SCHEME, CAVITY).collapse_ops]
    lio = LindbladGenerator(h, [("c", op) for op in ops], n_max).liouvillian
    _assert_same_generator(lio, _kron_liouvillian(h, ops))


def _conditional_superoperators(monkeypatch):
    """The rate model's dense superoperators (the jumps, the coupling, one
    per driven sublevel, then the drive), each with the (h, ops) it was
    assembled from, as recorded at `liouvillian_triplets`."""
    terms = []
    triplets = ratemodel.liouvillian_triplets

    def recorded(h, ops):
        terms.append((h, ops))
        return triplets(h, ops)

    monkeypatch.setattr(ratemodel, "liouvillian_triplets", recorded)
    _, _, comps, drive, _ = _conditional_liouvillian(CAVITY.kappa,
                                                     CAVITY.gamma)
    assert len(terms) == len(comps) + 1 == 5
    return list(zip(comps + [drive], terms))


def test_conditional_superoperators_match_term_by_term_kron(monkeypatch):
    for sup, (h, ops) in _conditional_superoperators(monkeypatch):
        ref = _kron_liouvillian(h, ops)
        assert np.array_equal(np.nonzero(sup), ref.nonzero())
        _assert_same_generator(sup, ref)


def test_rate_and_full_models_share_one_liouvillian(monkeypatch):
    # the rate model sums the triplets densely, the full model into CSR:
    # the same bits, signed zeros included
    for sup, (h, ops) in _conditional_superoperators(monkeypatch):
        ref = dynamics._liouvillian(h, ops).toarray()
        assert sup.dtype == ref.dtype and sup.shape == ref.shape
        assert sup.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# evolve


def test_evolve_identity_cases():
    h = build_hamiltonian(SCHEME, CAVITY, DRIVE, SHIFTS_ON, 0.0, n_max=1)
    gen = build_lindblad(h, SCHEME, CAVITY)
    rho0 = ground_vacuum_state(1, p_up=0.3)
    same = evolve(rho0, gen, 0.0)
    assert np.array_equal(same.rho, rho0.rho)

    null_gen = LindbladGenerator(np.zeros((24, 24)), (), n_max=1)
    rng = np.random.default_rng(11)
    rho = SystemState(rho=_random_density(rng, 24), n_max=1)
    out = evolve(rho, null_gen, 3e-6)
    assert np.max(np.abs(out.rho - rho.rho)) < 1e-12


def test_evolve_rejects_negative_time_and_bad_dims():
    h = build_hamiltonian(SCHEME, CAVITY, DRIVE, SHIFTS_OFF, 0.0, n_max=1)
    gen = build_lindblad(h, SCHEME, CAVITY)
    with pytest.raises(ConfigError):
        evolve(ground_vacuum_state(1), gen, -1e-6)
    with pytest.raises(ModelError):
        evolve(ground_vacuum_state(2), gen, 1e-6)


def test_evolution_is_cptp_on_random_states():
    h = build_hamiltonian(SCHEME, CAVITY, DRIVE, SHIFTS_ON, 6.8e6, n_max=1)
    gen = build_lindblad(h, SCHEME, CAVITY)
    rng = np.random.default_rng(23)
    for _ in range(5):
        rho0 = SystemState(rho=_random_density(rng, gen.dim), n_max=1)
        out = evolve(rho0, gen, float(rng.uniform(0.1e-6, 5e-6)))
        assert abs(np.trace(out.rho).real - 1.0) < 1e-8
        assert np.linalg.eigvalsh(out.rho)[0] > -1e-6


# ---------------------------------------------------------------------------
# steady state


def test_steady_state_without_drive_preserves_spin_populations():
    dark = BeamParams(power=0.0, waist=25e-6)
    h = build_hamiltonian(SCHEME, CAVITY, dark, SHIFTS_OFF, 0.0, n_max=1)
    gen = build_lindblad(h, SCHEME, CAVITY)
    ss = steady_state(gen)
    assert ss.ground_populations() == (0.5, 0.5)
    assert ss.photon_number(0) == 0.0
    seeded = steady_state(gen, initial_state=ground_vacuum_state(1, p_up=0.3))
    p_up, p_dn = seeded.ground_populations()
    assert p_up == pytest.approx(0.3, abs=1e-12)
    assert p_dn == pytest.approx(0.7, abs=1e-12)


def test_steady_state_weak_drive_populates_cavity():
    h = build_hamiltonian(SCHEME, CAVITY, WEAK_DRIVE, SHIFTS_OFF, 0.0,
                          n_max=2)
    gen = build_lindblad(h, SCHEME, CAVITY)
    ss = steady_state(gen)
    ss.validate()
    assert ss.photon_number(0) > 0
    assert ss.photon_number(0) < 0.05  # weak-drive regime


def test_steady_state_flux_matches_adiabatic_rates():
    pos = (0.0, 6e-6, 4e-6)
    h = build_hamiltonian(SCHEME, CAVITY, WEAK_DRIVE, SHIFTS_ON, 6.8e6,
                          pos, n_max=2)
    gen = build_lindblad(h, SCHEME, CAVITY)
    ss = steady_state(gen)
    for mode, attr in ((0, "rate_sigma_plus"), (1, "rate_sigma_minus")):
        flux = 2.0 * CAVITY.kappa * ss.photon_number(mode)
        ad = 0.5 * sum(
            getattr(adiabatic_rates(spin, 6.8e6, pos, SHIFTS_ON, SCHEME,
                                    CAVITY, WEAK_DRIVE), attr)
            for spin in ("up", "down"))
        assert flux == pytest.approx(ad, rel=0.05)


def test_steady_state_failure_raises_numerical_error():
    h = np.zeros((24, 24))
    h[0, 0] = np.nan
    gen = LindbladGenerator(h, (), n_max=1)
    with pytest.raises(NumericalError):
        steady_state(gen)


def _operating_generator(shift_on, n_max=2, position=(0.0, 0.0, 0.0)):
    """Full model at the reference drive, shift beam on or off."""
    cfg = TransitConfig(light_shift_on=shift_on)
    shifts = SHIFTS_OFF
    if shift_on:
        shifts = ShiftResult(stark_shift(+1.5, cfg.shift_beam, cfg.scheme),
                             stark_shift(+0.5, cfg.shift_beam, cfg.scheme))
    h = build_hamiltonian(cfg.scheme, cfg.cavity, cfg.drive, shifts,
                          probe_detuning(cfg), position, n_max=n_max)
    return build_lindblad(h, cfg.scheme, cfg.cavity)


@pytest.mark.parametrize("shift_on", [True, False])
def test_reduced_steady_state_matches_full_solve(shift_on):
    # the mirror-symmetric model solves on a quarter of rho's entries (the
    # population block, one unknown per mirror pair) and still gives the
    # state of a plain solve of the full Liouvillian with the trace row
    gen = _operating_generator(shift_on, position=(3e-6, 4e-6, -5e-6))
    dim = gen.dim
    diag = np.arange(dim) * (dim + 1)
    rows, _ = _reduction(gen.liouvillian, gen.n_max, diag)
    assert len(rows) == dim * dim // 4
    a_mat = gen.liouvillian.tolil(copy=True)
    a_mat[0, :] = 0.0
    a_mat[0, diag] = 1.0
    b = np.zeros(dim * dim, dtype=complex)
    b[0] = 1.0
    ref = spsolve(a_mat.tocsc(), b).reshape((dim, dim), order="F")
    ref = 0.5 * (ref + ref.conj().T)
    ref /= np.trace(ref).real
    assert np.max(np.abs(steady_state(gen).rho - ref)) <= 1e-10


@pytest.mark.parametrize("p_up", [0.5, 0.3])
def test_reduced_evolution_matches_full_propagation(p_up):
    # p_up = 0.5 is mirror-symmetric and propagates one unknown per pair;
    # p_up = 0.3 is not and keeps every entry of the population block
    gen = _operating_generator(True)
    rho0 = ground_vacuum_state(2, p_up=p_up)
    vec = rho0.rho.flatten(order="F")
    rows, _ = _reduction(gen.liouvillian, 2, np.flatnonzero(vec), vec)
    assert len(rows) == gen.dim ** 2 // (4 if p_up == 0.5 else 2)
    t = 1.5e-6
    ref = expm_multiply(gen.liouvillian * t, vec).reshape(
        rho0.rho.shape, order="F")
    assert np.max(np.abs(evolve(rho0, gen, t).rho - ref)) <= 1e-10


@pytest.mark.parametrize("shift_on", [True, False])
def test_photon_numbers_converge_in_the_fock_cutoff(shift_on):
    # at the mode centre under the reference drive, going from n_max = 2
    # to 3 moves each mode's <n> by under 1%
    states = [steady_state(_operating_generator(shift_on, n_max))
              for n_max in (2, 3)]
    for mode in (0, 1):
        two, three = (state.photon_number(mode) for state in states)
        assert abs(two - three) < 0.01 * three


def _superlu_steady_state(gen):
    """The steady state by a sparse LU solve (SuperLU) of the same reduced
    system that `steady_state` eliminates by grade, the trace row in
    place of rho_00's equation, expanded, Hermitized and normalized."""
    dim = gen.dim
    diag = np.arange(dim) * (dim + 1)
    rows, expand = _reduction(gen.liouvillian, gen.n_max, diag)
    trace_row = sp.csr_matrix(expand[diag].sum(axis=0))
    a_mat = sp.vstack([trace_row, gen.liouvillian[rows[1:]] @ expand],
                      format="csc")
    b = np.zeros(len(rows), dtype=complex)
    b[0] = 1.0
    rho = (expand @ spsolve(a_mat, b)).reshape((dim, dim), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("shift_on", [True, False])
def test_graded_steady_state_matches_sparse_lu(n_max, shift_on):
    gen = _operating_generator(shift_on, n_max, position=(3e-6, 4e-6, -5e-6))
    ref = _superlu_steady_state(gen)
    got = steady_state(gen).rho
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_graded_steady_state_of_the_conditional_generator():
    # not mirror-symmetric: the reduced unknowns are half of rho, and each
    # one's conjugate partner is another unknown, not a mirror pair
    from test_acceptance import _conditional_generator
    cfg = TransitConfig()
    shifts = ShiftResult(stark_shift(+1.5, cfg.shift_beam, cfg.scheme),
                         stark_shift(+0.5, cfg.shift_beam, cfg.scheme))
    gen, _ = _conditional_generator("up", probe_detuning(cfg),
                                    (3e-6, 4e-6, -5e-6), shifts, cfg.scheme,
                                    cfg.cavity, cfg.drive)
    ref = _superlu_steady_state(gen)
    assert np.max(np.abs(steady_state(gen).rho - ref)) \
        <= 1e-12 * np.max(np.abs(ref))


def test_basis_quanta_grade_the_model_terms():
    # the coupling keeps the quanta, the drive moves them by one and each
    # mode's annihilator lowers them by one
    quanta = ratemodel.basis_quanta(2, 1)
    _, coupling, drive, modes, _ = ratemodel.model_terms(2, 1)
    for op, step in [(coupling, {0}), (drive, {-1, 1}), (modes[0], {-1}),
                     (modes[1], {-1})]:
        r, c = np.nonzero(op)
        assert set(quanta[r] - quanta[c]) == step


def test_two_photon_term_breaks_the_grading():
    gen = _operating_generator(True)
    a_plus = ratemodel.model_terms(2, 2)[3][0]
    h = gen.h + 0.1 * CAVITY.kappa * (a_plus @ a_plus + a_plus.T @ a_plus.T)
    with pytest.raises(ModelError, match="grading"):
        steady_state(build_lindblad(h, SCHEME, CAVITY))


def test_singular_block_raises_and_restores_blas(monkeypatch, blas_count):
    # a LinAlgError of any block solve is a NumericalError, the solves
    # run with OpenBLAS held to one thread, and the count is put back
    gen = _operating_generator(True)
    seen = []

    def singular(a, b):
        seen.append(blas_count() if blas_count else None)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(dynamics.np.linalg, "solve", singular)
    with pytest.raises(NumericalError, match="steady-state solve failed"):
        steady_state(gen)
    if blas_count is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be "
                    "set, so there is no count to restore")
    assert seen == [1]
    assert blas_count() == 2


# ---------------------------------------------------------------------------
# state container


def test_system_state_validation():
    good = ground_vacuum_state(1)
    good.validate()
    bad_trace = SystemState(rho=good.rho * 2.0, n_max=1)
    with pytest.raises(NumericalError):
        bad_trace.validate()
    skew = good.rho.copy()
    skew[0, 1] = 1e-3
    with pytest.raises(NumericalError):
        SystemState(rho=skew, n_max=1).validate()
    with pytest.raises(ModelError):
        SystemState(rho=np.eye(10) / 10, n_max=1).validate()


@pytest.mark.parametrize("mode", [-1, 2])
def test_photon_number_takes_mode_0_or_1(mode):
    # modes are 0 (sigma+) and 1 (sigma-); a q = -1 label is no mode
    with pytest.raises(ValueError):
        ground_vacuum_state(1).photon_number(mode)


def test_population_bookkeeping():
    state = ground_vacuum_state(2, p_up=0.25)
    pops = state.atom_populations()
    assert pops.sum() == pytest.approx(1.0)
    assert state.ground_populations() == (0.25, 0.75)


# ---------------------------------------------------------------------------
# adiabatic rates


def test_shift_on_rates_are_polarization_selective():
    rates = adiabatic_rates("up", 6.8e6, (0, 0, 0), SHIFTS_ON, SCHEME,
                            CAVITY, DRIVE)
    assert rates.rate_sigma_plus > 30 * rates.rate_sigma_minus
    mirrored = adiabatic_rates("down", 6.8e6, (0, 0, 0), SHIFTS_ON, SCHEME,
                               CAVITY, DRIVE)
    assert mirrored.rate_sigma_minus == rates.rate_sigma_plus
    assert mirrored.rate_sigma_plus == rates.rate_sigma_minus
    assert mirrored.spin_flip_rate == rates.spin_flip_rate
    assert mirrored.free_space_rate == rates.free_space_rate


def test_rates_even_in_detuning_without_shift():
    for det in (1.3e6, 4.4e6):
        plus = adiabatic_rates("up", det, (0, 0, 0), SHIFTS_OFF, SCHEME,
                               CAVITY, DRIVE)
        minus = adiabatic_rates("up", -det, (0, 0, 0), SHIFTS_OFF, SCHEME,
                                CAVITY, DRIVE)
        assert plus.rate_sigma_plus == minus.rate_sigma_plus
        assert plus.rate_sigma_minus == minus.rate_sigma_minus
        assert plus.spin_flip_rate == minus.spin_flip_rate


def test_far_position_kills_cavity_rates_only():
    far = (0.0, 5 * CAVITY.mode_waist, 0.0)
    rates = adiabatic_rates("up", 0.0, far, SHIFTS_OFF, SCHEME, CAVITY,
                            DRIVE)
    near = adiabatic_rates("up", 0.0, (0, 0, 0), SHIFTS_OFF, SCHEME, CAVITY,
                           DRIVE)
    assert rates.rate_sigma_plus < 1e-15 * near.rate_sigma_plus
    assert rates.free_space_rate > 0.1 * near.free_space_rate


def test_spin_flip_fraction_decreases_with_splitting():
    """The whole point of the level engineering: a larger engineered
    splitting suppresses the off-cyclic excitation that causes flips."""
    fractions = []
    for scale in (0.25, 0.5, 1.0, 2.0):
        shifts = ShiftResult(delta_32=6.8e6 * scale, delta_12=-12.8e6 * scale)
        r = adiabatic_rates("up", shifts.delta_32, (0, 0, 0), shifts,
                            SCHEME, CAVITY, DRIVE)
        total = r.rate_sigma_plus + r.rate_sigma_minus + r.free_space_rate
        fractions.append(r.spin_flip_rate / total)
    assert all(a > b for a, b in zip(fractions, fractions[1:]))


def test_bad_cavity_flag():
    strong = CavityParams(g0=constants.TWO_PI * 6.0e6,
                          kappa=constants.TWO_PI * 1.0e6)
    flagged = adiabatic_rates("up", 0.0, (0, 0, 0), SHIFTS_OFF, SCHEME,
                              strong, WEAK_DRIVE)
    assert not flagged.bad_cavity_ok
    far = adiabatic_rates("up", 0.0, (0, 5 * strong.mode_waist, 0),
                          SHIFTS_OFF, SCHEME, strong, WEAK_DRIVE)
    assert far.bad_cavity_ok


def test_vectorized_rates_match_scalar_calls():
    z = np.array([-20e-6, -5e-6, 0.0, 3e-6, 15e-6])
    pos = (np.zeros_like(z), np.zeros_like(z), z)
    g, om_sq = coupling_at(pos, CAVITY), drive_rabi_sq(pos, DRIVE, CAVITY)
    frac = np.exp(-z ** 2 / (50e-6) ** 2)
    shifts = ShiftResult(delta_32=6.8e6 * frac, delta_12=-12.8e6 * frac)
    vec = spin_rates("up", g, om_sq, 6.8e6, shifts, CAVITY)
    for i in range(len(z)):
        one = ShiftResult(delta_32=float(shifts.delta_32[i]),
                          delta_12=float(shifts.delta_12[i]))
        scal = spin_rates("up", float(g[i]), float(om_sq[i]), 6.8e6, one,
                          CAVITY)
        assert scal.shape == (4,)
        for k in range(3):   # sigma+, sigma-, flip
            assert vec[i, k] == pytest.approx(scal[k], rel=1e-12)


def _complex_elimination_rates(coupling, omega, detunings):
    """Rates of the conditional model by the complex grade elimination:
    every grade, negative ones included, eliminated on its own from the
    top down, and grade 0 solved in complex arithmetic -- the reference for
    the real grade-0 solve of `_SpinModel`."""
    _, weights, comps, drive, quanta = _conditional_liouvillian(
        CAVITY.kappa, CAVITY.gamma)
    d = len(quanta)
    rows, cols = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    vec, grade = (rows + d * cols).ravel(), (quanta[rows] - quanta[cols]).ravel()
    top = int(grade.max())
    params = np.column_stack([np.ones_like(coupling), coupling,
                              *detunings]).astype(complex)
    om_sq = (omega ** 2)[:, None, None]

    def block(op, i, j):
        return op[np.ix_(vec[grade == i], vec[grade == j])]

    def drive_free(k):
        return np.einsum("nc,cij->nij", params,
                         np.stack([block(c, k, k) for c in comps]))

    b = drive_free(0)
    for sign in (+1, -1):
        y = None
        for k in range(sign * top, 0, -sign):
            s_k = drive_free(k)
            if y is not None:
                s_k -= block(drive, k, k + sign) @ y
            y = om_sq * np.linalg.solve(s_k, block(drive, k, k - sign))
        b -= block(drive, 0, sign) @ y
    level0 = list(vec[grade == 0])
    pops = [level0.index(a * (d + 1)) for a in range(d)]
    b[:, pops[0], :] = 0.0
    b[:, pops[0], pops] = 1.0
    rhs = np.zeros(b.shape[:2], complex)
    rhs[:, pops[0]] = 1.0
    x0 = np.linalg.solve(b, rhs[..., None])[..., 0]
    return x0[:, pops].real @ weights


def test_real_grade0_solve_matches_complex_elimination():
    rng = np.random.default_rng(2024)
    n = 96
    coupling = CAVITY.g0 * rng.uniform(0.0, 1.0, n)
    # Rabi frequencies from below saturation to a few kappa, detunings
    # across the power-broadened lines
    omega = np.exp(rng.uniform(math.log(0.1 * CAVITY.gamma),
                               math.log(3.0 * CAVITY.kappa), n))
    detunings = constants.TWO_PI * rng.uniform(-5e6, 5e6, (2, n))
    omega[:16] = 0.03 * CAVITY.gamma          # weak: saturation 5e-4
    detunings[:, 8:24] = 0.0                  # on resonance
    detunings[0, 24:32] = 0.0                 # one sublevel on resonance
    model = _spin_model(CAVITY.kappa, CAVITY.gamma)
    got = model.rates(coupling, omega, list(detunings))
    want = _complex_elimination_rates(coupling, omega, detunings)
    # every rate above 1e-6 of its point's largest, the weak points too
    sel = want > 1e-6 * want.max(axis=1, keepdims=True)
    assert sel.sum(axis=0).min() >= 64 and sel[:16].sum() >= 48
    np.testing.assert_allclose(got[sel], want[sel], rtol=1e-9)


def _rate_points(n):
    """n points of the rate model across drives, couplings and detunings."""
    rng = np.random.default_rng(n)
    coupling = CAVITY.g0 * rng.uniform(0.0, 1.0, n)
    omega = np.exp(rng.uniform(math.log(0.1 * CAVITY.gamma),
                               math.log(3.0 * CAVITY.kappa), n))
    detunings = constants.TWO_PI * rng.uniform(-5e6, 5e6, (2, n))
    return coupling, omega, list(detunings)


def _force_workers(monkeypatch, n):
    """Make the rate pool size itself to n CPUs."""
    monkeypatch.setattr(ratemodel.os, "sched_getaffinity",
                        lambda pid: set(range(n)))


# a 2-d table, a short last task, a 3-d table
@pytest.mark.parametrize("n_points", [96, 97, 1344])
def test_rate_pool_changes_no_bit(monkeypatch, n_points):
    model = _spin_model(CAVITY.kappa, CAVITY.gamma)
    points = _rate_points(n_points)
    got = {}
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        got[workers] = model.rates(*points)
    assert np.array_equal(got[1], got[2])


@pytest.fixture
def blas_count():
    """The getter of numpy's OpenBLAS thread count, held at 2 for the test
    so that a restore can be told from the rate pool's cap of 1, or None
    where numpy bundles no OpenBLAS whose count can be set."""
    blas = ratemodel._blas_threads()
    if blas is None:
        yield None
        return
    get, put = blas
    saved = get()
    put(2)
    yield get
    put(saved)


def test_rate_pool_failure_raises_and_restores_blas(monkeypatch, blas_count):
    model = _spin_model(CAVITY.kappa, CAVITY.gamma)
    solve = ratemodel._SpinModel._populations
    seen = []

    def failing(self, params, omega):
        seen.append(blas_count() if blas_count else None)
        if np.any(params[:, 1] == coupling[ratemodel._TASK]):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(self, params, omega)

    coupling, omega, detunings = _rate_points(4 * ratemodel._TASK)
    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(ratemodel._SpinModel, "_populations", failing)
    with pytest.raises(NumericalError, match="rate-model solve failed"):
        model.rates(coupling, omega, detunings)
    if blas_count is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be "
                    "set, so there is no count to restore")
    assert seen and set(seen) == {1}
    assert blas_count() == 2


def test_concurrent_rate_calls_keep_their_bits_and_the_blas_count(
        blas_count):
    # callers on several threads share the OpenBLAS thread count; the
    # lock must keep one caller's restore from undoing another's cap
    model = _spin_model(CAVITY.kappa, CAVITY.gamma)
    points = [_rate_points(n) for n in (48, 72, 96)]
    want = [model.rates(*p) for p in points]
    got = {}

    def call(k):
        for _ in range(3):
            got[k] = model.rates(*points[k])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(k,))
                   for k in range(len(points))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in callers)
    assert all(np.array_equal(got[k], want[k]) for k in range(len(points)))
    if blas_count:
        assert blas_count() == 2


def test_conditional_model_guards_its_spin_up_sector(monkeypatch):
    # a pi drive on |up> reaches m'=+1/2, which emits a sigma+ photon into
    # |down>: the spin-up sector is no longer closed
    pi_up = (+1, 0, +1, 0.5, float(constants.EXCITATION_WEIGHTS[(+1, 0)]))
    monkeypatch.setattr(ratemodel, "DRIVE_TRANSITIONS",
                        ratemodel.DRIVE_TRANSITIONS + (pi_up,))
    with pytest.raises(ModelError, match="spin-up sector"):
        _conditional_liouvillian(CAVITY.kappa, CAVITY.gamma)


def test_invalid_spin_label():
    with pytest.raises(ValueError):
        adiabatic_rates("sideways", 0.0, (0, 0, 0), SHIFTS_OFF, SCHEME,
                        CAVITY, DRIVE)


def test_cavity_params_validation():
    with pytest.raises(ConfigError):
        CavityParams(g0=0.0)
    with pytest.raises(ConfigError):
        CavityParams(detection_efficiency=1.5)
    with pytest.raises(ConfigError):
        CavityParams(dark_rate_sigma_plus_per_ms=-1.0)


def test_coupling_profile_tail():
    # transverse offset of 3 waists suppresses the coupling *rate* (g^2)
    # below e^-18 of its peak
    g_center = coupling_at((0, 0, 0), CAVITY)
    g_far = coupling_at((0, 3 * CAVITY.mode_waist, 0), CAVITY)
    assert (g_far / g_center) ** 2 < math.exp(-18.0) * (1 + 1e-9)


def test_coupling_far_off_the_mode_is_zero():
    # y^2 + z^2 overflows to inf: the coupling's limit, 0, is the answer
    # and no overflow warning is printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert coupling_at((0.0, 1e300, 0.0), CAVITY) == 0.0
        g = coupling_at((0.0, np.array([2e300, 0.0]), 1e-5), CAVITY)
    assert g[0] == 0.0 and g[1] > 0.0
