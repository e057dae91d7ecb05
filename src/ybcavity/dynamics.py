"""Full two-mode Lindblad model of the atom-cavity system.

The six-level atom of `ratemodel` (|up>, |down> and the four 3P1(F'=3/2)
sublevels) tensor the Fock spaces of the sigma+ and sigma- cavity modes,
both cut at n_max photons, under the same unit terms (`model_terms`) and
Liouvillian formula (`liouvillian_triplets`) as the per-spin rate model,
here as a sparse generator with its steady state and time evolution.  No
CLI command runs it: it is the reference the rate model is checked
against (see the tests), and `adiabatic_rates` is the one-point entry to
the rate model.  kappa and gamma are HWHM-convention rates, so the
collapse channels carry 2*kappa and 2*gamma.

Conventions: positions are (x, y, z) with x the cavity axis, y the beam
axis and z the fall axis; `excitation_detuning` is a plain frequency in Hz
(the rest of the package's "user-facing" surfaces are Hz), all internal
rates rad/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from . import constants
from .atomic import LevelScheme
from .errors import ConfigError, ModelError, NumericalError
from .lightshift import BeamParams, ShiftResult
from .ratemodel import (EXCITED_INDEX, GROUND_INDEX, N_ATOM, CavityParams,
                        atom_proj, basis_quanta, coupling_at, drive_rabi_sq,
                        liouvillian_triplets, model_terms, one_blas_thread,
                        spin_rates)

TWO_PI = constants.TWO_PI


@dataclass
class EmissionRates:
    """Effective emission/loss rates (photons/s or events/s).

    Cavity rates are photons emitted *into* each mode; detector-side counts
    are thinned by the detection efficiency downstream.  bad_cavity_ok goes
    False when the local coupling exceeds kappa, where the photon cut-offs
    of the rate model are no longer safe.
    """

    rate_sigma_plus: float
    rate_sigma_minus: float
    spin_flip_rate: float
    free_space_rate: float
    bad_cavity_ok: bool = True


def build_hamiltonian(scheme: LevelScheme, cavity: CavityParams,
                      drive: BeamParams, shifts: ShiftResult,
                      excitation_detuning: float, position=(0.0, 0.0, 0.0),
                      n_max: int = 2) -> np.ndarray:
    """Rotating-frame Hamiltonian (rad/s) on the atom x Fock^2 space.

    Terms: diagonal light shifts minus the common excitation detuning on
    the excited sublevels, weighted Jaynes-Cummings coupling of each
    sigma+/- transition to its cavity mode evaluated at `position`, and the
    classical drive split into its spherical components.  The cavity modes
    are taken resonant with the drive frequency (the experiment locks them
    together), so no bare photon term appears.
    """
    if n_max < 1:
        raise ModelError(f"Fock truncation n_max must be >= 1, got {n_max}")
    excited, h_g, h_om, _, _ = model_terms(n_max, n_max)
    delta_rad = TWO_PI * excitation_detuning
    shift_rad = {3: TWO_PI * shifts.delta_32, 1: TWO_PI * shifts.delta_12}
    h = (float(coupling_at(position, cavity)) * h_g
         + math.sqrt(float(drive_rabi_sq(position, drive, cavity))) * h_om)
    for e2, proj in excited.items():
        h += (shift_rad[abs(e2)] - delta_rad) * proj
    return h.astype(complex)


@dataclass
class LindbladGenerator:
    """Sparse Liouvillian acting on column-stacked density matrices, built
    from the Hamiltonian and the (name, operator) collapse channels when
    the generator is made, so `replace` rebuilds it too."""

    h: np.ndarray
    collapse_ops: tuple
    n_max: int
    liouvillian: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=complex)
        self.collapse_ops = tuple(self.collapse_ops)
        self.liouvillian = _liouvillian(
            self.h, [op for _, op in self.collapse_ops])

    @property
    def dim(self):
        return self.h.shape[0]


def _liouvillian(h, ops) -> sp.csr_matrix:
    """`liouvillian_triplets` summed into CSR; exact cancellations are
    dropped."""
    vals, rows, cols = liouvillian_triplets(h, ops)
    lio = sp.csr_matrix((vals, (rows, cols)), shape=(h.shape[0] ** 2,) * 2)
    lio.eliminate_zeros()
    return lio


def build_lindblad(h: np.ndarray, scheme: LevelScheme,
                   cavity: CavityParams) -> LindbladGenerator:
    """Attach the dissipative channels to a Hamiltonian.

    Channels: photon loss of each cavity mode at 2*kappa, and free-space
    decay of every excited sublevel at 2*gamma split across its branching
    table.  The Fock truncation is inferred from the Hamiltonian dimension.
    """
    dim = h.shape[0]
    n_ph_sq, rem = divmod(dim, N_ATOM)
    n_ph = int(round(math.sqrt(n_ph_sq)))
    if rem or n_ph * n_ph != n_ph_sq or n_ph < 2:
        raise ModelError(f"Hamiltonian dimension {dim} is not 6 * n_ph^2")
    n_max = n_ph - 1
    _, _, _, modes, embed = model_terms(n_max, n_max)

    collapse = [(name, math.sqrt(2.0 * cavity.kappa) * a) for name, a in
                zip(("cavity_sigma_plus", "cavity_sigma_minus"), modes)]
    for e2, branches in constants.DECAY_BRANCHES.items():
        e_idx = EXCITED_INDEX[e2]
        for g2, q, frac in branches:
            op = embed(atom_proj(GROUND_INDEX[g2], e_idx))
            rate = 2.0 * cavity.gamma * float(frac)
            collapse.append((f"decay_m{e2:+d}_q{q:+d}", math.sqrt(rate) * op))
    return LindbladGenerator(h, collapse, n_max)


# tolerances of a physical density matrix (`SystemState.validate`) and of
# the steady-state residual relative to the Liouvillian's scale
_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIG_FLOOR = -1e-8
_RESIDUAL_TOL = 1e-9


@dataclass
class SystemState:
    """Density matrix plus the dimension metadata needed to interpret it."""

    rho: np.ndarray
    n_max: int

    @property
    def dim(self):
        return N_ATOM * (self.n_max + 1) ** 2

    def validate(self):
        if self.rho.shape != (self.dim, self.dim):
            raise ModelError("density matrix shape does not match metadata")
        herm = np.max(np.abs(self.rho - self.rho.conj().T))
        if herm > _HERM_TOL:
            raise NumericalError(f"Hermiticity violation {herm:.2e}")
        tr = np.trace(self.rho).real
        if abs(tr - 1.0) > _TRACE_TOL:
            raise NumericalError(f"trace deviates from 1 by {tr - 1.0:.2e}")
        min_eig = float(np.linalg.eigvalsh(self.rho)[0])
        if min_eig < _EIG_FLOOR:
            raise NumericalError(f"negative eigenvalue {min_eig:.2e}")
        return self

    def photon_number(self, mode: int) -> float:
        """<a^dag a> of mode 0 (sigma+) or 1 (sigma-)."""
        if mode not in (0, 1):
            raise ValueError(f"mode must be 0 (sigma+) or 1 (sigma-), "
                             f"got {mode!r}")
        n_ph = self.n_max + 1
        pops = np.diagonal(self.rho).real.reshape(N_ATOM, n_ph, n_ph)
        per_n = pops.sum(axis=(0, 2) if mode == 0 else (0, 1))
        return float(per_n @ np.arange(n_ph))

    def atom_populations(self) -> np.ndarray:
        """Populations of the six atomic levels, traced over the field."""
        n_ph_sq = (self.n_max + 1) ** 2
        blocks = self.rho.reshape(N_ATOM, n_ph_sq, N_ATOM, n_ph_sq)
        return np.einsum("ikik->i", blocks).real

    def ground_populations(self):
        pops = self.atom_populations()
        return float(pops[GROUND_INDEX[+1]]), float(pops[GROUND_INDEX[-1]])


def ground_vacuum_state(n_max: int, p_up: float = 0.5) -> SystemState:
    """Spin mixture in the ground state with both modes in vacuum."""
    dim = N_ATOM * (n_max + 1) ** 2
    rho = np.zeros((dim, dim), dtype=complex)
    n_ph_sq = (n_max + 1) ** 2
    rho[GROUND_INDEX[+1] * n_ph_sq, GROUND_INDEX[+1] * n_ph_sq] = p_up
    rho[GROUND_INDEX[-1] * n_ph_sq, GROUND_INDEX[-1] * n_ph_sq] = 1.0 - p_up
    return SystemState(rho=rho, n_max=n_max)


def _reduction(lio, n_max: int, seeds, vec=None):
    """Reduced unknowns of the states whose column-stacked entries `seeds`
    are nonzero: (rows, expand), where the full vector is expand @ x and
    lio[rows] @ expand is the generator on x.

    Kept are the connected components of the Liouvillian's sparsity graph
    that hold a seed; the rest of the vector is zero and stays zero.  Each
    pair (v, Pv) of the mirror P (m -> -m with the sigma+ and sigma- modes
    swapped, on both indices of rho) is one unknown when the generator
    commutes with P and `vec`, if given, is P-symmetric, since the
    solution is then P-symmetric too; otherwise every unknown stays.
    """
    _, label = csgraph.connected_components(abs(lio), directed=False)
    block = np.isin(label, label[seeds])
    n_ph = n_max + 1
    flip = np.empty(N_ATOM, int)
    for table in (GROUND_INDEX, EXCITED_INDEX):
        flip[list(table.values())] = [table[-m2] for m2 in table]
    atom, n_p, n_m = np.unravel_index(np.arange(N_ATOM * n_ph * n_ph),
                                      (N_ATOM, n_ph, n_ph))
    mirror = np.ravel_multi_index((flip[atom], n_m, n_p), (N_ATOM, n_ph, n_ph))
    partner = np.add.outer(mirror, len(mirror) * mirror).ravel(order="F")
    index = np.arange(len(label))
    if not (np.array_equal(block[partner], block)
            and (vec is None or np.array_equal(vec[partner], vec))
            and abs(lio[partner][:, partner] - lio).max()
            <= 1e-12 * max(abs(lio).max(), 1.0)):
        partner = index
    rep = np.minimum(index, partner)
    rows = np.flatnonzero(block & (rep == index))
    members = np.flatnonzero(block)
    expand = sp.csr_matrix(
        (np.ones(len(members)), (members, np.searchsorted(rows, rep[members]))),
        shape=(len(index), len(rows)))
    return rows, expand


def _graded_solve(red, rows, expand, trace, n_max):
    """Null vector x of the reduced generator `red` (the unknowns `rows`
    and `expand` of `_reduction`) with trace @ x = 1, by grade.

    With A_jk the block of grade j's equations in grade k's unknowns,
    S_K = A_KK at the top grade K, Y_k = S_k^-1 A_k,k-1 on the nonzero
    columns of A_k,k-1, and S_k-1 = A_k-1,k-1 - A_k-1,k Y_k down to S_0,
    to which grade -1 adds grade 1's term conjugated and permuted by the
    map rho_ab -> rho_ba within grade 0.  Then x_0 solves S_0 with the
    trace row in place of rho_00's equation, x_k = -Y_k x_k-1, and grade
    -k is the conjugate of grade k.
    """
    dim = N_ATOM * (n_max + 1) ** 2
    quanta = basis_quanta(n_max, n_max)
    grade = quanta[rows % dim] - quanta[rows // dim]
    red = red.tocoo()
    g_row, g_col = grade[red.row], grade[red.col]
    if np.any(np.abs(g_row - g_col) > 1):
        raise ModelError("full model lost its quantum-number grading")
    swapped = (rows % dim) * dim + rows // dim       # rho_ab -> rho_ba
    conj_of = expand.indices[expand.indptr[swapped]]
    top = int(grade.max())
    level = [np.flatnonzero(grade == k) for k in range(top + 1)]
    pos = np.empty(len(rows), int)
    for idx in level:
        pos[idx] = np.arange(len(idx))

    # the entries of block (k, k - 1 + b) at part 3k + b, grades >= 0 only
    keep = np.flatnonzero((g_row >= 0) & (g_col >= 0))
    part = 3 * g_row[keep] + g_col[keep] - g_row[keep] + 1
    order = keep[np.argsort(part, kind="stable")]
    counts = np.bincount(part, minlength=3 * top + 3)
    parts = np.split(order, np.cumsum(counts)[:-1])
    r_pos, c_pos = pos[red.row], pos[red.col]
    diag, down, up, cols = {}, {}, {}, {}
    for k in range(top + 1):
        n_k = len(level[k])
        e = parts[3 * k + 1]
        diag[k] = np.zeros((n_k, n_k), complex)
        diag[k][r_pos[e], c_pos[e]] = red.data[e]
        if k > 0:   # the drive down, on its nonzero columns only
            e = parts[3 * k]
            cols[k], at = np.unique(c_pos[e], return_inverse=True)
            down[k] = np.zeros((n_k, len(cols[k])), complex)
            down[k][r_pos[e], at] = red.data[e]
        if k < top:   # the drive up, only ever multiplied
            e = parts[3 * k + 2]
            up[k] = sp.csr_matrix((red.data[e], (r_pos[e], c_pos[e])),
                                  shape=(n_k, len(level[k + 1])))

    ys = {}
    for k in range(top, 0, -1):
        ys[k] = np.linalg.solve(diag[k], down[k])
        schur = up[k - 1] @ ys[k]
        diag[k - 1][:, cols[k]] -= schur
    if top > 0:   # grade -1's term, by the conjugation map
        perm = pos[conj_of[level[0]]]
        diag[0][:, perm[cols[1]]] -= schur[perm].conj()
    diag[0][0] = trace[level[0]]          # rows[0] is rho_00
    rhs = np.zeros(len(level[0]), complex)
    rhs[0] = 1.0
    x = np.empty(len(rows), complex)
    x[level[0]] = np.linalg.solve(diag[0], rhs)
    for k in range(1, top + 1):
        x[level[k]] = -ys[k] @ x[level[k - 1]][cols[k]]
        x[conj_of[level[k]]] = x[level[k]].conj()
    return x


def steady_state(generator: LindbladGenerator,
                 initial_state: SystemState | None = None) -> SystemState:
    """Stationary state of the generator.

    Without light there is no process connecting the two ground spin
    states, the stationary manifold is degenerate, and the physical answer
    depends on history: in that case the ground-sector populations of
    `initial_state` (default: an even mixture) are preserved.  Otherwise
    the unique null vector is found with the trace constraint replacing
    one equation.

    The solve runs on the reduced unknowns of `_reduction` seeded by the
    populations: the Liouvillian's block that holds them (half of rho;
    the unique steady state has no weight outside it) and, when the model
    is mirror-symmetric, one unknown per mirror pair, a quarter of rho.
    Only the drive changes the quanta of `basis_quanta`, so grading each
    unknown rho_ab by q_a - q_b makes the reduced system block
    tridiagonal (a ModelError says if it is not), and `_graded_solve`
    eliminates it with dense blocks, not a sparse LU: the grades above 0
    from the top down; the grades below 0 folded onto them, since
    rho_ba = conj(rho_ab) maps each unknown to one of the opposite grade
    and the reduced equations are conjugate-symmetric under that map;
    then grade 0, the populations', with the trace row.  numpy's OpenBLAS
    is held to one thread meanwhile (`one_blas_thread`): on blocks of a
    few hundred its threads gain little on idle cores and lose much on
    busy ones.  A singular block is a NumericalError.  The state is then
    expanded and checked against the full Liouvillian, so a wrong
    reduction or a generator without the conjugate symmetry can only
    raise, never return a wrong state.
    """
    lio = generator.liouvillian
    dim = generator.dim
    n_max = generator.n_max

    # degenerate dark manifold: both ground-vacuum states stationary
    scale = max(abs(lio).max(), 1.0)
    dark_resid = []
    for p_up in (1.0, 0.0):
        cand = ground_vacuum_state(n_max, p_up=p_up).rho.flatten(order="F")
        dark_resid.append(np.max(np.abs(lio @ cand)))
    if max(dark_resid) < 1e-12 * scale:
        if initial_state is None:
            return ground_vacuum_state(n_max)
        p_up, p_dn = initial_state.ground_populations()
        total = p_up + p_dn
        p = 0.5 if total <= 0 else p_up / total
        return ground_vacuum_state(n_max, p_up=p)

    diag = np.arange(dim) * (dim + 1)
    rows, expand = _reduction(lio, n_max, diag)
    trace = np.asarray(expand[diag].sum(axis=0)).ravel()
    try:
        with one_blas_thread():
            x = _graded_solve(lio[rows] @ expand, rows, expand, trace, n_max)
    except np.linalg.LinAlgError as exc:  # a singular block
        raise NumericalError(f"steady-state solve failed: {exc}") from exc

    rho = (expand @ x).reshape((dim, dim), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if not np.isfinite(tr) or abs(tr) < 1e-12:
        raise NumericalError("steady-state solve returned an unusable state")
    rho = rho / tr
    residual = np.max(np.abs(lio @ rho.flatten(order="F"))) / scale
    if not residual < _RESIDUAL_TOL:
        raise NumericalError(f"steady-state residual {residual:.3e} "
                             f"exceeds {_RESIDUAL_TOL:.1e}")
    return SystemState(rho=rho, n_max=n_max)


def evolve(rho0: SystemState, generator: LindbladGenerator,
           t: float) -> SystemState:
    """Propagate rho0 for a time t (s) under the generator.

    The propagation runs on the reduced unknowns of `_reduction` seeded by
    the nonzero entries of rho0: entries outside the Liouvillian blocks
    they lie in stay zero, and a mirror-symmetric rho0 stays symmetric
    under a mirror-symmetric generator, so each mirror pair is one
    unknown.  Both hold exactly, so the expanded result is unchanged.
    """
    if t < 0:
        raise ConfigError(f"evolution time must be >= 0, got {t}")
    if rho0.rho.shape[0] != generator.dim:
        raise ModelError("state and generator dimensions differ")
    if t == 0.0 or not rho0.rho.any():  # nothing moves
        return SystemState(rho=rho0.rho.copy(), n_max=rho0.n_max)
    vec = rho0.rho.flatten(order="F").astype(complex)
    lio = generator.liouvillian
    rows, expand = _reduction(lio, generator.n_max, np.flatnonzero(vec), vec)
    try:
        out = expand @ spla.expm_multiply((lio[rows] @ expand) * t, vec[rows])
    except Exception as exc:
        raise NumericalError(f"time propagation failed: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise NumericalError("time propagation produced non-finite entries")
    return SystemState(rho=out.reshape((generator.dim,) * 2, order="F"),
                       n_max=generator.n_max)


def adiabatic_rates(spin: str, excitation_detuning: float, position,
                    shifts: ShiftResult, scheme: LevelScheme,
                    cavity: CavityParams, drive: BeamParams) -> EmissionRates:
    """Emission into each cavity mode, flip and free-space rates for one
    ground spin state at a position (name kept from the earlier adiabatic
    closed form).

    The rates come from `spin_rates`: the steady state of the spin's
    conditional master equation with the cavity kept explicit.  At the
    reference drive they agree with the per-spin conditional steady state
    of the full six-level model within 2% for every rate, with the shift
    beam on and off, across the mode; at weak drive they reduce to the
    Purcell-broadened linear Lorentzian.

    One position and scalar shifts in, floats out; `spin_rates` is the
    vectorized entry point.
    """
    g = coupling_at(position, cavity)
    rates = spin_rates(spin, g, drive_rabi_sq(position, drive, cavity),
                       excitation_detuning, shifts, cavity)
    return EmissionRates(*rates.tolist(), bool(g < cavity.kappa))
