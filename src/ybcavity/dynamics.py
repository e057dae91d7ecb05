"""Two-mode atom-cavity dynamics: full Lindblad model and per-spin rates.

The Hilbert space is {|up>, |down>, four 3P1(F'=3/2) sublevels} tensor
Fock(sigma+ mode) tensor Fock(sigma- mode).  The sigma+ cavity mode couples
every q = +1 transition with its coupling weight, the sigma- mode every
q = -1 transition; the classical side drive, polarized along y, enters
as equal sigma+ and sigma- components on the four transitions of
`DRIVE_TRANSITIONS` (the only drive modelled, so the beam carries no
polarization).  kappa and gamma are HWHM-convention rates, so Lindblad
collapse channels carry 2*kappa and 2*gamma.

The sampler needs rates for one ground spin at a time.  `spin_rates` gets
them from the conditional steady state of the full model's spin-up
sector: the spin and the excited sublevels the drive reaches from it, with
the mode of its cyclic transition up to two photons and the other mode up
to one, every decay that would leave the spin sent back to it and counted
as a flip.  Both models are built from the same unit terms
(`_model_terms`).  The cavity is kept explicit because at the reference
drive (Rabi frequency comparable to kappa, ~1300x saturation) neither
adiabatic elimination of the cavity nor independent saturated Lorentzians
per drive channel hold.  The full model is the reference the sector is
checked against, at the operating drive, with the shift beam on and off
(see the tests).

Conventions: positions are (x, y, z) with x the cavity axis, y the beam
axis and z the fall axis; `excitation_detuning` is a plain frequency in Hz
(the rest of the package's "user-facing" surfaces are Hz), all internal
rates rad/s.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import constants
from .atomic import LevelScheme, rabi_sq
from .errors import ConfigError, ModelError, NumericalError, check, rule
from .lightshift import BeamParams, ShiftResult

TWO_PI = constants.TWO_PI

# atom basis order: ground up, ground down, then excited by descending m'
GROUND_INDEX = {+1: 0, -1: 1}
EXCITED_INDEX = {+3: 2, +1: 3, -1: 4, -3: 5}
N_ATOM = 6


@dataclass(frozen=True)
class CavityParams:
    """Cavity and detection parameters.

    g0, kappa, gamma are angular rates (rad/s); kappa and gamma are HWHM
    convention.  gamma is the 3P1 half linewidth, the one source of both
    the free-space decay and the drive's dipole (`drive_rabi_sq`).  Dark
    rates are counts per millisecond per detector, matching how such
    detectors are usually quoted.
    """

    g0: float = rule(constants.G0, gt=0.0)
    kappa: float = rule(constants.KAPPA, gt=0.0)
    gamma: float = rule(constants.GAMMA_P1, gt=0.0)
    mode_waist: float = rule(constants.MODE_WAIST, gt=0.0)
    detection_efficiency: float = rule(constants.DETECTION_EFFICIENCY,
                                       ge=0.0, le=1.0)
    dark_rate_sigma_plus_per_ms: float = rule(
        constants.DARK_RATE_SIGMA_PLUS_PER_MS, ge=0.0)
    dark_rate_sigma_minus_per_ms: float = rule(
        constants.DARK_RATE_SIGMA_MINUS_PER_MS, ge=0.0)

    __post_init__ = check   # no rule spans fields

    @property
    def dark_rates_per_s(self):
        return (self.dark_rate_sigma_plus_per_ms * 1e3,
                self.dark_rate_sigma_minus_per_ms * 1e3)


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


def axial_profile(phase):
    """Axial factor |cos(phase)| of the coupling at standing-wave phase
    2*pi*x/lambda: the two-mirror cavity's standing wave, with antinodes
    (1) and nodes (0)."""
    return np.abs(np.cos(phase))


def coupling_at(position, cavity: CavityParams) -> float:
    """Atom-cavity coupling g (rad/s) at (x, y, z): the axial standing wave
    along x (antinode at x = 0) times the Gaussian transverse envelope in
    (y, z).  The rates are not linear in g^2 at the operating drive, so
    the standing wave is resolved rather than replaced by its RMS."""
    x, y, z = position
    phase = TWO_PI * np.asarray(x) / constants.WAVELENGTH_GREEN
    with np.errstate(over="ignore"):   # far off the mode: coupling 0
        return (cavity.g0 * axial_profile(phase)
                * np.exp(-(np.asarray(y) ** 2 + np.asarray(z) ** 2)
                         / cavity.mode_waist ** 2))


def drive_rabi_sq(position, drive: BeamParams, cavity: CavityParams) -> float:
    """Total squared Rabi frequency (rad^2/s^2) of the excitation beam at a
    point, before polarization decomposition and coupling weights;
    broadcasts over array coordinates.

    It is `atomic.rabi_sq` at 556 nm with the 3P1 natural width
    (2*cavity.gamma) as the decay rate, i.e. the cyclic weight-1
    transition; each P1 sublevel decays at that same total rate, so no
    extra multiplicity factor appears.
    """
    x, _, z = position
    return rabi_sq(drive.peak_intensity * drive.profile(x, z),
                   2.0 * cavity.gamma, constants.WAVELENGTH_GREEN)


# The transitions the drive excites, as (ground m2, q, excited m2,
# intensity fraction, squared coupling weight), spin up first and sigma+
# before sigma-.  The readout drives both cyclic transitions with one beam
# polarized along y, an equal sigma+/sigma- superposition with no pi part;
# it is the only drive modelled.
DRIVE_TRANSITIONS = tuple(
    (g2, q, g2 + 2 * q, 0.5, float(constants.EXCITATION_WEIGHTS[(g2, q)]))
    for g2 in (+1, -1) for q in (+1, -1))


def _cavity_couplings(e2: int):
    """Cavity-coupled transitions of an excited sublevel: a list of
    (mode q, squared weight, ground m2)."""
    out = []
    for q in (+1, -1):
        g2 = e2 - 2 * q
        if abs(g2) == 1:
            out.append((q, float(constants.EXCITATION_WEIGHTS[(g2, q)]), g2))
    return out


# ---------------------------------------------------------------------------
# full model


def _atom_proj(i, j):
    op = np.zeros((N_ATOM, N_ATOM))
    op[i, j] = 1.0
    return op


@lru_cache(maxsize=8)
def _model_terms(n_plus: int, n_minus: int):
    """Unit terms of the six-level model on atom x Fock x Fock, the sigma+
    and sigma- modes cut at n_plus and n_minus photons, as (excited,
    coupling, drive, modes, embed): the projector of each excited sublevel
    keyed by its m2, the cavity coupling at g = 1 and the drive at Omega = 1
    (both Hermitian), the two mode annihilators, and embed(atom_op, plus,
    minus), which lifts atom and mode operators onto the space (identities
    by default).  Built once per cutoff pair, read-only."""
    a_plus = np.diag(np.sqrt(np.arange(1.0, n_plus + 1)), k=1)
    a_minus = np.diag(np.sqrt(np.arange(1.0, n_minus + 1)), k=1)
    i_plus, i_minus = np.eye(n_plus + 1), np.eye(n_minus + 1)

    def embed(atom_op, plus=i_plus, minus=i_minus):
        return np.kron(atom_op, np.kron(plus, minus))

    dim = N_ATOM * (n_plus + 1) * (n_minus + 1)
    coupling, drive = np.zeros((dim, dim)), np.zeros((dim, dim))
    for e2, e_idx in EXCITED_INDEX.items():
        for q, w, g2 in _cavity_couplings(e2):
            fld = (a_plus, i_minus) if q == +1 else (i_plus, a_minus)
            term = math.sqrt(w) * embed(_atom_proj(e_idx, GROUND_INDEX[g2]),
                                        *fld)
            coupling += term + term.T
    for g2, _, e2, frac, w in DRIVE_TRANSITIONS:
        term = 0.5 * math.sqrt(frac * w) * embed(
            _atom_proj(EXCITED_INDEX[e2], GROUND_INDEX[g2]))
        drive += term + term.T
    excited = {e2: embed(_atom_proj(i, i)) for e2, i in EXCITED_INDEX.items()}
    modes = (embed(np.eye(N_ATOM), plus=a_plus),
             embed(np.eye(N_ATOM), minus=a_minus))
    for op in (coupling, drive, *excited.values(), *modes):
        op.setflags(write=False)
    return excited, coupling, drive, modes, embed


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
    excited, h_g, h_om, _, _ = _model_terms(n_max, n_max)
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
    """Sparse Liouvillian of a Hamiltonian and dense collapse operators C
    on column-stacked rho, vec(A X B) = (B^T kron A) vec(X):
    L = I kron M + conj(M) kron I + sum_C conj(C) kron C, M = -iH - 1/2
    sum_C C^dag C, with conj(M) taken as (iH - 1/2 sum_C C^dag C)^T (the
    same for a Hermitian H).  The entries of all the Kronecker products
    are summed into CSR in one pass; exact cancellations are dropped."""
    dim = h.shape[0]
    if h.shape != (dim, dim):
        raise ModelError("Hamiltonian must be square")
    ops = [np.asarray(op) for op in ops]
    loss = sum((c.conj().T @ c for c in ops), np.zeros((dim, dim)))
    eye = np.eye(dim)
    pairs = [(eye, -1j * h - 0.5 * loss), ((1j * h - 0.5 * loss).T, eye)]
    terms = [(a, np.nonzero(a), b, np.nonzero(b))
             for a, b in pairs + [(c.conj(), c) for c in ops]]
    size = sum(ia[0].size * ib[0].size for _, ia, _, ib in terms)
    index = np.int32 if dim ** 2 < 2 ** 31 else np.int64
    rows, cols = np.empty(size, index), np.empty(size, index)
    vals, end = np.empty(size, complex), 0
    for a, (ra, ca), b, (rb, cb) in terms:
        part = slice(end, end + ra.size * rb.size)
        rows[part] = np.add.outer(ra * dim, rb).ravel()
        cols[part] = np.add.outer(ca * dim, cb).ravel()
        vals[part] = np.outer(a[ra, ca], b[rb, cb]).ravel()
        end = part.stop
    lio = sp.csr_matrix((vals, (rows, cols)), shape=(dim * dim,) * 2)
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
    _, _, _, modes, embed = _model_terms(n_max, n_max)

    collapse = [(name, math.sqrt(2.0 * cavity.kappa) * a) for name, a in
                zip(("cavity_sigma_plus", "cavity_sigma_minus"), modes)]
    for e2, branches in constants.DECAY_BRANCHES.items():
        e_idx = EXCITED_INDEX[e2]
        for g2, q, frac in branches:
            op = embed(_atom_proj(GROUND_INDEX[g2], e_idx))
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
    # imported here: only the full-model solves need it
    from scipy.sparse import csgraph

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


def steady_state(generator: LindbladGenerator,
                 initial_state: SystemState | None = None) -> SystemState:
    """Stationary state of the generator.

    Without light there is no process connecting the two ground spin
    states, the stationary manifold is degenerate, and the physical answer
    depends on history: in that case the ground-sector populations of
    `initial_state` (default: an even mixture) are preserved.  Otherwise
    the unique null vector is found by a direct sparse solve with the trace
    constraint replacing one row.

    The solve runs on the reduced unknowns of `_reduction` seeded by the
    populations: the Liouvillian's block that holds them (half of rho;
    the unique steady state has no weight outside it) and, when the model
    is mirror-symmetric, one unknown per mirror pair, a quarter of rho.
    The state is then expanded and checked against the full Liouvillian,
    so a wrong reduction can only raise, never return a wrong state.
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
    # rows[0] is rho_00, whose equation the trace condition replaces
    trace_row = sp.csr_matrix(expand[diag].sum(axis=0))
    a_mat = sp.vstack([trace_row, lio[rows[1:]] @ expand], format="csc")
    b = np.zeros(len(rows), dtype=complex)
    b[0] = 1.0
    try:
        x = spla.spsolve(a_mat, b)
    except Exception as exc:  # singular factorization and friends
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


# ---------------------------------------------------------------------------
# per-spin rates

# Photon cut-offs of the sigma+ and sigma- modes in the spin-up frame: two
# photons in the mode of the spin's own cyclic transition, one in the other.
# Against the six-level model at n_max = 2 this changes the rates by at
# most 1.4% at the operating point (the flip rate at an antinode with the
# shift beam off; under 0.05% with it on).
_FOCK_CUTOFF = (2, 1)
# Points per task of `_SpinModel.rates`' thread pool, so one per worker
# are in flight.  Per point, 24-point solves cost no more than 48- or
# 96-point ones, serially too.  A batch's work arrays set the peak RSS of
# a process that builds rate tables, and a pool thread's freed arrays stay
# in its own malloc arena, out of the main thread's reach: with 96 points
# in flight `scatter`'s peak rose 3 MiB over the serial solve's, with 48
# it falls 8 MiB below it.
_TASK = 24
_BLAS_LOCK = threading.RLock()


@lru_cache(maxsize=1)
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy,
    looked up on first use, or None where numpy bundles none.  numpy 2
    wheels bundle scipy-openblas, numpy 1 wheels openblas; the 64-bit
    integer builds suffix their symbols with 64_."""
    names = [(f"{lib}_get_num_threads{abi}", f"{lib}_set_num_threads{abi}")
             for lib in ("scipy_openblas", "openblas") for abi in ("64_", "")]
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get, put in names:
            if hasattr(lib, get) and hasattr(lib, put):
                get, put = getattr(lib, get), getattr(lib, put)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread, put it back on exit, and yield
    the rate pool's worker count: one per CPU this process may use, or one
    where the thread count cannot be set.  Left at its default, OpenBLAS
    spins its own threads on the cores the pool solves on.  A lock keeps
    concurrent callers from interleaving the save and the restore."""
    with _BLAS_LOCK:
        blas = _blas_threads()
        if blas is None:
            yield 1
            return
        get, put = blas
        saved = get()
        put(1)
        try:
            yield (len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
        finally:
            put(saved)


def _low_rank(mat):
    """mat = left @ right with the inner dimension cut to the numerical
    rank (the drive couples each block to only a few of its neighbours)."""
    u, sv, vh = np.linalg.svd(mat)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    return u[:, :rank] * sv[:rank], vh[:rank]


def _conditional_liouvillian(kappa: float, gamma: float):
    """Conditional master equation of the up spin under the linear drive,
    as (excited_m2, weights, comps, drive, quanta).

    It is the spin-up sector of the six-level model (`_model_terms`) with
    the modes cut at `_FOCK_CUTOFF`: the up ground state and the excited
    sublevels the drive reaches from it (their m2 in `excited_m2`), in
    that order, times the Fock states.  Those sublevels emit into the
    cavity only on their way back to up, so the coupling, the drive and
    the photon losses keep the sector closed (a ModelError says if they
    do not).  Each sublevel's free-space decay returns the atom to |up> at
    2*gamma, its branches to the other spin counting as flips, so the
    steady state is what the spin sees until it flips.

    The Liouvillian is sum_j p_j comps[j] + Omega drive with p = (1, g,
    Delta_e...): the jumps, the cavity coupling and one detuning per
    driven sublevel, as dense column-stacked superoperators.  `weights`
    maps the populations to the (sigma+, sigma-, flip, free) rates, and
    `quanta` counts each basis state's photons plus atomic excitation.
    """
    up = GROUND_INDEX[+1]
    excited_m2 = [e2 for g2, _, e2, _, _ in DRIVE_TRANSITIONS if g2 == +1]
    shape = (N_ATOM,) + tuple(n + 1 for n in _FOCK_CUTOFF)
    atoms = [up] + [EXCITED_INDEX[e2] for e2 in excited_m2]
    keep = np.ravel_multi_index(
        np.ix_(atoms, *map(range, shape[1:])), shape).ravel()
    excited, h_g, h_om, modes, embed = _model_terms(*_FOCK_CUTOFF)
    rest = np.ones(len(h_g), bool)
    rest[keep] = False
    for op in (h_g, h_om, *modes):
        if op[np.ix_(rest, keep)].any() or op[np.ix_(keep, rest)].any():
            raise ModelError("rate model's spin-up sector is not closed")

    def cut(op):
        return op[np.ix_(keep, keep)]

    jumps = [math.sqrt(2 * kappa) * cut(a) for a in modes]
    jumps += [math.sqrt(2 * gamma) * cut(embed(_atom_proj(
        up, EXCITED_INDEX[e2]))) for e2 in excited_m2]
    flip_frac = np.zeros(N_ATOM)
    for e2 in excited_m2:
        flip_frac[EXCITED_INDEX[e2]] = sum(
            float(f) for g2, _, f in constants.DECAY_BRANCHES[e2] if g2 != +1)
    atom, n_p, n_m = np.unravel_index(keep, shape)
    is_exc = atom != up
    # population -> (sigma+, sigma-, flip, free) rate weights
    weights = np.column_stack([2 * kappa * n_p, 2 * kappa * n_m,
                               2 * gamma * flip_frac[atom],
                               2 * gamma * is_exc])

    d = len(keep)
    comps = [_liouvillian(np.zeros((d, d)), jumps).toarray()] + [
        _liouvillian(cut(h), ()).toarray()
        for h in [h_g] + [excited[e2] for e2 in excited_m2]]
    drive = _liouvillian(cut(h_om), ()).toarray()
    quanta = n_p + n_m + is_exc
    return excited_m2, weights, comps, drive, quanta


class _SpinModel:
    """The rate model of `_conditional_liouvillian`, solved in batches on
    a thread pool, one worker per CPU, with numpy's OpenBLAS held to one
    thread (`_one_blas_thread`; one worker where it cannot be held).  The
    drive is mirror-symmetric (m -> -m swaps its sigma+ and sigma-
    parts), so spin down is this model with the sigma+ and sigma- modes
    swapped.

    The Hamiltonian is sum_e Delta_e P_e + g H_g + Omega H_Omega.  Only the
    drive changes the number of quanta, so grading each density-matrix
    element rho_ab by q_a - q_b makes the Liouvillian block tridiagonal.
    `_populations` eliminates the graded blocks from the top down to the
    grade-0 block and solves that one with the trace condition; grade -k
    is the adjoint of grade k.  Since rho is Hermitian, grade 0 is held in
    real coordinates (rho_aa, and the sum and the difference over i of
    each pair rho_ab, rho_ba), where grade -1 adds the complex conjugate of
    grade 1's term and the solve is real.
    """

    def __init__(self, kappa: float, gamma: float):
        self.excited_m2, self.weights, comps, drive, quanta = \
            _conditional_liouvillian(kappa, gamma)
        d = len(quanta)
        rows, cols = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        vec = (rows + d * cols).ravel()          # rho_ab -> a + d*b
        grade = (quanta[rows] - quanta[cols]).ravel()
        grade_of = np.empty(d * d, int)
        grade_of[vec] = grade
        for op, step in [(c, 0) for c in comps] + [(drive, 1)]:
            r, c = np.nonzero(op)
            if np.any(np.abs(grade_of[r] - grade_of[c]) != step):
                raise ModelError("rate model lost its quantum-number grading")

        top = int(grade.max())
        level = {k: vec[grade == k] for k in range(top + 1)}
        self.top = top
        self.size = {k: len(v) for k, v in level.items()}
        self.diag = {k: np.stack([c[np.ix_(level[k], level[k])].ravel()
                                  for c in comps]) for k in range(1, top + 1)}
        self.couple_up = {k: drive[np.ix_(level[k], level[k + 1])]
                          for k in range(1, top)}
        self.couple_down = {k: _low_rank(drive[np.ix_(level[k], level[k - 1])])
                            for k in range(1, top + 1)}
        pos0 = {v: n for n, v in enumerate(level[0])}
        # real grade-0 coordinates: rho_aa in place, and for each pair
        # (rho_ab, rho_ba) their sum at the first one's place and their
        # difference over i at the second one's
        to_real = np.zeros((self.size[0],) * 2, complex)
        for p, v in enumerate(level[0]):
            q = pos0[(v % d) * d + v // d]       # rho_ab -> rho_ba
            lo, hi = min(p, q), max(p, q)
            to_real[lo, p] = 1.0
            if p != q:
                to_real[hi, p] = -1j if p == lo else 1j
        from_real = np.linalg.inv(to_real)
        diag0 = np.stack([to_real @ c[np.ix_(level[0], level[0])] @ from_real
                          for c in comps])
        if np.abs(diag0.imag).max() > 1e-9 * np.abs(diag0).max():
            raise ModelError("rate model lost its Hermitian grade 0")
        self.diag[0] = diag0.real.reshape(len(comps), -1)
        # grade -1, the adjoint of grade 1, adds the complex conjugate of
        # grade 1's term in these coordinates, so the two add up to
        # 2 Re(up0 @ y_1 @ right): with y_1's product viewed as
        # interleaved (re, im) columns, right0's rows are 2 Re(right) and
        # -2 Im(right) interleaved
        self.up0 = to_real @ drive[np.ix_(level[0], level[1])]
        right = 2.0 * self.couple_down[1][1] @ from_real
        self.right0 = np.stack([right.real, -right.imag], axis=1).reshape(
            -1, self.size[0])
        self.pop_pos = np.array([pos0[a + d * a] for a in range(d)])

    def _populations(self, params, omega):
        """Steady-state populations for a batch: params (N, 2 + n_exc)
        = (1, g, Delta_e...), omega (N,) drive Rabi frequencies.

        With A_k the drive-free block of grade k and D the drive couplings
        (D_{k,k-1} = left @ right), grade k > 0 follows from grade k-1 as
        X_k = -Omega S_k^-1 D_{k,k-1} X_{k-1}, where
        S_k = A_k - Omega^2 D_{k,k+1} S_{k+1}^-1 D_{k+1,k}.
        """
        n_pts = params.shape[0]
        om_sq = (omega ** 2)[:, None, None]
        correction = None
        for k in range(self.top, 0, -1):
            n = self.size[k]
            a_k = (params @ self.diag[k]).reshape(n_pts, n, n)
            if correction is not None:
                a_k -= correction
            left, right = self.couple_down[k]
            y_k = np.linalg.solve(
                a_k, np.broadcast_to(left, (n_pts,) + left.shape))
            y_k *= om_sq
            if k > 1:
                rank, below = right.shape
                correction = ((self.couple_up[k - 1] @ y_k).reshape(
                    -1, rank) @ right).reshape(n_pts, -1, below)
        n0 = self.size[0]
        b = (params @ self.diag[0]).reshape(n_pts, n0, n0)
        term = (self.up0 @ y_k).view(float).reshape(-1, 2 * y_k.shape[2])
        b -= (term @ self.right0).reshape(n_pts, n0, n0)
        row = self.pop_pos[0]
        b[:, row, :] = 0.0
        b[:, row, self.pop_pos] = 1.0
        rhs = np.zeros((n_pts, n0, 1))
        rhs[:, row] = 1.0
        x0 = np.linalg.solve(b, rhs)[..., 0]
        return x0[:, self.pop_pos]

    def rates(self, coupling, omega, detunings):
        """Rate columns (sigma+, sigma-, flip, free) for 1-d point arrays.

        Tasks of `_TASK` points run on a pool of `_one_blas_thread`'s
        workers: numpy's solves and products release the GIL.  Every
        point is solved on its own, so the rates do not depend on the
        split.  The pool is joined before OpenBLAS gets its thread count
        back, a failed task included.
        """
        params = np.column_stack([np.ones_like(coupling), coupling,
                                  *detunings])
        out = np.empty((len(coupling), 4))

        def solve(lo):
            sl = slice(lo, lo + _TASK)
            out[sl] = self._populations(params[sl], omega[sl]) @ self.weights

        with _one_blas_thread() as workers:
            try:
                with ThreadPoolExecutor(workers) as pool:
                    list(pool.map(solve, range(0, len(coupling), _TASK)))
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"rate-model solve failed: {exc}") \
                    from exc
        if not np.all(np.isfinite(out)):
            raise NumericalError("rate-model solve returned non-finite rates")
        return np.maximum(out, 0.0)


@lru_cache(maxsize=16)
def _spin_model(kappa: float, gamma: float) -> _SpinModel:
    with _one_blas_thread():
        return _SpinModel(kappa, gamma)


def spin_rates(spin: str, coupling, rabi_sq, excitation_detuning: float,
               shifts: ShiftResult, cavity: CavityParams) -> np.ndarray:
    """Per-spin rates at local coordinates, as an array (..., 4) holding
    the EmissionRates fields in order: photons/s into the sigma+ and sigma-
    modes, flips/s and free-space scatters/s, under the y-polarized drive.

    coupling (rad/s), rabi_sq (total drive Omega^2, rad^2/s^2) and the
    shift fields broadcast against each other.  The rates are even under
    reversing every detuning at once, and are computed in the frame where
    the first nonzero detuning is positive, so +/- detunings give
    bit-identical results.  The points are solved on a thread pool, one
    worker per CPU, with numpy's OpenBLAS held to one thread meanwhile
    (one worker where its thread count cannot be set); the rates are the
    same bits as a serial solve.
    """
    if spin not in ("up", "down"):
        raise ValueError(f"spin must be 'up' or 'down', got {spin!r}")
    model = _spin_model(cavity.kappa, cavity.gamma)
    g, om_sq, d32, d12 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in
          (coupling, rabi_sq, shifts.delta_32, shifts.delta_12)))
    shift = {3: d32.ravel(), 1: d12.ravel()}
    dets = [TWO_PI * (shift[abs(e2)] - excitation_detuning)
            for e2 in model.excited_m2]
    lead = dets[0]
    for det in dets[1:]:
        lead = np.where(lead == 0.0, det, lead)
    orient = np.where(lead < 0.0, -1.0, 1.0)
    out = model.rates(g.ravel(), np.sqrt(om_sq.ravel()),
                      [orient * det for det in dets])
    if spin == "down":
        out = out[:, [1, 0, 2, 3]]
    return out.reshape(g.shape + (4,))


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
