"""Per-spin rate model of the two-mode atom-cavity system.

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
as a flip.  This module holds the unit terms (`model_terms`) and the
Liouvillian formula (`liouvillian_triplets`) that the full Lindblad model
of `dynamics` is built from too, and needs numpy only.  The cavity is kept
explicit because at the reference drive (Rabi frequency comparable to
kappa, ~1300x saturation) neither adiabatic elimination of the cavity nor
independent saturated Lorentzians per drive channel hold.  The full model
is the reference the sector is checked against, at the operating drive,
with the shift beam on and off (see the tests).

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
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import constants
from .atomic import rabi_sq
from .errors import ModelError, NumericalError, check, rule
from .lightshift import BeamParams, ShiftResult

TWO_PI = constants.TWO_PI
SPINS = ("up", "down")

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

    g0: float = rule(TWO_PI * 2.8e6, gt=0.0)   # at the mode centre
    kappa: float = rule(TWO_PI * 4.8e6, gt=0.0)
    gamma: float = rule(TWO_PI * 0.091e6, gt=0.0)
    mode_waist: float = rule(19e-6, gt=0.0)    # TEM00, transverse (m)
    detection_efficiency: float = rule(0.20, ge=0.0, le=1.0)
    dark_rate_sigma_plus_per_ms: float = rule(1.0, ge=0.0)
    dark_rate_sigma_minus_per_ms: float = rule(0.5, ge=0.0)

    __post_init__ = check   # no rule spans fields

    @property
    def dark_rates_per_s(self):
        return (self.dark_rate_sigma_plus_per_ms * 1e3,
                self.dark_rate_sigma_minus_per_ms * 1e3)


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


def atom_proj(i, j):
    op = np.zeros((N_ATOM, N_ATOM))
    op[i, j] = 1.0
    return op


@lru_cache(maxsize=8)
def model_terms(n_plus: int, n_minus: int):
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
            term = math.sqrt(w) * embed(atom_proj(e_idx, GROUND_INDEX[g2]),
                                        *fld)
            coupling += term + term.T
    for g2, _, e2, frac, w in DRIVE_TRANSITIONS:
        term = 0.5 * math.sqrt(frac * w) * embed(
            atom_proj(EXCITED_INDEX[e2], GROUND_INDEX[g2]))
        drive += term + term.T
    excited = {e2: embed(atom_proj(i, i)) for e2, i in EXCITED_INDEX.items()}
    modes = (embed(np.eye(N_ATOM), plus=a_plus),
             embed(np.eye(N_ATOM), minus=a_minus))
    for op in (coupling, drive, *excited.values(), *modes):
        op.setflags(write=False)
    return excited, coupling, drive, modes, embed


def basis_quanta(n_plus: int, n_minus: int) -> np.ndarray:
    """Quanta of each basis state of `model_terms(n_plus, n_minus)`: its
    sigma+ and sigma- photons plus one for an excited atom.  The coupling
    conserves them, a photon loss or decay lowers both sides of rho_ab by
    one, and the drive alone moves one side by one, so grading rho_ab by
    q_a - q_b makes every Liouvillian of these terms block tridiagonal."""
    atom, n_p, n_m = np.unravel_index(
        np.arange(N_ATOM * (n_plus + 1) * (n_minus + 1)),
        (N_ATOM, n_plus + 1, n_minus + 1))
    return n_p + n_m + np.isin(atom, list(EXCITED_INDEX.values()))


def liouvillian_triplets(h, ops):
    """Entries of the Liouvillian of a Hamiltonian and dense collapse
    operators C on column-stacked rho, vec(A X B) = (B^T kron A) vec(X):
    L = I kron M + conj(M) kron I + sum_C conj(C) kron C, M = -iH - 1/2
    sum_C C^dag C, with conj(M) taken as (iH - 1/2 sum_C C^dag C)^T (the
    same for a Hermitian H).  Returned as (vals, rows, cols), the entries
    of all the Kronecker products in one pass, repeated positions to be
    summed."""
    dim = h.shape[0]
    if h.shape != (dim, dim):
        raise ModelError("Hamiltonian must be square")
    ops = [np.asarray(op) for op in ops]
    if any(c.shape != h.shape for c in ops):
        raise ModelError("collapse operators and Hamiltonian differ in shape")
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
    return vals, rows, cols


# ---------------------------------------------------------------------------
# per-spin rates

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
def one_blas_thread():
    """Hold numpy's OpenBLAS to one thread, put it back on exit, and yield
    the rate pool's worker count: one per CPU this process may use, or one
    where the thread count cannot be set.  Left at its default, OpenBLAS
    spins its own threads on the cores the pool solves on; the full
    model's graded steady state (`dynamics`) solves under it too.  A lock
    keeps concurrent callers from interleaving the save and the restore."""
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

    It is the spin-up sector of the six-level model (`model_terms`) with
    the modes cut at `constants.DISCRETIZATION.fock_cutoff`: the up ground
    state and the excited sublevels the drive reaches from it (their m2
    in `excited_m2`), in that order, times the Fock states.  Those
    sublevels emit into the cavity only on their way back to up, so the
    coupling, the drive and the photon losses keep the sector closed (a
    ModelError says if they do not).  Each sublevel's free-space decay
    returns the atom to |up> at 2*gamma, its branches to the other spin
    counting as flips, so the steady state is what the spin sees until it
    flips.

    The Liouvillian is sum_j p_j comps[j] + Omega drive with p = (1, g,
    Delta_e...): the jumps, the cavity coupling and one detuning per
    driven sublevel, as dense column-stacked superoperators summed from
    `liouvillian_triplets`, the formula of the full model's generator.
    `weights` maps the populations to the (sigma+, sigma-, flip, free)
    rates, and `quanta` is `basis_quanta` of the sector's states.
    """
    cutoff = constants.DISCRETIZATION.fock_cutoff
    up = GROUND_INDEX[+1]
    excited_m2 = [e2 for g2, _, e2, _, _ in DRIVE_TRANSITIONS if g2 == +1]
    shape = (N_ATOM,) + tuple(n + 1 for n in cutoff)
    atoms = [up] + [EXCITED_INDEX[e2] for e2 in excited_m2]
    keep = np.ravel_multi_index(
        np.ix_(atoms, *map(range, shape[1:])), shape).ravel()
    excited, h_g, h_om, modes, embed = model_terms(*cutoff)
    rest = np.ones(len(h_g), bool)
    rest[keep] = False
    for op in (h_g, h_om, *modes):
        if op[np.ix_(rest, keep)].any() or op[np.ix_(keep, rest)].any():
            raise ModelError("rate model's spin-up sector is not closed")

    def cut(op):
        return op[np.ix_(keep, keep)]

    jumps = [math.sqrt(2 * kappa) * cut(a) for a in modes]
    jumps += [math.sqrt(2 * gamma) * cut(embed(atom_proj(
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

    def dense(h, ops=()):
        vals, rows, cols = liouvillian_triplets(h, ops)
        out = np.zeros((d * d, d * d), complex)
        np.add.at(out, (rows, cols), vals)
        return out

    comps = [dense(np.zeros((d, d)), jumps)] + [
        dense(cut(h)) for h in [h_g] + [excited[e2] for e2 in excited_m2]]
    drive = dense(cut(h_om))
    quanta = basis_quanta(*cutoff)[keep]
    return excited_m2, weights, comps, drive, quanta


class _SpinModel:
    """The rate model of `_conditional_liouvillian`, solved in batches on
    a thread pool, one worker per CPU, with numpy's OpenBLAS held to one
    thread (`one_blas_thread`; one worker where it cannot be held).  The
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

        Tasks of `_TASK` points run on a pool of `one_blas_thread`'s
        workers: numpy's solves and products release the GIL.  The tasks
        are the same at any worker count, so are the rates' bits.  A
        point's last bits can depend on its task's size, though: OpenBLAS
        rounds `term @ self.right0` differently for one or two points than
        for more, so a point solved in a batch of one or two (as by
        `adiabatic_rates`) may differ in its last bits from the same point
        in a larger batch.  The pool is joined before OpenBLAS gets its
        thread count back, a failed task included.
        """
        params = np.column_stack([np.ones_like(coupling), coupling,
                                  *detunings])
        out = np.empty((len(coupling), 4))

        def solve(lo):
            sl = slice(lo, lo + _TASK)
            out[sl] = self._populations(params[sl], omega[sl]) @ self.weights

        with one_blas_thread() as workers:
            try:
                with ThreadPoolExecutor(workers) as pool:
                    list(pool.map(solve, range(0, len(coupling), _TASK)))
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"rate-model solve failed: {exc}") \
                    from exc
        if not np.all(np.isfinite(out)):
            raise NumericalError("rate-model solve returned non-finite rates")
        return np.maximum(out, 0.0)


def _spin_model(kappa: float, gamma: float) -> _SpinModel:
    # the record's Fock cutoff keys the cache, so no model is ever stale
    return _cached_model(kappa, gamma, constants.DISCRETIZATION.fock_cutoff)


@lru_cache(maxsize=16)
def _cached_model(kappa: float, gamma: float, fock_cutoff) -> _SpinModel:
    with one_blas_thread():
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
    same bits as a serial solve, though not always as the same point
    solved in a call of one or two points (`_SpinModel.rates`).
    """
    if spin not in SPINS:
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
