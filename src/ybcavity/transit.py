"""Monte Carlo transits of falling atoms through the cavity mode.

An atom released from the trap falls along z, crosses the mode with a
transverse impact parameter (x0, y0), and scatters photons at the
position- and spin-dependent rates of the per-spin rate model, read from
a table built once per configuration (`RateTable`).  A
transit is simulated as a time-inhomogeneous jump process on the two
ground spin states: rates are held piecewise-constant on a fixed time
grid, spin-flip times are drawn by inverting the cumulative hazard, and
the detected photon numbers per polarization are Poisson with mean
(detection efficiency) x (integrated emission rate) -- Poisson thinning
is exact, so the detector never needs per-photon sampling.

Reproducibility: every run owns a counter-based Philox stream keyed on
(master_seed, run_index), drawn in the order documented in
`simulate_transit` and `simulate_window`.  The runners step chunks of runs
through the segment grid together, a window's atoms in rounds (round k
takes the k-th atom of every window that has one), so each stream keeps
its draw order and ensembles are bit-identical for any chunk size.  A
runner builds one chunk's streams once and re-keys them in place for each
later chunk (`_rekey`): the same draws as a new stream per run, for a
fraction of the cost.  The runners return one structured array of records,
`TRANSIT_RECORD` or `WINDOW_RECORD` rows, whose field names, in order,
are the columns of the record files.  The serialization section at the
end is the one home of every file format the package writes: records,
the CLI's curves and the JSON summaries, each tagged `ybcavity.<kind>.v1`.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import constants
from .atomic import LevelScheme
from .constants import FREE_FALL_G
from .errors import ConfigError, check, rule
from .lightshift import BeamParams, ShiftBeam, ShiftResult, stark_shift
from .ratemodel import (DRIVE_TRANSITIONS, SPINS, CavityParams,
                        coupling_at, drive_rabi_sq, spin_rates)

EMIT_FORMATS = ("csv", "jsonl")   # record file formats, also their extensions

# a row per run; the field names, in order, are the record file's columns
TRANSIT_RECORD = np.dtype([
    ("initial_spin", "U4"), ("final_spin", "U4"),
    ("counts_sigma_plus", np.int64), ("counts_sigma_minus", np.int64),
    ("transit_duration_s", np.float64), ("peak_coupling_rad_s", np.float64)])
WINDOW_RECORD = np.dtype([   # counts: every atom's plus the dark counts
    ("window_s", np.float64), ("counts_sigma_plus", np.int64),
    ("counts_sigma_minus", np.int64), ("atom_count", np.int64)])


# ---------------------------------------------------------------------------
# geometry and fall lines


@dataclass(frozen=True)
class TransitGeometry:
    """Where atoms come from and how they cross the mode.

    The fall speed at the cavity follows from the drop height, and
    `crossing_duration` gives the time to cross the mode at that speed.
    Impact parameters are drawn uniformly from a transverse disc of
    radius `impact_radius` (impact_radius_factor x mode_waist); atoms
    outside couple negligibly.  The simulated path spans
    +/- simulation_halfspan in z around the mode center, resolved in
    time_step slices: 169 of 4 us for the default fall.  The rates vary
    on the ~100 us crossing time; against 1 us slices (675) the
    quadrature's default spectrum and SNR points move by at most 0.012%,
    and on paired streams the sampler changes about 0.6% of its records
    (spin up, shift off: frequent flips), every mean within 3 standard
    errors.  A fall that cannot be simulated is rejected: a crossing that
    rounds to no time, a time step longer than the fall through the span
    (0.675 ms at the defaults), or more than `_MAX_SEGMENTS` slices.
    """

    drop_height: float = rule(7e-3, gt=0.0)   # from the cloud to the mode
    mode_waist: float = rule(CavityParams.mode_waist, gt=0.0)
    impact_radius_factor: float = rule(2.0, gt=0.0)
    simulation_halfspan: float = rule(125e-6, gt=0.0)
    time_step: float = rule(4e-6, gt=0.0)

    def __post_init__(self):
        check(self)
        if not self.simulation_halfspan < self.drop_height:
            raise ConfigError("simulation_halfspan must be < drop_height")
        if not crossing_duration(self) > 0:   # rounds to 0 for a huge drop
            raise ConfigError("the fall must cross the mode waist in > 0 s")
        fall = _fall_time(self, -self.simulation_halfspan)
        if not self.time_step <= fall:
            raise ConfigError(f"time_step must be <= the fall through the "
                              f"simulated span, {fall!r} s")
        if _segment_count(self) > _MAX_SEGMENTS:
            raise ConfigError(f"the fall takes over {_MAX_SEGMENTS} steps")

    @property
    def impact_radius(self) -> float:
        """Radius (m) of the transverse disc impact points fill."""
        return self.impact_radius_factor * self.mode_waist


_MAX_SEGMENTS = 10_000   # ~59x the default; bounds (chunk x segments) arrays


def _segment_count(geometry: TransitGeometry) -> int:
    """Time slices of the fall from the top of the span to its bottom."""
    total = _fall_time(geometry, -geometry.simulation_halfspan)
    # finite even for a subnormal time step, so the geometry can reject it
    return math.ceil(min(total / geometry.time_step, 1e300))


def fall_heights(geometry: TransitGeometry) -> np.ndarray:
    """Height above the mode center at the start of each time slice of the
    fall; every fall line is vertical, so all share these heights."""
    v0 = _speed_at(geometry, geometry.simulation_halfspan)
    times = np.arange(_segment_count(geometry)) * geometry.time_step
    return (geometry.simulation_halfspan - v0 * times
            - 0.5 * FREE_FALL_G * times ** 2)


def _impact(rng, geometry: TransitGeometry):
    """Transverse impact point (x0, y0); draws the radius, then azimuth."""
    r = geometry.impact_radius * math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    return r * math.cos(theta), r * math.sin(theta)


def _speed_at(geometry: TransitGeometry, height_above_center: float) -> float:
    drop = geometry.drop_height - height_above_center
    return math.sqrt(2.0 * FREE_FALL_G * drop)


def _fall_time(geometry: TransitGeometry, z: float) -> float:
    """Time (s) from the top of the simulated span down to height z above
    the mode center."""
    v0 = _speed_at(geometry, geometry.simulation_halfspan)
    drop = geometry.simulation_halfspan - z
    return (math.sqrt(v0 ** 2 + 2.0 * FREE_FALL_G * drop) - v0) / FREE_FALL_G


def crossing_duration(geometry: TransitGeometry) -> float:
    """Exact time (s) a falling atom spends within one mode waist of the
    mode center, |z| <= mode_waist: the fall time to -w less that to +w."""
    w = geometry.mode_waist
    return _fall_time(geometry, -w) - _fall_time(geometry, w)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TransitConfig:
    """Everything a stochastic run needs, beams through bookkeeping.

    excitation_detuning is in Hz relative to the unshifted cyclic line;
    None means "track the engineered resonance": the m'=+/-3/2 shift at
    the mode center when the shift beam is on, zero otherwise.
    initial_spin is the per-atom preparation policy: 'up', 'down', or
    'random' (fair coin per atom).  atom_rate x window, the mean number of
    atoms per window, is at most `_MAX_ATOMS_PER_WINDOW`: each atom round
    of a window batch is a full pass of the sampler.  The mean dark counts
    per window, both channels together, are at most `_MAX_DARKS_PER_WINDOW`.
    The cavity and the geometry name one mode waist: the coupling's and the
    impact disc's.
    """

    scheme: LevelScheme = rule(LevelScheme(), LevelScheme)
    cavity: CavityParams = rule(CavityParams(), CavityParams)
    drive: BeamParams = rule(BeamParams(1.8e-6, 25e-6), BeamParams)
    shift_beam: ShiftBeam = rule(ShiftBeam(), ShiftBeam)
    geometry: TransitGeometry = rule(TransitGeometry(), TransitGeometry)
    light_shift_on: bool = rule(True, bool)
    excitation_detuning: float = rule(None)
    atom_rate: float = rule(550.0, ge=0.0)   # atoms/s through the disc
    window: float = rule(2e-3, gt=0.0)
    initial_spin: str = rule("random", str, choices=SPINS + ("random",))

    def __post_init__(self):
        check(self)
        atoms = self.atom_rate * self.window
        if not atoms <= _MAX_ATOMS_PER_WINDOW:
            raise ConfigError(f"atom_rate x window must be <= "
                              f"{_MAX_ATOMS_PER_WINDOW:g}, got {atoms!r}")
        darks = sum(self.cavity.dark_rates_per_s) * self.window
        if not darks <= _MAX_DARKS_PER_WINDOW:
            raise ConfigError(f"dark rates x window must be <= "
                              f"{_MAX_DARKS_PER_WINDOW:g}, got {darks!r}")
        if self.cavity.mode_waist != self.geometry.mode_waist:
            raise ConfigError(
                f"cavity.mode_waist {self.cavity.mode_waist!r} and "
                f"geometry.mode_waist {self.geometry.mode_waist!r} must be "
                f"the same mode waist")

    @property
    def shift_on(self) -> bool:
        """The shift beam is switched on and has power."""
        return self.light_shift_on and self.shift_beam.power > 0


_MAX_ATOMS_PER_WINDOW = 1e3   # ~900x the default 1.1
_MAX_DARKS_PER_WINDOW = 1e6   # ~3e5x the default 3; far past saturation


default_transit_config = TransitConfig   # the name perfbench imports


def probe_detuning(config: TransitConfig) -> float:
    """Excitation detuning (Hz) actually applied in a run."""
    if config.excitation_detuning is not None:
        return config.excitation_detuning
    if not config.shift_on:
        return 0.0
    return stark_shift(+1.5, config.shift_beam, config.scheme)


def shift_fraction(x, z, config: TransitConfig):
    """Local shift-beam intensity over its peak at transverse (x, z); zero
    when the shift beam is off."""
    if not config.shift_on:
        return np.zeros(np.broadcast(x, z).shape)
    return config.shift_beam.profile(x, z)


# ---------------------------------------------------------------------------
# rate tables

_AXIS_SAMPLES = 2001          # dense samples of a node map
_WEAK_SATURATION = 1e-3       # drive counted as weak (rates linear in Omega^2)
_RESONANCE_WEIGHT = 0.5       # node budget of one resonance crossing
_SHIFT_FLOOR = 1e-3           # shift fractions below this are held at it
_LOOKUP_BLOCK = 16_384        # points per lookup block: 128 KiB per temporary


def _spline_matrix(n: int, m: int) -> np.ndarray:
    """(m, n) matrix taking values at n >= 4 uniform nodes on [0, 1] to the
    not-a-knot cubic spline through them, sampled at m uniform points."""
    h = 1.0 / (n - 1)
    # second derivatives k @ y: continuous first derivatives at the inner
    # nodes, and a continuous third derivative across each end's first one
    system = np.zeros((n, n))
    second = np.zeros((n, n))
    for i in range(1, n - 1):
        system[i, i - 1:i + 2] = (1.0, 4.0, 1.0)
        second[i, i - 1:i + 2] = (6.0 / h ** 2, -12.0 / h ** 2, 6.0 / h ** 2)
    system[0, :3] = system[-1, -3:] = (1.0, -2.0, 1.0)
    k = np.linalg.solve(system, second)
    # node j * (m - 1) / (n - 1) of the fine grid lands exactly on node j
    pos = np.arange(m) * (n - 1) / (m - 1)
    i = np.minimum(pos.astype(np.intp), n - 2)
    u = (pos - i)[:, None]
    w = 1.0 - u
    eye = np.eye(n)
    return (w * eye[i] + u * eye[i + 1]
            + h ** 2 / 6.0 * ((w ** 3 - w) * k[i] + (u ** 3 - u) * k[i + 1]))


def _axis_coord(ratio, samples, unit, step):
    """The [0, 1] node coordinate of points at t = sqrt(-ln ratio) on a
    node map (`RateTable._node_map`), t held inside the samples' span;
    computed in place, so that no temporary outlives the call."""
    t = np.empty(np.shape(ratio))
    with np.errstate(divide="ignore"):
        np.log(ratio, out=t)
    np.negative(t, out=t)
    np.clip(t, 0.0, samples[-1] ** 2, out=t)
    np.sqrt(t, out=t)
    # the samples are uniform, so locate t without a search
    t *= (len(samples) - 1) / samples[-1]
    i = np.minimum(t.astype(np.intp), len(samples) - 2)
    t -= i
    t *= step.take(i)
    t += unit.take(i)
    return t


class RateTable:
    """Per-spin rates of one configuration on a grid of local coordinates.

    The coordinates are the coupling g, the drive Omega^2 and the shift
    fraction s.  When the two beams share an axis (or the shift is off), s
    is a function of Omega^2 and the grid is two-dimensional.  Each axis is
    mapped onto [0, 1] and the nodes sit at uniform steps there:
      coupling: ln(1 + v/v_c) / ln(1 + 1/v_c), v = (g/g0)^2,
                v_c = kappa gamma / g0^2 (where the cavity doubles the
                atomic linewidth);
      drive:    tau = sqrt(ln(Omega_0^2 / Omega^2)), proportional to the
                drive radius;
      shift:    sigma = sqrt(-ln s), proportional to the shift-beam radius.
    The drive and shift maps are stretched so that nodes also crowd where
    a driven sublevel passes through resonance (`_node_map`): its detuning
    moves with the shift fraction, its power-broadened width with the
    drive.  Along the drive axis s follows the drive (zero on a 3-d
    table's drive axis); along the shift axis the width is the drive's at
    the cavity-mode waist radius.  Each crossing takes `_RESONANCE_WEIGHT`
    of the axis's node budget.
    The stored quantities are logs of the rates over their weak-coupling,
    weak-drive scaling (v Omega^2 for the cavity rates, Omega^2 for
    flips), which vary slowly.  The not-a-knot cubic spline through the
    nodes, exact in each axis (`_spline_matrix`), is sampled once onto a
    grid `table_refine` times finer, and lookups interpolate that grid
    multilinearly; the node counts and the refinement are those of
    `constants.DISCRETIZATION` when the table is built.  Past the last
    drive node the saturation is below `_WEAK_SATURATION` and the rates
    scale with Omega^2.  The y-polarized drive is mirror-symmetric, so the
    table holds spin up only; spin down has sigma+ and sigma- swapped.
    """

    def __init__(self, scheme: LevelScheme, cavity: CavityParams,
                 drive: BeamParams, shift_beam, excitation_detuning: float):
        self.g0 = cavity.g0
        self.om0_sq = float(drive_rabi_sq((drive.axis_offset, 0.0, 0.0),
                                          drive, cavity))
        self.v_c = cavity.kappa * cavity.gamma / cavity.g0 ** 2
        saturation = self.om0_sq / (2.0 * cavity.gamma ** 2)
        t_max = max(math.log(max(saturation, 1.0) / _WEAK_SATURATION), 1.0)
        if shift_beam is None:   # the coaxial table with no centre shift
            centre, self.ratio = ShiftResult(0.0, 0.0), 0.0
        else:
            # on the shift beam's own axis, where shift_fraction is 1
            axis = (shift_beam.axis_offset, 0.0, 0.0)
            centre = ShiftResult(stark_shift(+1.5, shift_beam, scheme, axis),
                                 stark_shift(+0.5, shift_beam, scheme, axis))
            self.ratio = ((drive.waist / shift_beam.waist) ** 2
                          if shift_beam.axis_offset == drive.axis_offset
                          else None)
        self.three_d = self.ratio is None
        resonances = (centre, excitation_detuning, cavity.gamma)
        tau = np.linspace(0.0, math.sqrt(t_max), _AXIS_SAMPLES)
        # (samples, unit, step) of the drive axis and, in 3-d, the shift axis
        self.maps = [self._node_map(
            tau, np.exp(-self.ratio * tau ** 2) if self.ratio else 0.0,
            np.exp(-tau ** 2), *resonances)]
        if self.three_d:
            sigma = np.linspace(0.0, math.sqrt(-math.log(_SHIFT_FLOOR)),
                                _AXIS_SAMPLES)
            at_waist = math.exp(-2.0 * (cavity.mode_waist / drive.waist) ** 2)
            self.maps.append(self._node_map(sigma, np.exp(-sigma ** 2),
                                            at_waist, *resonances))
        res = constants.DISCRETIZATION
        n_nodes = res.table_nodes[:1 + len(self.maps)]
        nodes = [np.linspace(0.0, 1.0, n) for n in n_nodes]
        self.fine = [(n - 1) * k + 1
                     for n, k in zip(n_nodes, res.table_refine)]
        grid = np.meshgrid(*nodes, indexing="ij")
        v = self._v_of_xi(grid[0])
        v_solve = np.maximum(v, 1e-6 * self.v_c)   # rates / v at v -> 0
        # each mapped axis is t = sqrt(-ln(weak or s)) at its nodes
        weak, *frac = (np.exp(-np.interp(u, unit, t) ** 2)
                       for u, (t, unit, _) in zip(grid[1:], self.maps))
        frac = frac[0] if self.three_d else weak ** self.ratio
        shifts = ShiftResult(centre.delta_32 * frac, centre.delta_12 * frac)
        self.zero = self.om0_sq == 0.0
        self.channels = np.empty((3, 0))
        if self.zero:
            return
        rates = spin_rates("up", self.g0 * np.sqrt(v_solve),
                           self.om0_sq * weak, excitation_detuning,
                           shifts, cavity)[..., :3]
        rates = rates / weak[..., None]
        rates[..., :2] /= v_solve[..., None]
        # a floor that is never 0, so all-zero rates give finite logs
        floor = max(rates.max() * 1e-30, sys.float_info.min)
        logs = np.log(np.maximum(rates, floor))
        # each pass contracts the leading node axis and appends its fine
        # axis, so the channel axis ends up first
        for n, m in zip(n_nodes, self.fine):
            logs = np.tensordot(logs, _spline_matrix(n, m), axes=(0, 1))
        # log rates of spin up, one row per channel: sigma+, sigma-, flip
        self.channels = logs.reshape(3, -1)

    def _node_map(self, t, frac, weak, centre, excitation_detuning, gamma):
        """(samples, unit, step) of an axis sampled uniformly at t, along
        which the shift fraction is frac and the drive Omega^2 over its
        peak is weak: the [0, 1] node coordinate of each sample, and its
        steps.  The node density is uniform in t plus, for each driven
        sublevel, the rate at which its detuning over its width sweeps
        through resonance (a full crossing integrates to 1)."""
        density = np.full(t.shape, 1.0 / t[-1])
        # one entry per |m'| (the spins mirror each other), 1/2 before 3/2
        driven = sorted({(abs(e2), share * w)
                         for _, _, e2, share, w in DRIVE_TRANSITIONS})
        for e2, strength in driven:
            shift = centre.delta_32 if e2 == 3 else centre.delta_12
            om_sq = self.om0_sq * weak * strength
            x = (constants.TWO_PI * (shift * frac - excitation_detuning)
                 / np.sqrt(gamma ** 2 + 0.5 * om_sq))
            with np.errstate(over="ignore"):   # far off resonance: adds 0
                density += (_RESONANCE_WEIGHT * np.abs(np.gradient(x, t))
                            / (math.pi * (1.0 + x ** 2)))
        unit = np.concatenate(([0.0], np.cumsum(
            0.5 * (density[1:] + density[:-1]) * np.diff(t))))
        unit /= unit[-1]
        return t, unit, np.diff(unit)

    def _v_of_xi(self, xi):
        return self.v_c * np.expm1(xi * math.log1p(1.0 / self.v_c))

    def __call__(self, g, om_sq, frac=None):
        """Spin-up (sigma+, sigma-, flip) rate arrays at the given points
        (only a 3-d table reads the shift fraction, and it needs one);
        spin down has the same flip rate and sigma+ and sigma- swapped.
        The points are broadcast together and looked up in flat blocks of
        `_LOOKUP_BLOCK`, so that the stencil's temporaries stay in cache;
        every step is elementwise, so the blocking changes no bit."""
        if self.three_d and frac is None:
            raise ValueError("a 3-d rate table needs the shift fraction")
        g, om_sq, *frac = np.broadcast_arrays(
            g, om_sq, *((frac,) if self.three_d else ()))
        if self.zero:
            zeros = np.zeros(g.shape)
            return zeros, zeros, zeros
        flat = [a.reshape(-1) for a in (g, om_sq, *frac)]
        rates = np.empty((3, g.size))
        for start in range(0, g.size, _LOOKUP_BLOCK):
            block = slice(start, start + _LOOKUP_BLOCK)
            rates[:, block] = self._lookup(*(a[block] for a in flat))
        return tuple(rates.reshape((3,) + g.shape))

    def _lookup(self, g, om_sq, frac=None):
        """(3, n) spin-up rates at n flat points."""
        v = np.minimum((g / self.g0) ** 2, 1.0)
        weak = om_sq / self.om0_sq

        def corner(idx, w):
            # all three channels in one gather, weighted in place
            values = self.channels.take(idx, axis=1)
            values *= w
            return values

        # the corners add up in stencil order, each freed once added
        stencil = self._stencil(
            [np.log1p(v / self.v_c) / math.log1p(1.0 / self.v_c)]
            + [_axis_coord(r, *m) for r, m in zip((weak, frac), self.maps)])
        logs = corner(*stencil[0])
        for idx, w in stencil[1:]:
            logs += corner(idx, w)
        np.exp(logs, out=logs)
        logs *= weak
        logs[:2] *= v   # the cavity rates were stored over v
        return logs

    def _stencil(self, coords):
        """(flat index, weight) pairs of the multilinear stencil on the
        fine grid, for coordinates in [0, 1]."""
        sizes = self.fine
        strides = np.cumprod([1] + sizes[:0:-1])[::-1]
        lower, frac = [], []
        for c, n in zip(coords, sizes):
            pos = np.clip(c * (n - 1), 0.0, n - 1.0)
            i = np.minimum(pos.astype(np.intp), n - 2)
            lower.append(i)
            frac.append(pos - i)
        base = sum(i * st for i, st in zip(lower, strides))
        stencil = []
        for corner in np.ndindex(*(2,) * len(coords)):
            w = 1.0
            for f, b in zip(frac, corner):
                w = w * (f if b else 1.0 - f)
            stencil.append((base + int(np.dot(corner, strides)), w))
        return stencil

    @property
    def nbytes(self) -> int:
        """Bytes held by the table's arrays: its rates and node maps."""
        return self.channels.nbytes + sum(a.nbytes for axis in self.maps
                                          for a in axis)


_TABLE_BUDGET = 32 << 20   # bytes of tables kept: every 2-d table, few 3-d
_tables = {}               # key -> RateTable, least recently used first


def rate_table(config: TransitConfig) -> RateTable:
    """The (cached) rate table of a configuration.  Only the physics that
    sets the rates keys the cache; without the shift beam the rates are
    even in the probe detuning, so +/- detunings share one table.  The
    resolution a table is built at keys it too, so a new
    `constants.DISCRETIZATION` never finds a stale table.  The least
    recently used tables are dropped once those held exceed
    `_TABLE_BUDGET` bytes (the newest is always kept)."""
    det = probe_detuning(config)
    beam, det = ((config.shift_beam, det) if config.shift_on
                 else (None, abs(det)))
    physics = (config.scheme, config.cavity, config.drive, beam, det)
    res = constants.DISCRETIZATION
    key = physics + (res.table_nodes, res.table_refine, res.fock_cutoff)
    table = _tables.pop(key, None) or RateTable(*physics)
    _tables[key] = table
    held = sum(t.nbytes for t in _tables.values())
    while held > _TABLE_BUDGET and len(_tables) > 1:
        held -= _tables.pop(next(iter(_tables))).nbytes
    return table


def transit_rate_table(x0, y0, config: TransitConfig, axial=None):
    """Spin-up (sigma+, sigma-, flip) rates along the fall lines through
    the transverse points (x0, y0), one row per time slice and one column
    per line; spin down has the same flip rate and sigma+ and sigma-
    swapped.  `axial`, one per line, replaces the standing-wave factor at
    x0 (the quadrature averages over it).  Only a 3-d table's lookups
    evaluate the shift fraction."""
    table = rate_table(config)   # any build peaks before the grids exist
    z = fall_heights(config.geometry)[:, None]
    if axial is None:
        g = coupling_at((x0, y0, z), config.cavity)
    else:
        g = np.asarray(axial) * coupling_at((0.0, y0, z), config.cavity)
    om_sq = drive_rabi_sq((x0, y0, z), config.drive, config.cavity)
    frac = (shift_fraction(x0, z, config),) if table.three_d else ()
    return table(g, om_sq, *frac)


# ---------------------------------------------------------------------------
# jump process

_CHUNK = 512   # runs stepped together; peak RSS is flat up to here


def _transits(rngs, spins, config: TransitConfig) -> np.ndarray:
    """One atom per stream, all stepped through the shared segment grid
    together, into a `TRANSIT_RECORD` each, drawing as `simulate_transit`."""
    geo = config.geometry
    x0, y0 = np.array([_impact(rng, geo) for rng in rngs]).T
    plus, minus, flip = transit_rate_table(x0, y0, config)
    dt = geo.time_step
    up = np.array([spin == "up" for spin in spins])
    target = np.array([rng.exponential() for rng in rngs])
    lam_plus, lam_minus = np.zeros(len(rngs)), np.zeros(len(rngs))
    # Inhomogeneous jump times by hazard inversion: the flip rate is
    # constant within a segment, so the remaining exponential budget
    # `target` depletes linearly, and a run whose budget runs out inside
    # the segment finishes it alone in `_flip_segment`.  The products of
    # all segments are formed at once: elementwise, they round the same.
    hazards, steps_plus, steps_minus = flip * dt, plus * dt, minus * dt
    can_flip = hazards > 0.0
    for i, hazard in enumerate(hazards):
        hits = ((hazard >= target) & can_flip[i]).nonzero()[0]
        if hits.size:
            state = (up, target, lam_plus, lam_minus, flip[i], plus[i],
                     minus[i])
            done = [_flip_segment(rngs[j], *run, dt) for j, *run in zip(
                hits.tolist(), *(a[hits].tolist() for a in state))]
        target -= hazard
        lam_plus += np.where(up, steps_plus[i], steps_minus[i])
        lam_minus += np.where(up, steps_minus[i], steps_plus[i])
        if hits.size:
            up[hits], target[hits], lam_plus[hits], lam_minus[hits] = \
                zip(*done)

    eta = config.cavity.detection_efficiency
    out = np.empty(len(rngs), TRANSIT_RECORD)
    out["initial_spin"] = spins
    out["final_spin"] = np.where(up, "up", "down")
    out["counts_sigma_plus"], out["counts_sigma_minus"] = zip(*(
        (rng.poisson(eta * lp), rng.poisson(eta * lm)) for rng, lp, lm in
        zip(rngs, lam_plus.tolist(), lam_minus.tolist())))
    out["transit_duration_s"] = crossing_duration(geo)
    out["peak_coupling_rad_s"] = coupling_at((x0, y0, 0.0), config.cavity)
    return out


def _flip_segment(rng, up, target, lam_plus, lam_minus, f, plus, minus, dt):
    """One segment of one run whose flip budget runs out inside it, through
    any number of flips, each after target / f with a fresh budget after.
    plus and minus are the segment's spin-up emission rates."""
    frac = 0.0
    while True:
        seg = dt * (1.0 - frac)
        hazard = f * seg
        if not (hazard >= target and hazard > 0.0):
            lam_plus += (plus if up else minus) * seg
            lam_minus += (minus if up else plus) * seg
            return up, target - hazard, lam_plus, lam_minus
        tau = target / f
        lam_plus += (plus if up else minus) * tau
        lam_minus += (minus if up else plus) * tau
        frac += tau / dt
        up = not up
        target = rng.exponential()
        if frac >= 1.0:
            return up, target, lam_plus, lam_minus


def simulate_transit(rng, initial_spin: str, config: TransitConfig):
    """Simulate one atom (a batch of one) and return its `TRANSIT_RECORD`
    row.  Draw order: impact point (2 uniforms), one exponential per
    spin-flip attempt, then the two Poisson counts.

    A batch of one still walks every segment of the fall, so it costs
    about 50 times as much as one run of `run_transit_ensemble`, which
    gives stream i the same record: loop over the runner, not this."""
    if initial_spin not in SPINS:
        raise ConfigError(f"initial_spin must be 'up' or 'down', "
                          f"got {initial_spin!r}")
    return _transits([rng], [initial_spin], config)[0]


def _draw_spin(rng, config: TransitConfig) -> str:
    if config.initial_spin in SPINS:
        return config.initial_spin
    return "up" if rng.random() < 0.5 else "down"


def _windows(rngs, config: TransitConfig) -> np.ndarray:
    """One measurement window per stream, each drawing in the order of
    `simulate_window`: the atoms go in rounds, round k taking the k-th atom
    of every window that has one, after its earlier atoms' draws."""
    atom_rate, window = config.atom_rate, config.window
    out = np.empty(len(rngs), WINDOW_RECORD)
    out["window_s"] = window
    out["atom_count"] = [rng.poisson(atom_rate * window) for rng in rngs]
    for col, dark in zip(("counts_sigma_plus", "counts_sigma_minus"),
                         config.cavity.dark_rates_per_s):
        out[col] = [rng.poisson(dark * window) for rng in rngs]
    for k in range(out["atom_count"].max()):
        live = (out["atom_count"] > k).nonzero()[0]
        streams = [rngs[j] for j in live.tolist()]
        spins = [_draw_spin(rng, config) for rng in streams]
        atoms = _transits(streams, spins, config)
        for col in ("counts_sigma_plus", "counts_sigma_minus"):
            out[col][live] += atoms[col]
    return out


def simulate_window(rng, config: TransitConfig):
    """One measurement window of config.window seconds at config.atom_rate,
    as its `WINDOW_RECORD` row.  Draw order: atom number, dark counts
    (sigma+ then sigma-), then per atom (spin if random, transit); the
    runners take many windows' atoms in rounds, with the same result.  The
    config checked its rules, the bounds on atoms and dark counts per
    window among them, when it was built.

    Each round of atoms walks every segment of the fall, so one window
    costs about 40 times as much as one run of `run_ensemble`, which gives
    stream i the same record: loop over the runner, not this."""
    return _windows([rng], config)[0]


# ---------------------------------------------------------------------------
# ensembles


def child_rng(master_seed: int, run_index: int):
    """Counter-based stream for one run: Philox keyed on
    (master_seed, run_index), independent of how runs are grouped.  Both
    are integers (Python or numpy, not bool) in [0, 2**64 - 1]."""
    _check_key("master_seed", master_seed)
    _check_key("run_index", run_index)
    return _stream(master_seed, run_index)


def _check_key(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or not 0 <= int(value) < 2 ** 64:
        raise ConfigError(f"{name} must be an integer in "
                          f"[0, 2**64 - 1], got {value!r}")


def _stream(master_seed, run_index):
    return Generator(Philox(
        key=np.array([master_seed, run_index], dtype=np.uint64)))


def _rekey(rng, master_seed: int, run_index: int) -> None:
    """Reset rng in place to the stream `_stream(master_seed, run_index)`
    yields: every field of a fresh Philox state.  A new stream costs far
    more, mostly OS entropy that its key then overrides."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (master_seed, run_index)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0,
        "uinteger": 0}


def _run_chunks(batch, n_runs: int, master_seed: int) -> np.ndarray:
    """batch(streams) on runs 0..n_runs-1, `_CHUNK` streams at a time, the
    chunks' records joined; one pool of streams, re-keyed per chunk."""
    if n_runs < 1:
        raise ConfigError(f"n_runs must be >= 1, got {n_runs}")
    _check_key("master_seed", master_seed)   # once: range gives valid runs
    seed = int(master_seed)
    pool = [_stream(seed, i) for i in range(min(_CHUNK, n_runs))]
    chunks = [batch(pool)]
    for start in range(_CHUNK, n_runs, _CHUNK):
        rngs = pool[:n_runs - start]
        for i, rng in enumerate(rngs, start):
            _rekey(rng, seed, i)
        chunks.append(batch(rngs))
    return np.concatenate(chunks)


def run_ensemble(n_runs: int, master_seed: int, config: TransitConfig):
    """n_runs measurement windows, one Philox child stream per run, as a
    `WINDOW_RECORD` array in run-index order.  Record i equals
    simulate_window on stream i: each
    chunk of windows draws its atom numbers and dark counts, then its atoms
    in rounds (round k: the k-th atom of every window that has one)."""
    return _run_chunks(lambda rngs: _windows(rngs, config), n_runs,
                       master_seed)


def run_transit_ensemble(n_runs: int, master_seed: int,
                         config: TransitConfig):
    """n_runs single-atom transits, a `TRANSIT_RECORD` array with the same
    stream-splitting rule as run_ensemble; the per-run draw order is spin
    (if random) then transit."""
    return _run_chunks(lambda rngs: _transits(
        rngs, [_draw_spin(rng, config) for rng in rngs], config),
        n_runs, master_seed)


# ---------------------------------------------------------------------------
# serialization: every file the package writes, each under its kind's tag

_TAG_RULE = "ybcavity.{}.v1"


def write_records(path, kind, columns, rows, emit_format="csv"):
    """Write a file of rows under the tag of its kind, as CSV or JSON
    lines; the format name is also the file extension the CLI gives it."""
    if emit_format not in EMIT_FORMATS:
        raise ConfigError(f"unknown format {emit_format!r}")
    tag = _TAG_RULE.format(kind)
    with open(path, "w", newline="") as fh:
        if emit_format == "csv":
            fh.write(f"# format={tag}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
        else:
            fh.write(json.dumps({"format": tag}, sort_keys=True) + "\n")
            for row in rows:
                fh.write(json.dumps(dict(zip(columns, row)), sort_keys=True)
                         + "\n")


# tolist() gives Python str, int and float: both formats print them exactly
def write_transit_records(path, records, emit_format: str = "csv"):
    write_records(path, "transit", TRANSIT_RECORD.names, records.tolist(),
                  emit_format)


def write_count_records(path, records, emit_format: str = "csv"):
    write_records(path, "window", WINDOW_RECORD.names, records.tolist(),
                  emit_format)


def _json_value(value):
    """A summary value as strict JSON: an undefined (NaN) number becomes
    null, and +/-inf the strings "inf" and "-inf"."""
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def write_stats_json(path, stats: dict):
    """Write a summary as strict JSON, keys sorted, under the summary tag."""
    stats = {**stats, "format": _TAG_RULE.format("summary")}
    with open(path, "w") as fh:
        json.dump({k: _json_value(v) for k, v in stats.items()}, fh,
                  indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
