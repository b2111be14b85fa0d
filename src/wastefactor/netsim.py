"""Hexagonal small-cell network Monte Carlo.

Downlink-style coverage study: base stations sit on a hexagonal lattice, each
driving six 60-degree sector arrays with power control that holds a target
SNR at the cell edge.  User positions, per-link LoS states, and interferer
beam alignment are sampled per drop; throughput, consumed power, and the
network consumption efficiency are aggregated per cell radius.

Determinism: every (cell, drop) pair owns an independent substream derived
from the scenario seed by spawn key, so adding cells or running drops in a
different order never reshuffles another cell's draws, and results are
reduced by index.  Identical seeds print identical reports byte for byte:
the printed text is the contract, and the goldens and benchmark digests were
recorded with numpy 2.4.6.  Raw floats may differ in the last bits across
CPUs, where numpy picks an exp or power loop by CPU feature; the tests' scalar
oracle calls the same ufuncs, so its exact match holds on each machine.
Each stream is the PCG64 generator that NumPy's seed sequence seeds from the
scenario seed and the spawn key (cell, drop), but a drop hashes the seed words
of all its cells in one batch of uint32 array arithmetic; NumPy's PCG64 then
seeds each cell's own generator from its four words.

A drop is whole-array work: cells with the same number of interferers sum
their interference together, in chunks of bounded size, then the serving
links, sectors and power run over all cells at once.  Interference is summed
in watts: the close-in model's power at distance d is its power at 1 m times
d^-n, so each pair is one of two per-radius constants (main lobe, sidelobe)
times max(d, 1)^-n.  The set-up step forms those constants after the
interference bound, and only when some cell has interferers.

Each radius builds one _Workspace of flat buffers, sized from its largest
chunk, and every chunk of every drop writes its variates and (cell, UE,
interferer) pair arrays into views of their first elements: x and y offsets
apart, the wraparound fold through one scratch buffer, the distance
sqrt(x x + y y) over x (np.hypot costs several times more), the LoS
probability through the y, scratch and fourth buffers, and the two bool
draws.  _interference_w selects each pair's exponent and 1 m constant with
np.take from a two-entry table indexed by the uint8 view of its bool draws;
mode="clip", since the default mode="raise" buffers the output in a fresh
array.  So a chunk allocates no pair-sized float array (np.take still
converts each uint8 index to intp), and the pages of the last chunk's
temporaries are not returned to the system only to be faulted in again.
Totals are added in cell order with the same float operations as a
cell-by-cell loop, so reports match that loop bit for bit (the tests keep it
as an oracle).

Interferers are found with a bucket grid, in time linear in the cell count:
each cell is compared only with the cells of its own and the eight
surrounding buckets, each at least one reach wide.  Wraparound folds
distances on the square, whose side is not a period of the hex lattice, so
cells along the seam see a slightly distorted neighbourhood.
"""

from __future__ import annotations

import math
import operator
from dataclasses import replace
from typing import Iterable, NamedTuple

import numpy as np

from . import _NETSIM_NAMES
from .linkbudget import (
    ci_path_loss_db,
    db_to_linear,
    dbm_to_watts,
    free_space_path_loss_db,
    shannon_rate_bps,
    thermal_noise_dbm,
    tx_power_for_snr_dbm,
)
from .transceiver import (
    BandProfile,
    NetworkScenario,
    _consumed_fault,
    as_network,
    rx_power_coefficients,
    subthz_140,
    terminal_power,
    tx_power_coefficients,
)

__all__ = ("NetworkScenario", *_NETSIM_NAMES)

DEFAULT_RADII = (20.0, 35.0, 50.0, 65.0, 80.0, 100.0, 150.0, 250.0, 500.0)

NETSIM_CSV_HEADER = (
    "radius_m,cells,cef_gbpj,throughput_gbps,power_w,mean_sinr_db,los_fraction,ci_halfwidth"
)


class CellLayout(NamedTuple):
    """Hexagonal lattice of base stations covering a square area."""

    cell_radius_m: float
    area_side_m: float
    bs_positions: tuple[tuple[float, float], ...]

    @property
    def n_cells(self) -> int:
        return len(self.bs_positions)


class NetworkReport(NamedTuple):
    """Aggregate outcome of one radius, averaged over drops."""

    radius_m: float
    n_cells: int
    throughput_bps: float
    power_w: float
    cef_bpj: float
    mean_sinr_db: float
    los_fraction: float
    ci_halfwidth_bpj: float
    drops: int


def default_network(cell_radius_m: float, **overrides) -> NetworkScenario:
    """Scenario with the 140 GHz band defaults."""
    return replace(as_network(subthz_140()), cell_radius_m=cell_radius_m, **overrides)


def hex_layout(area_m2: float, cell_radius_m: float) -> CellLayout:
    """Flat-top hexagon lattice: column pitch 1.5 r, row pitch sqrt(3) r,
    odd columns offset half a row.  Nearest neighbors sit sqrt(3) r apart."""
    if cell_radius_m <= 0.0:
        raise ValueError("cell radius must be positive")
    if area_m2 <= 0.0:
        raise ValueError("area must be positive")
    side = math.sqrt(area_m2)
    r = cell_radius_m
    row_pitch = math.sqrt(3.0) * r
    positions: list[tuple[float, float]] = []
    col = 0
    while (x := 0.75 * r + 1.5 * r * col) < side:
        row = 0
        while (y := row_pitch / 2.0 * (col % 2) + row_pitch * row + row_pitch / 2.0) < side:
            positions.append((x, y))
            row += 1
        col += 1
    return CellLayout(cell_radius_m=r, area_side_m=side, bs_positions=tuple(positions))


# NumPy's seed-sequence hash (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFF_FFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _words(value: int) -> list[int]:
    """32-bit words of a non-negative integer, least significant first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"stream keys must be non-negative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(start: int, mult: int, count: int) -> list[int]:
    """start and the count constants after it; hashmix call i xors with
    constant i and multiplies by constant i + 1."""
    constants = [start]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return constants


# The hash steps run on uint32 arrays, whose products wrap silently as the
# hash needs: their other operands are uint32 arrays or Python ints below
# 2**32, which take the array's type.  No step makes a NumPy scalar, whose
# products would warn on overflow.
def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x, y):
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ value >> 16


def _absorb(pool: np.ndarray, hash_const: int, word) -> tuple[np.ndarray, int]:
    """Mix one entropy word past the first four into each pool word (rows)."""
    constants = _hash_constants(hash_const, _MULT_A, _POOL_SIZE)
    a = np.array(constants, dtype=np.uint32)[:, None]
    return _mix(pool, _hashmix(word, a[:-1], a[1:])), constants[-1]


# generate_state(4, np.uint64) hashes eight words, cycling over the pool.
_STATE_CONSTANTS = np.array(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE), np.uint32)[:, None]


def _stream_words(seed: int, cells: np.ndarray, drop: int) -> np.ndarray:
    """generate_state(4, np.uint64) of each cell's stream in the drop, as
    native, C-contiguous uint64 of shape (cells, 4).

    Each stream is the PCG64 generator that NumPy's seed sequence of the seed
    with spawn key (cell, drop) seeds: the seed's words (at least four), the
    cell's word and the drop's words are hashed into a pool of four words,
    which is hashed into PCG64's seed words.  The seed's share of the pool is
    NumPy's own SeedSequence(seed).pool; the rest is hashed for all cells at
    once, as uint32 arrays of shape (pool word, cell)."""
    # That pool took four hash constants per pool word, then four per seed
    # word past the fourth; the spawn key's words take the next.
    extra = max(0, len(_words(seed)) - _POOL_SIZE)  # raises on a negative seed
    if len(cells) and not (cells.min() >= 0 and cells.max() <= _MASK32):
        raise ValueError("cell indices must lie in [0, 2**32)")
    pool = np.random.SeedSequence(seed).pool[:, None]
    hash_const = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))[-1]
    for key in (cells.astype(np.uint32), *_words(drop)):
        pool, hash_const = _absorb(pool, hash_const, key)
    state = _hashmix(np.tile(pool, (2, 1)), _STATE_CONSTANTS[:-1], _STATE_CONSTANTS[1:])
    # PCG64 reads the words' memory as native uint64, unchecked
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64, copy=False)


class _Words(np.random.bit_generator.ISeedSequence):
    """One stream's four seed words, given to PCG64 as its seed sequence:
    PCG64 asks for generate_state(4, np.uint64) and seeds itself from them."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _fill(words: np.ndarray, rows: np.ndarray) -> None:
    """Fill each row with uniform doubles from the start of the stream that
    the matching row of _stream_words seeds."""
    for seed_words, row in zip(words, rows):
        np.random.Generator(np.random.PCG64(_Words(seed_words))).random(out=row)


# Flat-top hexagon vertices, unit circumradius, counterclockwise.
_HEX_VERTICES = np.array(
    [(math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)) for k in range(7)]
)


def _hex_offsets(u: np.ndarray, cell_radius_m: float) -> np.ndarray:
    """Points uniform over the hexagon from variates u of shape (..., 3),
    exactly 3 draws per point; returns shape (..., 2).

    The hexagon splits into six equal triangles at the center; a uniform
    triangle pick plus folded barycentric coordinates is draw-count stable,
    unlike rejection sampling.
    """
    tri = np.minimum((u[..., 0] * 6).astype(int), 5)
    a, b = u[..., 1], u[..., 2]
    fold = a + b > 1.0
    a = np.where(fold, 1.0 - a, a)
    b = np.where(fold, 1.0 - b, b)
    v0 = _HEX_VERTICES[tri]
    v1 = _HEX_VERTICES[tri + 1]
    return cell_radius_m * (a[..., None] * v0 + b[..., None] * v1)


def drop_ues(layout: CellLayout, ues_per_cell: int, seed: int) -> np.ndarray:
    """Absolute UE positions, shape (n_cells, ues_per_cell, 2); depends only
    on (seed, cell index), never on how many cells exist."""
    if ues_per_cell < 1:
        raise ValueError("ues_per_cell must be >= 1")
    u = np.empty((layout.n_cells, ues_per_cell, 3))
    _fill(_stream_words(seed, np.arange(layout.n_cells), 0), u)
    centres = np.asarray(layout.bs_positions).reshape(-1, 1, 2)
    return centres + _hex_offsets(u, layout.cell_radius_m)


def p_los(
    distance_m, d1_m: float = NetworkScenario.los_d1_m, d2_m: float = NetworkScenario.los_d2_m
):
    """Squared LoS probability model; equals 1 out to d1 and decays beyond.

    Accepts scalars or arrays; scalar in, scalar out.  An array result is a
    new array; the input is left unchanged.
    """
    d = np.asarray(distance_m, dtype=float)
    scalar = d.ndim == 0
    d = np.atleast_1d(d)  # one path: a scalar is the one element of an array
    far = _p_los_into(d, d1_m, d2_m, *np.empty((3, *d.shape)), np.empty(d.shape, dtype=bool))
    return float(far[0]) if scalar else far


def _p_los_into(
    d: np.ndarray, d1_m: float, d2_m: float,
    safe: np.ndarray, decay: np.ndarray, far: np.ndarray, near: np.ndarray,
) -> np.ndarray:
    """p_los of the distances d, written into far, which it returns.

    safe, decay and far are float buffers of d's shape and near a bool one;
    all four are overwritten, so none may share memory with d."""
    if np.less(d, 0.0, out=near).any():
        raise ValueError("distance must be >= 0")
    # The d <= d1 branch is algebraically 1; splitting it out avoids a
    # divide-by-zero at d = 0.  The floats of
    # ((d1 / safe) (1 - decay) + decay) ** 2 with decay = exp(-safe / d2).
    np.maximum(d, d1_m, out=safe)
    np.divide(safe, -d2_m, out=decay)
    np.exp(decay, out=decay)
    np.divide(d1_m, safe, out=safe)
    np.subtract(1.0, decay, out=far)
    far *= safe
    far += decay
    np.square(far, out=far)
    far[np.less_equal(d, d1_m, out=near)] = 1.0
    return far


def power_control(
    cell_radius_m: float,
    band: BandProfile,
    target_snr_db: float,
    rx_gain_dbi: float,
    ple: float = NetworkScenario.ple_los,
) -> float:
    """EIRP (dBm) holding the target SNR for a cell-edge receiver of the
    given gain; halving the radius lowers it by 6.02 dB at PLE 2."""
    path_loss = ci_path_loss_db(band.carrier_frequency_hz, cell_radius_m, ple)
    return tx_power_for_snr_dbm(
        target_snr_db, band.bandwidth_hz, band.noise_figure_db, path_loss, 0.0, rx_gain_dbi
    )


# Working-set budget, in pairs, of one block of the neighbour search and of one
# chunk of a drop, where a pair is a UE and an interferer.
_CHUNK_PAIRS = 1 << 15


def _bucket_grid(positions: np.ndarray, reach_m: float, side: float) -> tuple[int, np.ndarray]:
    """Buckets per side, nb, and each cell's bucket key, column * nb + row.

    The buckets tile the square, each side / nb wide: at least the reach plus
    a margin far above the rounding of the positions, so two cells in buckets
    two or more apart (across the seam too) are out of reach.  nb never
    exceeds the cell count, so the keys stay small however short the reach."""
    nb = max(1, math.floor(min(side / (reach_m * (1.0 + 1e-6)), len(positions))))
    cell = np.minimum((positions * (nb / side)).astype(np.intp), nb - 1)
    return nb, cell[:, 0] * nb + cell[:, 1]


def _neighbor_lists(
    positions: np.ndarray, reach_m: float, side: float, wraparound: bool
) -> list[np.ndarray]:
    """Indices of the cells within reach of each cell, ascending, as intp.

    Each bucket's cells are compared with the cells of its 3 x 3 neighbourhood
    only, so at a fixed reach the time and memory grow linearly with the cell
    count.  The distances use the float operations of an all-pairs search, so
    the lists are the same.  A bucket's rows are cut so that one block holds
    at most _CHUNK_PAIRS distances."""
    nb, keys = _bucket_grid(positions, reach_m, side)
    order = np.argsort(keys, kind="stable")
    occupied, starts = np.unique(keys[order], return_index=True)
    members = dict(zip(occupied.tolist(), np.split(order, starts[1:])))
    lists: list[np.ndarray] = [None] * len(positions)
    for key, rows in members.items():
        if wraparound:
            # sets: below three buckets a step across the seam meets itself
            xs, ys = ({(b + d) % nb for d in (-1, 0, 1)} for b in divmod(key, nb))
        else:
            xs, ys = ([b + d for d in (-1, 0, 1) if 0 <= b + d < nb] for b in divmod(key, nb))
        around = [members[k] for k in (x * nb + y for x in xs for y in ys) if k in members]
        cols = np.sort(np.concatenate(around))
        step = max(1, _CHUNK_PAIRS // len(cols))
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            delta = positions[block][:, None, :] - positions[cols][None, :, :]
            if wraparound:
                delta -= side * np.round(delta / side)
            # np.hypot, not the drop's sqrt(x x + y y): hex centres sit at
            # exact multiples of the spacing, so a distance may tie with the
            # reach, and a last-bit change could move a neighbour
            dist = np.hypot(delta[..., 0], delta[..., 1])
            dist[np.arange(len(block)), np.searchsorted(cols, block)] = np.inf
            for cell, row in zip(block.tolist(), dist):
                lists[cell] = cols[row <= reach_m]
    return lists


class _RadioConstants(NamedTuple):
    """Everything that does not change between drops."""

    eirp_dbm: float
    noise_w: float
    gain_ue_db: float
    anchor_db: float  # 1 m free-space loss at the carrier
    sector_power_w: float  # one occupied sector, cooling included
    ue_slope: float
    ue_fixed: float
    los_d2_m: float  # the LoS decay distance p_los is called with
    # interference at 1 m from a main-lobe and a sidelobe interferer
    i_main_w: float = 0.0
    i_side_w: float = 0.0


def _radio_constants(s: NetworkScenario, n_cells: int, most_interferers: int) -> _RadioConstants:
    """The constants of one radius, then its checks before the first drop,
    for a layout of n_cells cells of which none has more than
    most_interferers interferers.

    Both path-loss exponents are checked at the farthest UE distance a drop
    forms, so that ci_path_loss_db names one whose loss overflows, and the
    NLoS signal at the cell edge must not underflow to 0 W.  Path loss grows
    with distance, so every nearer UE passes too.  An interferer sits within
    reach and inside the square, so no farther than its diagonal.  The NLoS
    checks run only where p_los leaves room for an NLoS draw.

    Then the power and SNR of a main-lobe link at the 1 m anchor, the
    interference, rate and consumed power are bounded in Python floats, so
    that one no float holds is named here instead of becoming inf in a
    drop's arrays: every path loss is at least the 1 m anchor, a cell
    has at most `occupied` sectors on air, each splitting the band among its
    UEs, and a report adds n_cells x drops cells."""
    frequency, radius = s.band.carrier_frequency_hz, s.cell_radius_m
    gain_ue = s.ue.antenna_gain_db(frequency)
    gain_bs = s.bs.antenna_gain_db(frequency)
    eirp = power_control(radius, s.band, s.target_snr_db, gain_ue, s.ple_los)
    noise_dbm = thermal_noise_dbm(s.band.bandwidth_hz, s.band.noise_figure_db)
    # what the power control's EIRP, and so every power below, comes from
    held = f"holds the {s.target_snr_db:g} dB target SNR at the {radius:g} m cell edge"
    inputs = (
        f"LoS exponent {s.ple_los:g}, noise {noise_dbm:g} dBm, UE gain {gain_ue:g} dB,"
        f" base-station gain {gain_bs:g} dB"
    )
    try:
        tx_power_w = dbm_to_watts(eirp - gain_bs)
    except ValueError:
        raise ValueError(
            f"the transmit power {eirp - gain_bs:g} dBm that {held} is too large to express"
            f" in watts: {inputs}"
        ) from None
    ue_slope, ue_fixed = rx_power_coefficients(s.band, s.ue)
    anchor = free_space_path_loss_db(frequency)
    rc = _RadioConstants(
        eirp_dbm=eirp,
        noise_w=dbm_to_watts(noise_dbm),
        gain_ue_db=gain_ue,
        anchor_db=anchor,
        sector_power_w=terminal_power(s.bs, *tx_power_coefficients(s.band, s.bs), tx_power_w),
        ue_slope=ue_slope,
        ue_fixed=ue_fixed,
        # p_los's decay exp(-d / d2) past d1 is 0 once d1 / d2 passes 745,
        # so a d2 below d1 / 1000 gives the probabilities of d1 / 1000, whose
        # quotients d / d2 do not overflow.
        los_d2_m=max(s.los_d2_m, s.los_d1_m / 1000.0),
    )

    farthest = radius
    if s.interference:
        farthest += min(s.interferer_reach * radius, math.sqrt(2.0 * s.area_m2))
    ci_path_loss_db(frequency, farthest, s.ple_los)
    if p_los(farthest, s.los_d1_m, rc.los_d2_m) != 1.0:
        ci_path_loss_db(frequency, farthest, s.ple_nlos)
        if p_los(radius, s.los_d1_m, rc.los_d2_m) != 1.0:
            edge_db = ci_path_loss_db(frequency, radius, s.ple_nlos)
            if dbm_to_watts(eirp - edge_db + gain_ue) == 0.0:
                raise ValueError(
                    f"the NLoS signal at the {radius:g} m cell edge with exponent"
                    f" {s.ple_nlos:g} underflows to 0 W"
                )

    peak_dbm = eirp - anchor + gain_ue  # a main-lobe link at the anchor
    snr_db = peak_dbm - noise_dbm
    try:  # the largest signal of a drop, and its SNR
        dbm_to_watts(peak_dbm)
        db_to_linear(snr_db)
    except ValueError:
        raise ValueError(
            f"a main-lobe link at 1 m from the EIRP {eirp:g} dBm that {held} receives"
            f" {peak_dbm:g} dBm at SNR {snr_db:g} dB, too large to express in watts or as"
            f" a ratio: {inputs}"
        ) from None
    if most_interferers:
        pair_dbm = peak_dbm - min(s.sidelobe_db, 0.0)
        try:
            pair_w = dbm_to_watts(pair_dbm)
        except ValueError:
            pair_w = math.inf
        if not most_interferers * pair_w < math.inf:
            raise ValueError(
                f"interference from {most_interferers} interferers of up to {pair_dbm:g} dBm"
                f" each, sidelobe level {s.sidelobe_db:g} dB, is too large to express in watts"
            )
        # formed past the bound, so an overflowing sidelobe is named above
        rc = rc._replace(
            i_main_w=dbm_to_watts(peak_dbm), i_side_w=dbm_to_watts(peak_dbm - s.sidelobe_db)
        )
    occupied = min(s.arrays_per_bs, 7, s.ues_per_cell)
    scale = (
        f"{n_cells} cells x {s.drops} drops of up to {occupied} sectors"
        f" and {s.ues_per_cell} UEs"
    )
    cells = n_cells * s.drops
    if not cells * occupied * shannon_rate_bps(s.band.bandwidth_hz, snr_db) < math.inf:
        raise ValueError(
            f"{scale}: the summed rate over {s.band.bandwidth_hz!r} Hz at SNR up to"
            f" {snr_db!r} dB is too large to express in b/s"
        )
    bs_draw = occupied * rc.sector_power_w
    ue_draw = terminal_power(s.ue, ue_slope, ue_fixed, dbm_to_watts(eirp - anchor))
    if not cells * (bs_draw + s.ues_per_cell * ue_draw) < math.inf:
        fault = _consumed_fault(s.band, s.band.bandwidth_hz, s.bs, bs_draw, s.ue, ue_draw)
        raise ValueError(f"{scale}: {fault}")
    return rc


# A bool array's uint8 view selects from a two-entry table (False, True);
# indexed by the bool array itself, the table would be masked instead.
def _path_loss_db(s: NetworkScenario, rc: _RadioConstants, d: np.ndarray, los: np.ndarray):
    ple = np.array((s.ple_nlos, s.ple_los))[los.view(np.uint8)]
    return rc.anchor_db + 10.0 * ple * np.log10(np.maximum(d, 1.0))


def _interference_w(
    s: NetworkScenario, rc: _RadioConstants, d: np.ndarray, los: np.ndarray, main: np.ndarray,
    workspace: _Workspace,
):
    """Power received from each interferer: the close-in model in watts,
    P(1 m) d^-n, with no path loss inside 1 m.

    Writes into the last three float buffers of the workspace, so d may be
    a view of the first, never of another; returns a view of the last and
    leaves its inputs unchanged."""
    _, base, table, power = workspace.pairs(d.shape)[:4]
    np.maximum(d, 1.0, out=base)
    # mode="clip": with the default "raise", np.take buffers `out`
    np.take(np.array((-s.ple_nlos, -s.ple_los)), los.view(np.uint8), out=table, mode="clip")
    # Into a buffer that is neither input: on numpy 2.4 a one-element power
    # whose output is one of its inputs takes another loop, and d ** -1 then
    # differs in the last bit.
    np.power(base, table, out=power)
    np.take(np.array((rc.i_side_w, rc.i_main_w)), main.view(np.uint8), out=base, mode="clip")
    power *= base
    return power


class _Chunk(NamedTuple):
    """Cells that share one neighbour count k, drawn and computed together."""

    cells: np.ndarray  # (C,) cell indices, ascending
    centres: np.ndarray  # (2, C): x and y of each cell's centre
    interferers: np.ndarray  # (2, C, k): x and y of each cell's neighbours


def _chunks(positions: np.ndarray, neighbors: list[np.ndarray], n_ue: int) -> list[_Chunk]:
    """Cells grouped by neighbour count k, each group cut into chunks of at
    most _CHUNK_PAIRS pairs (one cell at least), so a larger k gets fewer
    cells.  Groups are never padded to a common k: np.sum adds rows of 8 or
    more terms with 8 accumulators, so zero padding would move the last bits
    of each UE's interference."""
    counts = np.array([len(nb) for nb in neighbors])
    chunks = []
    for k in np.unique(counts).tolist():
        group = np.flatnonzero(counts == k)
        step = max(1, _CHUNK_PAIRS // (n_ue * max(k, 1)))
        for start in range(0, len(group), step):
            cells = group[start : start + step]
            nbrs = np.array([neighbors[c] for c in cells], dtype=np.intp)
            chunks.append(_Chunk(cells, positions.T[:, cells], positions.T[:, nbrs]))
    return chunks


class _Workspace(NamedTuple):
    """One radius's flat buffers, which every chunk of every drop writes its
    variates and pair-sized arrays into, as views of their first elements.
    Sized from the largest chunk, which may exceed _CHUNK_PAIRS: one cell is
    one chunk however many pairs it has."""

    draws: np.ndarray  # (D,): one chunk's variates
    floats: np.ndarray  # (4, P): the distance, then p_los's and _interference_w's three
    bools: np.ndarray  # (2, P): the LoS and main-lobe draws

    @classmethod
    def sized(cls, pairs: int, draws: int) -> _Workspace:
        return cls(np.empty(draws), np.empty((4, pairs)), np.empty((2, pairs), dtype=bool))

    @classmethod
    def for_chunks(cls, chunks: list[_Chunk], n_ue: int) -> _Workspace:
        """Sized from the most pairs, c n k, and draws, c (4n + 2nk), of a chunk."""
        shapes = [chunk.interferers.shape[1:] for chunk in chunks]
        return cls.sized(
            max(c * n_ue * k for c, k in shapes), max(c * n_ue * (4 + 2 * k) for c, k in shapes)
        )

    def pairs(self, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """The four float buffers, then the two bool ones, as arrays of shape."""
        size = math.prod(shape)
        return tuple(b[:size].reshape(shape) for b in (*self.floats, *self.bools))


def _distance_into(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sqrt(dx dx + dy dy), written over dx, which it returns; dy is
    overwritten too.  Multiply, add and sqrt are each correctly rounded, so
    the floats are those of math.sqrt(x * x + y * y) on every machine, where
    np.hypot's depend on the libm; np.hypot also costs several times more."""
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _fold(values: np.ndarray) -> float:
    """Left-to-right sum, the order of a running total (np.sum adds pairwise)."""
    return float(np.add.accumulate(values)[-1])


def _simulate_drop(
    s: NetworkScenario, rc: _RadioConstants, chunks: list[_Chunk], n_cells: int, drop_idx: int,
    side: float, workspace: _Workspace,
) -> tuple[float, float, float, int]:
    """Rate, power, summed SINR (dB) and LoS count of one drop.

    Each cell draws all 4n + 2nk variates of its stream in one call: 3n hex
    offsets, n serving-LoS draws, then n x k x 2 interferer draws.  Per-cell
    totals are folded in cell order, sector power before UE power.  Every
    chunk writes its variates and pair-sized arrays into the workspace.
    """
    n = s.ues_per_cell
    sectors = s.arrays_per_bs
    offsets = np.empty((n_cells, n, 2))
    u_serving = np.empty((n_cells, n))
    interference_w = np.zeros((n_cells, n))
    words = _stream_words(s.seed, np.arange(n_cells), drop_idx)
    for chunk in chunks:
        c, k = chunk.interferers.shape[1:]
        u = workspace.draws[: c * (4 * n + 2 * n * k)].reshape(c, -1)
        _fill(words[chunk.cells], u)
        chunk_offsets = _hex_offsets(u[:, : 3 * n].reshape(c, n, 3), s.cell_radius_m)
        offsets[chunk.cells] = chunk_offsets
        u_serving[chunk.cells] = u[:, 3 * n : 4 * n]
        if k:
            u_int = u[:, 4 * n :].reshape(c, n, k, 2)
            dx, dy, scratch, spare, los_int, main_lobe = workspace.pairs((c, n, k))
            # UE minus interferer, x and y apart
            (centre_x, centre_y), (interferer_x, interferer_y) = chunk.centres, chunk.interferers
            ue_x = centre_x[:, None] + chunk_offsets[..., 0]
            ue_y = centre_y[:, None] + chunk_offsets[..., 1]
            np.subtract(ue_x[..., None], interferer_x[:, None, :], out=dx)
            np.subtract(ue_y[..., None], interferer_y[:, None, :], out=dy)
            if s.wraparound:
                for delta in (dx, dy):  # delta -= side * round(delta / side)
                    np.divide(delta, side, out=scratch)
                    np.round(scratch, out=scratch)
                    np.multiply(side, scratch, out=scratch)
                    np.subtract(delta, scratch, out=delta)
            d_int = _distance_into(dx, dy)
            # dy is free now; the compare reads LoS before _interference_w
            # overwrites the last three float buffers
            p_int = _p_los_into(d_int, s.los_d1_m, rc.los_d2_m, dy, scratch, spare, los_int)
            np.less(u_int[..., 0], p_int, out=los_int)
            np.less(u_int[..., 1], 1.0 / sectors, out=main_lobe)
            i_w = _interference_w(s, rc, d_int, los_int, main_lobe, workspace)
            interference_w[chunk.cells] = np.sum(i_w, axis=2)

    d_serving = np.hypot(offsets[..., 0], offsets[..., 1])
    los = u_serving < p_los(d_serving, s.los_d1_m, rc.los_d2_m)
    arrival_dbm = rc.eirp_dbm - _path_loss_db(s, rc, d_serving, los)
    ue_power = terminal_power(s.ue, rc.ue_slope, rc.ue_fixed, dbm_to_watts(arrival_dbm))
    ue_power = np.sum(ue_power, axis=1)  # per cell
    # the SINR, formed over the signal, with the noise added to the interference
    sinr = dbm_to_watts(arrival_dbm + rc.gain_ue_db)
    interference_w += rc.noise_w
    sinr /= interference_w

    # the sector index runs 0..6 at most, so a cell needs no more slots than
    # that, however many arrays it has
    stride = min(sectors, 7)
    # each UE's slot, from floor((angle + pi) / (pi / 3)) formed over d_serving
    angles = np.arctan2(offsets[..., 1], offsets[..., 0], out=d_serving)
    angles += math.pi
    angles /= math.pi / 3.0
    slot = np.floor(angles, out=angles).astype(int)
    slot %= stride
    slot += np.arange(n_cells)[:, None] * stride
    occupancy = np.bincount(slot.ravel(), minlength=n_cells * stride)
    # log2(1 + SINR) times each UE's share of the band, written over angles
    rate_terms = np.log2(1.0 + sinr)
    rate_terms *= np.divide(s.band.bandwidth_hz, occupancy[slot], out=angles)

    rate = np.sum(rate_terms, axis=1)
    occupied = np.count_nonzero(occupancy.reshape(n_cells, stride), axis=1)
    power = np.stack([occupied * rc.sector_power_w, ue_power], axis=1)
    sinr_db = np.sum(10.0 * np.log10(sinr), axis=1)
    return _fold(rate), _fold(power.ravel()), _fold(sinr_db), int(np.count_nonzero(los))


def simulate_network(scenario: NetworkScenario) -> NetworkReport:
    """Monte-Carlo over drops at one radius; see the module docstring for
    the determinism contract."""
    layout = hex_layout(scenario.area_m2, scenario.cell_radius_m)
    positions = np.asarray(layout.bs_positions)
    if scenario.interference:
        reach = scenario.interferer_reach * scenario.cell_radius_m
        neighbors = _neighbor_lists(positions, reach, layout.area_side_m, scenario.wraparound)
    else:
        neighbors = [np.empty(0, dtype=np.intp)] * layout.n_cells
    chunks = _chunks(positions, neighbors, scenario.ues_per_cell)
    rc = _radio_constants(scenario, layout.n_cells, max(map(len, neighbors)))
    workspace = _Workspace.for_chunks(chunks, scenario.ues_per_cell)

    drop_rates = np.empty(scenario.drops)
    drop_powers = np.empty(scenario.drops)
    sinr_db_sum = 0.0
    los_count = 0
    for drop in range(scenario.drops):
        rate, power, sinr_db, los = _simulate_drop(
            scenario, rc, chunks, layout.n_cells, drop, layout.area_side_m, workspace
        )
        drop_rates[drop] = rate
        drop_powers[drop] = power
        sinr_db_sum += sinr_db
        los_count += los
    ue_count = scenario.drops * layout.n_cells * scenario.ues_per_cell

    throughput = float(np.mean(drop_rates))
    mean_sinr_db = sinr_db_sum / ue_count
    if throughput == 0.0:
        raise ValueError(
            f"the rate at cell radius {scenario.cell_radius_m:g} m is 0 b/s: mean SINR"
            f" {mean_sinr_db:g} dB at target SNR {scenario.target_snr_db:g} dB,"
            f" sidelobe level {scenario.sidelobe_db:g} dB"
        )
    power = float(np.mean(drop_powers))
    drop_cefs = drop_rates / drop_powers
    if scenario.drops > 1:
        halfwidth = 1.96 * float(np.std(drop_cefs, ddof=1)) / math.sqrt(scenario.drops)
    else:
        halfwidth = 0.0
    return NetworkReport(
        radius_m=scenario.cell_radius_m,
        n_cells=layout.n_cells,
        throughput_bps=throughput,
        power_w=power,
        cef_bpj=throughput / power,
        mean_sinr_db=mean_sinr_db,
        los_fraction=los_count / ue_count,
        ci_halfwidth_bpj=halfwidth,
        drops=scenario.drops,
    )


def radius_scenarios(
    scenario: NetworkScenario, radii: Iterable[float] = DEFAULT_RADII
) -> tuple[NetworkScenario, ...]:
    """The scenario at each radius, in input order; all are built, and so
    checked, before any runs."""
    return tuple(replace(scenario, cell_radius_m=float(r)) for r in radii)


def sweep_radius(
    scenario: NetworkScenario, radii: Iterable[float] = DEFAULT_RADII
) -> tuple[NetworkReport, ...]:
    """One report per radius, in input order."""
    return tuple(map(simulate_network, radius_scenarios(scenario, radii)))


def optimal_radius(reports: Iterable[NetworkReport]) -> NetworkReport:
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to compare")
    return max(reports, key=lambda r: r.cef_bpj)


def network_csv_rows(reports: Iterable[NetworkReport]) -> Iterable[str]:
    yield NETSIM_CSV_HEADER
    for r in reports:
        yield (
            f"{r.radius_m:.10g},{r.n_cells},{r.cef_bpj / 1e9:.10g},"
            f"{r.throughput_bps / 1e9:.10g},{r.power_w:.10g},{r.mean_sinr_db:.10g},"
            f"{r.los_fraction:.10g},{r.ci_halfwidth_bpj / 1e9:.10g}"
        )
