"""Hexagonal small-cell network Monte Carlo.

Downlink-style coverage study: base stations sit on a hexagonal lattice, each
driving six 60-degree sector arrays with power control that holds a target
SNR at the cell edge.  User positions, per-link LoS states, and interferer
beam alignment are sampled per drop; throughput, consumed power, and the
network consumption efficiency are aggregated per cell radius.

Determinism: every (cell, drop) pair owns an independent substream derived
from the scenario seed by spawn key, so adding cells or running drops in a
different order never reshuffles another cell's draws, and results are
reduced by index.  Identical seeds produce identical reports byte for byte.
Each stream is the PCG64 generator that NumPy's seed sequence seeds from the
scenario seed and the spawn key (cell, drop), but a drop hashes the states of
all its cells in one batch of uint32 array arithmetic and loads them in turn
into one reused generator.

A drop is whole-array work: cells with the same number of interferers sum
their interference together, in chunks of bounded size, then the serving
links, sectors and power run over all cells at once.  Totals are added in cell
order with the same float operations as a cell-by-cell loop, so reports match
that loop bit for bit (the tests keep it as an oracle).

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


# NumPy's seed-sequence hash (numpy/random/bit_generator.pyx) and the PCG64
# multiplier (O'Neill 2014, "PCG: A Family of Simple Fast Space-Efficient
# Statistically Good Algorithms for Random Number Generation").
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _pcg64_state(words: np.ndarray) -> tuple[int, int]:
    """PCG64's (state, inc) seeded from four generate_state words: inc is
    2 i + 1, then two steps from state 0 add the seed s."""
    s_hi, s_lo, i_hi, i_lo = words.tolist()
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    return (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128, inc


class _Streams:
    """The random streams of one seed, one per (cell, drop).

    Each stream is the PCG64 generator that NumPy's seed sequence of the seed
    with spawn key (cell, drop) seeds: the seed's words (at least four), the
    cell's word and the drop's words are hashed into a pool of four words,
    which is hashed into PCG64's seed words.  The seed's share of the pool is
    NumPy's own SeedSequence(seed).pool; states() hashes the rest for all
    cells of a drop at once, as uint32 arrays of shape (pool word, cell), and
    fill() seeds a single reused generator from one cell's words."""

    def __init__(self, seed: int):
        # That pool took four hash constants per pool word, then four per
        # seed word past the fourth; the spawn key's words take the next.
        extra = max(0, len(_words(seed)) - _POOL_SIZE)  # raises on a negative seed
        self._pool = np.random.SeedSequence(seed).pool[:, None]
        count = _POOL_SIZE * (_POOL_SIZE + extra)
        self._hash_const = _hash_constants(_INIT_A, _MULT_A, count)[-1]
        self._bit_generator = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bit_generator)

    def states(self, cells: np.ndarray, drop: int) -> np.ndarray:
        """generate_state(4, np.uint64) of each cell's stream in the drop,
        shape (cells, 4)."""
        if len(cells) and not (cells.min() >= 0 and cells.max() <= _MASK32):
            raise ValueError("cell indices must lie in [0, 2**32)")
        pool, hash_const = self._pool, self._hash_const
        for key in (cells.astype(np.uint32), *_words(drop)):
            pool, hash_const = _absorb(pool, hash_const, key)
        state = _hashmix(np.tile(pool, (2, 1)), _STATE_CONSTANTS[:-1], _STATE_CONSTANTS[1:])
        return np.ascontiguousarray(state.T, "<u4").view("<u8")

    def fill(self, words: np.ndarray, out: np.ndarray) -> None:
        """Fill out with uniform doubles from the start of one stream."""
        state, inc = _pcg64_state(words)
        self._bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._generator.random(out=out)


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
    streams = _Streams(seed)
    u = np.empty((layout.n_cells, ues_per_cell, 3))
    for row, state in zip(u, streams.states(np.arange(layout.n_cells), 0)):
        streams.fill(state, row)
    centres = np.asarray(layout.bs_positions).reshape(-1, 1, 2)
    return centres + _hex_offsets(u, layout.cell_radius_m)


def p_los(distance_m, d1_m: float = 22.0, d2_m: float = 113.4):
    """Squared LoS probability model; equals 1 out to d1 and decays beyond.

    Accepts scalars or arrays; scalar in, scalar out.
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d < 0.0):
        raise ValueError("distance must be >= 0")
    # The d <= d1 branch is algebraically 1; splitting it out avoids a
    # divide-by-zero at d = 0.
    safe = np.maximum(d, d1_m)
    decay = np.exp(-safe / d2_m)
    far = ((d1_m / safe) * (1.0 - decay) + decay) ** 2
    result = np.where(d <= d1_m, 1.0, far)
    return float(result) if result.ndim == 0 else result


def power_control(
    cell_radius_m: float,
    band: BandProfile,
    target_snr_db: float,
    rx_gain_dbi: float,
    ple: float = 2.0,
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

    Then the interference, rate and consumed power are bounded in Python
    floats, so that one no float holds is named here instead of becoming inf
    in a drop's arrays: every path loss is at least the 1 m anchor, a cell
    has at most `occupied` sectors on air, each splitting the band among its
    UEs, and a report adds n_cells x drops cells."""
    frequency, radius = s.band.carrier_frequency_hz, s.cell_radius_m
    gain_ue = s.ue.antenna_gain_db(frequency)
    gain_bs = s.bs.antenna_gain_db(frequency)
    eirp = power_control(radius, s.band, s.target_snr_db, gain_ue, s.ple_los)
    tx_power_w = dbm_to_watts(eirp - gain_bs)
    ue_slope, ue_fixed = rx_power_coefficients(s.band, s.ue)
    noise_dbm = thermal_noise_dbm(s.band.bandwidth_hz, s.band.noise_figure_db)
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
    occupied = min(s.arrays_per_bs, 7, s.ues_per_cell)
    scale = (
        f"{n_cells} cells x {s.drops} drops of up to {occupied} sectors"
        f" and {s.ues_per_cell} UEs"
    )
    cells = n_cells * s.drops
    snr_db = peak_dbm - noise_dbm
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


def _path_loss_db(s: NetworkScenario, rc: _RadioConstants, d: np.ndarray, los: np.ndarray):
    ple = np.where(los, s.ple_los, s.ple_nlos)
    return rc.anchor_db + 10.0 * ple * np.log10(np.maximum(d, 1.0))


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


def _fold(values: np.ndarray) -> float:
    """Left-to-right sum, the order of a running total (np.sum adds pairwise)."""
    return float(np.add.accumulate(values)[-1])


def _simulate_drop(
    s: NetworkScenario, rc: _RadioConstants, streams: _Streams, chunks: list[_Chunk],
    n_cells: int, drop_idx: int, side: float,
) -> tuple[float, float, float, int]:
    """Rate, power, summed SINR (dB) and LoS count of one drop.

    Each cell draws all 4n + 2nk variates of its stream in one call: 3n hex
    offsets, n serving-LoS draws, then n x k x 2 interferer draws.  Per-cell
    totals are folded in cell order, sector power before UE power.
    """
    n = s.ues_per_cell
    sectors = s.arrays_per_bs
    offsets = np.empty((n_cells, n, 2))
    u_serving = np.empty((n_cells, n))
    interference_w = np.zeros((n_cells, n))
    states = streams.states(np.arange(n_cells), drop_idx)
    for chunk in chunks:
        c, k = chunk.interferers.shape[1:]
        u = np.empty((c, 4 * n + 2 * n * k))
        for row, cell in zip(u, chunk.cells.tolist()):
            streams.fill(states[cell], row)
        chunk_offsets = _hex_offsets(u[:, : 3 * n].reshape(c, n, 3), s.cell_radius_m)
        offsets[chunk.cells] = chunk_offsets
        u_serving[chunk.cells] = u[:, 3 * n : 4 * n]
        if k:
            u_int = u[:, 4 * n :].reshape(c, n, k, 2)
            ue_abs = chunk.centres[..., None] + np.moveaxis(chunk_offsets, -1, 0)
            delta = ue_abs[..., None] - chunk.interferers[:, :, None, :]  # (2, C, n, k)
            if s.wraparound:
                delta -= side * np.round(delta / side)
            d_int = np.hypot(delta[0], delta[1])
            los_int = u_int[..., 0] < p_los(d_int, s.los_d1_m, rc.los_d2_m)
            pl_int = _path_loss_db(s, rc, d_int, los_int)
            main_lobe = u_int[..., 1] < 1.0 / sectors
            discrimination = np.where(main_lobe, 0.0, s.sidelobe_db)
            i_dbm = rc.eirp_dbm - pl_int + rc.gain_ue_db - discrimination
            interference_w[chunk.cells] = np.sum(dbm_to_watts(i_dbm), axis=2)

    d_serving = np.hypot(offsets[..., 0], offsets[..., 1])
    los = u_serving < p_los(d_serving, s.los_d1_m, rc.los_d2_m)
    arrival_dbm = rc.eirp_dbm - _path_loss_db(s, rc, d_serving, los)
    signal_w = dbm_to_watts(arrival_dbm + rc.gain_ue_db)
    sinr = signal_w / (rc.noise_w + interference_w)

    angles = np.arctan2(offsets[..., 1], offsets[..., 0])
    # the sector index runs 0..6 at most, so a cell needs no more slots than
    # that, however many arrays it has
    stride = min(sectors, 7)
    sector = np.floor((angles + math.pi) / (math.pi / 3.0)).astype(int) % stride
    slot = np.arange(n_cells)[:, None] * stride + sector
    occupancy = np.bincount(slot.ravel(), minlength=n_cells * stride)
    bandwidth_share = s.band.bandwidth_hz / occupancy[slot]

    ue_power = terminal_power(s.ue, rc.ue_slope, rc.ue_fixed, dbm_to_watts(arrival_dbm))

    rate = np.sum(bandwidth_share * np.log2(1.0 + sinr), axis=1)
    occupied = np.count_nonzero(occupancy.reshape(n_cells, stride), axis=1)
    power = np.stack([occupied * rc.sector_power_w, np.sum(ue_power, axis=1)], axis=1)
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
    streams = _Streams(scenario.seed)

    drop_rates = np.empty(scenario.drops)
    drop_powers = np.empty(scenario.drops)
    sinr_db_sum = 0.0
    los_count = 0
    for drop in range(scenario.drops):
        rate, power, sinr_db, los = _simulate_drop(
            scenario, rc, streams, chunks, layout.n_cells, drop, layout.area_side_m
        )
        drop_rates[drop] = rate
        drop_powers[drop] = power
        sinr_db_sum += sinr_db
        los_count += los
    ue_count = scenario.drops * layout.n_cells * scenario.ues_per_cell

    throughput = float(np.mean(drop_rates))
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
        mean_sinr_db=sinr_db_sum / ue_count,
        los_fraction=los_count / ue_count,
        ci_halfwidth_bpj=halfwidth,
        drops=scenario.drops,
    )


def sweep_radius(
    scenario: NetworkScenario, radii: Iterable[float] = DEFAULT_RADII
) -> tuple[NetworkReport, ...]:
    """One report per radius, in input order."""
    tasks = [replace(scenario, cell_radius_m=float(r)) for r in radii]
    return tuple(simulate_network(t) for t in tasks)


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
