"""Tests for netsim.py — hex layout, UE drops, LoS model, Monte-Carlo runs."""
import math
import re
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wastefactor.linkbudget import (
    ci_path_loss_db,
    dbm_to_watts,
    free_space_path_loss_db,
    thermal_noise_dbm,
)
from wastefactor import netsim
from wastefactor.netsim import (
    NETSIM_CSV_HEADER,
    CellLayout,
    NetworkReport,
    NetworkScenario,
    default_network,
    drop_ues,
    hex_layout,
    network_csv_rows,
    optimal_radius,
    p_los,
    power_control,
    simulate_network,
    sweep_radius,
)
from wastefactor.netsim import (
    _Words,
    _Workspace,
    _chunks,
    _fill,
    _hex_offsets,
    _interference_w,
    _neighbor_lists,
    _path_loss_db,
    _radio_constants,
    _stream_words,
)
from wastefactor.transceiver import (
    _MAX_CELLS,
    _MAX_INTERFERER_PAIRS,
    _MAX_UES_PER_CELL,
    _MAX_UES_PER_DROP,
    _cells_at_most,
    _interferers_at_most,
    rx_power_coefficients,
    subthz_140,
    terminal_power,
    tx_power_coefficients,
)

from test_transceiver import RecordChecks

# Hexagon packing in the default 1 km^2 study area, frozen per radius.
_CELL_COUNTS = {20: 941, 35: 304, 50: 150, 65: 85, 80: 56, 100: 39, 150: 14, 250: 6, 500: 1}

# Mean UE-to-center distance over a unit-circumradius hexagon: the uniform
# average works out to about 0.607986 circumradii.
_MEAN_CENTER_DISTANCE = 0.607986
_MEAN_CENTER_DISTANCE_R20_SEED3 = 0.6077331234311556

# power_control at 100 m for a 59.1 dBi receiver on the 140 GHz profile.
_EIRP_100M_DBM = 8.3155

# Defaults, 50 drops, seed 1: the 65 m optimum row and the one-cell 500 m row.
_R65_ROW = (85, 5267331228.064204, 10063781964391.06, 1910.6035919616165,
            14.185212155870044, 0.7576313725490196, 33611857.962048545)
_R500_ROW = (1, 470344911.84475327, 23193662155.75722, 49.3120294738359,
             -3.6066378893943734, 0.04666666666666667, 105621698.67219035)


def _cell_rng(seed, cell_idx, drop_idx):
    """Reference stream of one (cell, drop): NumPy's own spawn-key seeding."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(cell_idx, drop_idx))
    return np.random.default_rng(seq)


# Scalar oracle: simulate_network as a loop over cells, one cell-drop at a
# time.  It draws each cell's variates in three calls and adds every total as
# it goes, so it shares neither the single draw nor the grouping, chunking and
# folding of the whole-array drop.
@dataclass
class _DropTotals:
    rate_bps: float = 0.0
    power_w: float = 0.0
    sinr_db_sum: float = 0.0
    los_count: int = 0
    ue_count: int = 0


def _simulate_cell(s, rc, positions, neighbors, cell_idx, drop_idx, side, totals):
    rng = _cell_rng(s.seed, cell_idx, drop_idx)
    n_ue = s.ues_per_cell
    offsets = _hex_offsets(rng.random((n_ue, 3)), s.cell_radius_m)
    u_serving = rng.random(n_ue)

    d_serving = np.hypot(offsets[:, 0], offsets[:, 1])
    los = u_serving < p_los(d_serving, s.los_d1_m, s.los_d2_m)
    pl_serving = _path_loss_db(s, rc, d_serving, los)
    arrival_dbm = rc.eirp_dbm - pl_serving
    signal_w = dbm_to_watts(arrival_dbm + rc.gain_ue_db)

    interference_w = np.zeros(n_ue)
    if s.interference and len(neighbors) > 0:
        u_int = rng.random((n_ue, len(neighbors), 2))
        ue_abs = np.asarray(positions[cell_idx]) + offsets
        delta = ue_abs[:, None, :] - positions[neighbors][None, :, :]
        if s.wraparound:
            delta -= side * np.round(delta / side)
        d_int = np.hypot(delta[..., 0], delta[..., 1])
        los_int = u_int[..., 0] < p_los(d_int, s.los_d1_m, s.los_d2_m)
        main_lobe = u_int[..., 1] < 1.0 / s.arrays_per_bs
        # close-in model in watts: the power at 1 m times d^-n
        peak_dbm = rc.eirp_dbm - rc.anchor_db + rc.gain_ue_db
        i_1m = np.where(main_lobe, dbm_to_watts(peak_dbm), dbm_to_watts(peak_dbm - s.sidelobe_db))
        ple = np.where(los_int, s.ple_los, s.ple_nlos)
        interference_w = np.sum(i_1m * np.maximum(d_int, 1.0) ** -ple, axis=1)

    sinr = signal_w / (rc.noise_w + interference_w)

    angles = np.arctan2(offsets[:, 1], offsets[:, 0])
    sector = np.floor((angles + math.pi) / (math.pi / 3.0)).astype(int) % s.arrays_per_bs
    occupancy = np.bincount(sector, minlength=s.arrays_per_bs)
    bandwidth_share = s.band.bandwidth_hz / occupancy[sector]

    arrival_w = dbm_to_watts(arrival_dbm)
    ue_power = (1.0 + s.ue.cooling_overhead) * (rc.ue_slope * arrival_w + rc.ue_fixed)

    totals.rate_bps += float(np.sum(bandwidth_share * np.log2(1.0 + sinr)))
    totals.power_w += float(np.count_nonzero(occupancy) * rc.sector_power_w)
    totals.power_w += float(np.sum(ue_power))
    totals.sinr_db_sum += float(np.sum(10.0 * np.log10(sinr)))
    totals.los_count += int(np.sum(los))
    totals.ue_count += n_ue


def _oracle(scenario):
    layout = hex_layout(scenario.area_m2, scenario.cell_radius_m)
    positions = np.asarray(layout.bs_positions)
    reach = scenario.interferer_reach * scenario.cell_radius_m
    neighbors = _neighbor_lists(positions, reach, layout.area_side_m, scenario.wraparound)
    rc = _radio_constants(scenario, layout.n_cells, max(map(len, neighbors)))

    drop_rates = np.empty(scenario.drops)
    drop_powers = np.empty(scenario.drops)
    sinr_db_sum = 0.0
    los_count = 0
    ue_count = 0
    for drop in range(scenario.drops):
        totals = _DropTotals()
        for cell in range(layout.n_cells):
            _simulate_cell(
                scenario, rc, positions, neighbors[cell], cell, drop,
                layout.area_side_m, totals,
            )
        drop_rates[drop] = totals.rate_bps
        drop_powers[drop] = totals.power_w
        sinr_db_sum += totals.sinr_db_sum
        los_count += totals.los_count
        ue_count += totals.ue_count

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


@st.composite
def _small_networks(draw):
    radius = draw(st.floats(min_value=50.0, max_value=500.0))
    # just above the smallest area that holds a cell, up to 0.25 km^2
    smallest = (math.sqrt(3.0) * radius / 2.0) ** 2 * (1.0 + 1e-6)
    return default_network(
        radius,
        area_m2=draw(st.floats(min_value=smallest, max_value=0.25e6)),
        wraparound=draw(st.booleans()),
        interference=draw(st.booleans()),
        drops=draw(st.integers(min_value=1, max_value=3)),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        ues_per_cell=draw(st.integers(min_value=1, max_value=20)),
        arrays_per_bs=draw(st.integers(min_value=1, max_value=12)),
    )


@st.composite
def _chunk_pairs(draw):
    """d, los and main of a chunk's (C, n, k) (UE, interferer) pairs."""
    shape = draw(hnp.array_shapes(min_dims=3, max_dims=3, max_side=6))
    d = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 5000.0)))
    los, main = (draw(hnp.arrays(np.bool_, shape)) for _ in range(2))
    return d, los, main


class TestScenarioValidation:
    def test_radius_range(self):
        for bad in (19.9, 500.1, 0.0, -5.0):
            with pytest.raises(ValueError):
                default_network(bad)
        default_network(20.0)
        default_network(500.0)

    def test_count_and_area_guards(self):
        with pytest.raises(ValueError):
            default_network(65.0, drops=0)
        with pytest.raises(ValueError):
            default_network(65.0, ues_per_cell=0)
        with pytest.raises(ValueError):
            default_network(65.0, area_m2=0.0)
        with pytest.raises(ValueError):
            default_network(65.0, interferer_reach=0.0)

    def test_ue_count_is_bounded(self):
        assert default_network(65.0, ues_per_cell=1000).ues_per_cell == 1000
        with pytest.raises(ValueError, match="at most 1000, got 1001"):
            default_network(65.0, ues_per_cell=1001)

    def test_ue_bound_keeps_a_drop_array_small(self):
        # one (cells, UEs) float64 array at the densest default layout, by
        # arithmetic only: no drop runs
        cells = hex_layout(1e6, 20.0).n_cells
        assert cells == 941
        assert cells * _MAX_UES_PER_CELL * 8 == 7_528_000

    @pytest.mark.parametrize("radius", [20.0, 21.7, 35.0, 50.0, 65.0, 100.0, 150.0, 333.3, 500.0])
    def test_cell_estimate_is_never_below_the_layout(self, radius):
        # sides just below, at and above a whole number of column and row
        # pitches, where the strict `< side` of hex_layout drops a centre
        sides = [math.sqrt(3.0) * radius / 2.0 * (1.0 + 1e-9), 97.3, 1000.0, 2000.0]
        for k in (1, 2, 7, 30):
            for edge in (0.75 * radius + 1.5 * radius * k, math.sqrt(3.0) * radius * (k + 0.5)):
                sides += [edge * (1.0 - 1e-12), edge, edge * (1.0 + 1e-12)]
        for side in sides:
            area = side * side
            if hex_layout(area, radius).n_cells == 0:
                continue
            assert _cells_at_most(area, radius) >= hex_layout(area, radius).n_cells, side

    def test_area_bound_keeps_a_layout_small(self):
        # by arithmetic only: no layout past the bound is built
        interferers = math.pi * 8.0**2 / (1.5 * math.sqrt(3.0))  # default reach of 8 radii
        assert round(interferers) == 77
        assert _MAX_CELLS * 77 * 24 == pytest.approx(242e6, rel=0.01)
        assert _MAX_UES_PER_DROP * 8 == pytest.approx(16.8e6, rel=0.01)
        # what runs at 20 m: 100 km2, the 25 km2 scale smoke, netsim-wide's
        # 4 km2 and 1 km2 at the UE-per-cell bound
        assert _cells_at_most(100e6, 20.0) * 15 <= _MAX_UES_PER_DROP
        for area in (100e6, 25e6, 4e6):
            assert _cells_at_most(area, 20.0) < _MAX_CELLS
            assert default_network(20.0, area_m2=area).area_m2 == area
        assert _cells_at_most(1e6, 20.0) * 1000 <= _MAX_UES_PER_DROP
        assert default_network(20.0, ues_per_cell=1000).ues_per_cell == 1000
        # past the cell bound, and past the UE bound alone
        for area, ues in [(200e6, 15), (1e308, 15), (2.2e6, 1000)]:
            assert _cells_at_most(area, 20.0) * ues > _MAX_UES_PER_DROP or (
                _cells_at_most(area, 20.0) > _MAX_CELLS
            )
            message = f"area {area:g} m2 at cell radius 20 m holds up to"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                default_network(20.0, area_m2=area, ues_per_cell=ues)
        assert _cells_at_most(2.2e6, 20.0) < _MAX_CELLS

    @pytest.mark.parametrize("wraparound", [False, True], ids=["flat", "wrapped"])
    @pytest.mark.parametrize("radius", [20.0, 65.0, 150.0])
    def test_interferer_estimate_is_never_below_the_lists(self, radius, wraparound):
        # sides off a lattice period, and whole numbers of column pairs (3 r)
        # and of row pairs (2 sqrt(3) r)
        for side in (300.0, 777.7, 1000.0, 3.0 * radius * 7, 2.0 * math.sqrt(3.0) * radius * 5):
            area = side * side
            layout = hex_layout(area, radius)
            positions = np.asarray(layout.bs_positions)
            cells = _cells_at_most(area, radius)
            for reach in (1.0, 2.5, 4.0, 8.0, 13.0, 20.0):
                neighbors = _neighbor_lists(
                    positions, reach * radius, layout.area_side_m, wraparound
                )
                assert _interferers_at_most(cells, reach) >= max(map(len, neighbors)), (side, reach)

    def test_pair_bound_keeps_neighbour_lists_small(self):
        # by arithmetic only: no layout past the bound is built
        default = _interferers_at_most(_MAX_CELLS, 8.0)
        assert round(default) == 98
        assert _MAX_INTERFERER_PAIRS * 24 == pytest.approx(403e6, rel=0.01)
        # every layout under the cell bound, at the default reach
        assert _MAX_CELLS * default <= _MAX_INTERFERER_PAIRS
        # what runs at 20 m: 100 km2, the 25 km2 scale smoke and netsim-wide's 4 km2
        for area, wraparound in [(100e6, False), (25e6, True), (4e6, True)]:
            assert default_network(20.0, area_m2=area, wraparound=wraparound).area_m2 == area
        # a reach past every other cell, while the cells are few
        cells = _cells_at_most(1e6, 20.0)
        assert _interferers_at_most(cells, 1e9) == cells - 1
        assert default_network(20.0, interferer_reach=1e9).interferer_reach == 1e9
        message = "interferer reach 1e+09 radii over area 1e+08 m2 at cell radius 20 m gives up to"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            default_network(20.0, area_m2=100e6, interferer_reach=1e9)

    @pytest.mark.parametrize("scale, cells", [(1.0 - 1e-9, 0), (1.0 + 1e-9, 1)])
    def test_area_must_hold_a_cell(self, scale, cells):
        # hex_layout's first centre sits at y = sqrt(3) r / 2, strictly inside
        area = (math.sqrt(3.0) * 65.0 / 2.0 * scale) ** 2
        assert hex_layout(area, 65.0).n_cells == cells
        if cells:
            assert default_network(65.0, area_m2=area).area_m2 == area
        else:
            with pytest.raises(ValueError, match="holds no cell"):
                default_network(65.0, area_m2=area)

    @pytest.mark.parametrize(
        "overrides",
        [{"area_m2": math.inf}, {"ple_los": 0.0}, {"ple_nlos": -3.2}, {"seed": -1}],
    )
    def test_area_exponent_and_seed_guards(self, overrides):
        with pytest.raises(ValueError):
            default_network(65.0, **overrides)


class TestHexLayout:
    def test_frozen_cell_counts(self):
        for radius, count in _CELL_COUNTS.items():
            assert hex_layout(1e6, float(radius)).n_cells == count

    def test_nearest_neighbor_spacing(self):
        layout = hex_layout(1e6, 65.0)
        pos = np.asarray(layout.bs_positions)
        delta = pos[:, None, :] - pos[None, :, :]
        dist = np.hypot(delta[..., 0], delta[..., 1])
        np.fill_diagonal(dist, np.inf)
        assert dist.min() == pytest.approx(math.sqrt(3.0) * 65.0, rel=1e-9)

    def test_positions_inside_area(self):
        layout = hex_layout(1e6, 35.0)
        pos = np.asarray(layout.bs_positions)
        assert np.all((pos >= 0.0) & (pos <= layout.area_side_m))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            hex_layout(0.0, 65.0)
        with pytest.raises(ValueError):
            hex_layout(1e6, 0.0)


def point_in_hex(dx, dy, cell_radius_m):
    """Oracle: whether offsets from a cell centre fall inside its flat-top
    hexagon (the UE drops must land there)."""
    r = cell_radius_m
    ax, ay = np.abs(dx), np.abs(dy)
    s3 = math.sqrt(3.0)
    return (ax <= r) & (ay <= s3 * r / 2.0) & (s3 * ax + ay <= s3 * r + 1e-12 * r)


class TestPointInHex:
    def test_center_vertex_and_edge(self):
        r = 10.0
        assert point_in_hex(0.0, 0.0, r)
        assert point_in_hex(r, 0.0, r)  # vertex
        assert point_in_hex(0.0, math.sqrt(3.0) * r / 2.0, r)  # edge midpoint
        assert not point_in_hex(1.01 * r, 0.0, r)
        assert not point_in_hex(0.0, 0.87 * r, r)

    def test_vectorized(self):
        r = 5.0
        dx = np.array([0.0, r, 2.0 * r])
        dy = np.zeros(3)
        inside = point_in_hex(dx, dy, r)
        assert inside.tolist() == [True, True, False]


class TestDropUes:
    def test_shape_and_determinism(self):
        layout = hex_layout(1e5, 35.0)
        a = drop_ues(layout, 7, seed=11)
        b = drop_ues(layout, 7, seed=11)
        c = drop_ues(layout, 7, seed=12)
        assert a.shape == (layout.n_cells, 7, 2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_all_points_inside_their_hexagon(self):
        layout = hex_layout(1e6, 50.0)
        positions = drop_ues(layout, 15, seed=2)
        offsets = positions - np.asarray(layout.bs_positions)[:, None, :]
        assert np.all(point_in_hex(offsets[..., 0], offsets[..., 1], 50.0))

    def test_mean_center_distance(self):
        layout = hex_layout(1e6, 20.0)
        positions = drop_ues(layout, 15, seed=3)
        offsets = positions - np.asarray(layout.bs_positions)[:, None, :]
        mean = float(np.hypot(offsets[..., 0], offsets[..., 1]).mean()) / 20.0
        assert mean == pytest.approx(_MEAN_CENTER_DISTANCE_R20_SEED3, rel=1e-12)
        assert mean == pytest.approx(_MEAN_CENTER_DISTANCE, rel=1e-2)

    @pytest.mark.parametrize("seed", [0, 11, 2**64 + 5])
    def test_matches_per_cell_reference_streams(self, seed):
        layout = hex_layout(1e5, 35.0)
        expected = [
            np.asarray(centre) + _hex_offsets(_cell_rng(seed, idx, 0).random((7, 3)), 35.0)
            for idx, centre in enumerate(layout.bs_positions)
        ]
        assert np.array_equal(drop_ues(layout, 7, seed), np.array(expected))

    def test_rejects_zero_ues(self):
        with pytest.raises(ValueError):
            drop_ues(hex_layout(1e5, 35.0), 0, seed=1)


class TestLosProbability:
    def test_one_inside_close_range(self):
        d = np.linspace(0.0, 22.0, 50)
        assert np.all(p_los(d) == 1.0)

    def test_monotone_non_increasing(self):
        values = p_los(np.linspace(0.0, 500.0, 1000))
        assert np.all(np.diff(values) <= 0.0)

    def test_matches_closed_form(self):
        for d in (25.0, 50.0, 113.4, 200.0, 499.0):
            decay = math.exp(-d / 113.4)
            expected = ((22.0 / d) * (1.0 - decay) + decay) ** 2
            assert p_los(d) == pytest.approx(expected, rel=1e-12)

    def test_scalar_in_scalar_out(self):
        assert isinstance(p_los(30.0), float)
        assert isinstance(p_los(np.array([30.0, 40.0])), np.ndarray)

    def test_custom_breakpoints(self):
        assert p_los(40.0, d1_m=50.0) == 1.0
        assert p_los(40.0, d1_m=10.0) < 1.0

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            p_los(-1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.lists(st.floats(min_value=0.0, max_value=1e300), max_size=64),
        d1=st.floats(min_value=1e-3, max_value=1e3),
        d2_per_d1=st.floats(min_value=0.0, max_value=1e3),
    )
    @example(d=[], d1=22.0, d2_per_d1=113.4 / 22.0)
    @example(d=[], d1=22.0, d2_per_d1=0.0)
    def test_matches_the_where_form_exactly(self, d, d1, d2_per_d1):
        # The oracle calls p_los too, so only this pins p_los's floats: those
        # of np.where(d <= d1, 1, ...) over the closed form.  d2 is floored at
        # d1 / 1000 as _radio_constants floors it.
        d2 = max(d1 * d2_per_d1, d1 / 1000.0)
        grid = np.random.default_rng(3).uniform(0.0, 20.0 * d1, (6, 5, 7))
        for distances in (np.array([0.0, d1, np.nextafter(d1, np.inf), 1e300, *d]), grid):
            before = distances.copy()
            safe = np.maximum(distances, d1)
            decay = np.exp(-safe / d2)
            expected = np.where(
                distances <= d1, 1.0, ((d1 / safe) * (1.0 - decay) + decay) ** 2
            )
            result = p_los(distances, d1, d2)
            assert np.array_equal(result, expected)
            assert np.array_equal(distances, before)
            assert not np.shares_memory(result, distances)
            for i, distance in enumerate(distances.flat[:8].tolist()):
                scalar = p_los(distance, d1, d2)
                assert isinstance(scalar, float) and scalar == result.flat[i]


class TestPowerControl:
    def test_identity_against_link_budget(self):
        band = subthz_140().band
        for radius in (20.0, 100.0, 365.0):
            eirp = power_control(radius, band, 20.0, 59.1, ple=2.0)
            expected = (
                20.0
                + thermal_noise_dbm(band.bandwidth_hz, band.noise_figure_db)
                + ci_path_loss_db(band.carrier_frequency_hz, radius, 2.0)
                - 59.1
            )
            assert eirp == pytest.approx(expected, rel=1e-12)

    def test_frozen_100m_value(self):
        eirp = power_control(100.0, subthz_140().band, 20.0, 59.1)
        assert eirp == pytest.approx(_EIRP_100M_DBM, abs=5e-3)

    def test_halving_radius_saves_six_db(self):
        band = subthz_140().band
        delta = power_control(65.0, band, 20.0, 59.1) - power_control(32.5, band, 20.0, 59.1)
        assert delta == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    @given(st.floats(min_value=1.0, max_value=500.0))
    def test_edge_snr_meets_target(self, radius):
        # closing the loop: the controlled EIRP puts a cell-edge UE exactly
        # at the SNR target under LoS propagation
        scenario = default_network(65.0)
        band, gain = scenario.band, scenario.ue.antenna_gain_db(scenario.band.carrier_frequency_hz)
        eirp = power_control(radius, band, scenario.target_snr_db, gain, scenario.ple_los)
        path_loss = ci_path_loss_db(band.carrier_frequency_hz, radius, scenario.ple_los)
        noise = thermal_noise_dbm(band.bandwidth_hz, band.noise_figure_db)
        snr = eirp - path_loss + gain - noise
        assert snr == pytest.approx(scenario.target_snr_db, abs=1e-9)

    def test_rejects_sub_meter_radius(self):
        with pytest.raises(ValueError):
            power_control(0.5, subthz_140().band, 20.0, 59.1)


class TestSimulateNetwork:
    def test_deterministic_and_seed_sensitive(self):
        a = simulate_network(default_network(65.0, drops=2))
        b = simulate_network(default_network(65.0, drops=2))
        c = simulate_network(default_network(65.0, drops=2, seed=7))
        assert a == b
        assert a.cef_bpj != c.cef_bpj

    def test_cef_is_rate_over_power(self):
        report = simulate_network(default_network(65.0, drops=2))
        assert report.cef_bpj == report.throughput_bps / report.power_w

    def test_interference_lowers_efficiency(self):
        on = simulate_network(default_network(65.0, drops=3))
        off = simulate_network(default_network(65.0, drops=3, interference=False))
        assert on.cef_bpj < off.cef_bpj
        assert on.mean_sinr_db < off.mean_sinr_db

    def test_wraparound_adds_interference(self):
        plain = simulate_network(default_network(65.0, drops=3))
        wrapped = simulate_network(default_network(65.0, drops=3, wraparound=True))
        assert wrapped.cef_bpj < plain.cef_bpj
        assert wrapped.mean_sinr_db < plain.mean_sinr_db

    @settings(max_examples=40, deadline=None)
    @given(
        radius=st.floats(min_value=20.0, max_value=500.0),
        # squares from just above sqrt(3) r / 2 to 2.2 r a side hold one cell
        side=st.floats(min_value=0.87, max_value=2.2),
        ues=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**200),
        ple=st.floats(min_value=1.5, max_value=4.0),
    )
    @example(radius=65.0, side=100.0 / 65.0, ues=15, seed=1, ple=2.0)
    def test_single_cell_run_matches_hand_computation(self, radius, side, ues, seed, ple):
        # Shrink to one all-LoS cell with no interference so every quantity
        # can be rebuilt from the public pieces at the drop_ues positions:
        # controlled EIRP, CI path loss, per-sector TDMA shares, and the
        # terminal power of the sectors and the UEs.
        scenario = default_network(
            radius, area_m2=(side * radius) ** 2, drops=1, los_d1_m=1e9,
            interference=False, ues_per_cell=ues, seed=seed, ple_los=ple,
        )
        layout = hex_layout(scenario.area_m2, scenario.cell_radius_m)
        assert layout.n_cells == 1
        report = simulate_network(scenario)
        assert report.los_fraction == 1.0

        band, bs, ue = scenario.band, scenario.bs, scenario.ue
        gain_ue = ue.antenna_gain_db(band.carrier_frequency_hz)
        gain_bs = bs.antenna_gain_db(band.carrier_frequency_hz)
        eirp = power_control(radius, band, scenario.target_snr_db, gain_ue, ple)
        noise_w = dbm_to_watts(thermal_noise_dbm(band.bandwidth_hz, band.noise_figure_db))

        offsets = drop_ues(layout, ues, seed)[0] - np.asarray(layout.bs_positions[0])
        distance = np.hypot(offsets[:, 0], offsets[:, 1])
        path_loss = free_space_path_loss_db(band.carrier_frequency_hz) + (
            10.0 * ple * np.log10(np.maximum(distance, 1.0))
        )
        arrival_dbm = eirp - path_loss
        sinr = dbm_to_watts(arrival_dbm + gain_ue) / noise_w

        angles = np.arctan2(offsets[:, 1], offsets[:, 0])
        sector = np.floor((angles + math.pi) / (math.pi / 3.0)).astype(int)
        sector %= scenario.arrays_per_bs
        occupancy = np.bincount(sector, minlength=scenario.arrays_per_bs)
        rate = float(np.sum(
            band.bandwidth_hz / occupancy[sector] * np.log2(1.0 + sinr)
        ))

        sector_power = terminal_power(
            bs, *tx_power_coefficients(band, bs), dbm_to_watts(eirp - gain_bs)
        )
        ue_power = terminal_power(
            ue, *rx_power_coefficients(band, ue), dbm_to_watts(arrival_dbm)
        )
        power = int(np.count_nonzero(occupancy)) * sector_power + float(np.sum(ue_power))

        assert report.throughput_bps == pytest.approx(rate, rel=1e-9)
        assert report.power_w == pytest.approx(power, rel=1e-9)

    def test_frozen_optimum_radius_row(self):
        report = simulate_network(default_network(65.0))
        cells, cef, rate, power, sinr, los, ci = _R65_ROW
        assert report.n_cells == cells
        assert report.cef_bpj == pytest.approx(cef, rel=1e-9)
        assert report.throughput_bps == pytest.approx(rate, rel=1e-9)
        assert report.power_w == pytest.approx(power, rel=1e-9)
        assert report.mean_sinr_db == pytest.approx(sinr, rel=1e-9)
        assert report.los_fraction == pytest.approx(los, rel=1e-9)
        assert report.ci_halfwidth_bpj == pytest.approx(ci, rel=1e-9)

    def test_frozen_single_cell_row(self):
        report = simulate_network(default_network(500.0))
        cells, cef, rate, power, sinr, los, ci = _R500_ROW
        assert report.n_cells == cells
        assert report.cef_bpj == pytest.approx(cef, rel=1e-9)
        assert report.throughput_bps == pytest.approx(rate, rel=1e-9)
        assert report.power_w == pytest.approx(power, rel=1e-9)
        assert report.mean_sinr_db == pytest.approx(sinr, rel=1e-9)
        assert report.los_fraction == pytest.approx(los, rel=1e-9)
        assert report.ci_halfwidth_bpj == pytest.approx(ci, rel=1e-9)

    def test_sector_slots_do_not_grow_with_the_array_count(self):
        # a UE's sector index is at most 6, so beyond 7 arrays the count
        # changes nothing in a cell without interferers, and sizes nothing
        seven = simulate_network(default_network(500.0, arrays_per_bs=7))
        assert simulate_network(default_network(500.0, arrays_per_bs=10**12)) == seven

    def test_nlos_exponent_unused_when_every_link_is_los(self):
        # with the LoS range beyond every distance no NLoS link is drawn, so
        # the NLoS exponent, however large, changes nothing
        scenario = default_network(65.0, area_m2=0.1e6, drops=1, los_d1_m=1e9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert simulate_network(replace(scenario, ple_nlos=1e308)) == simulate_network(
                scenario
            )

    def test_single_drop_has_zero_halfwidth(self):
        report = simulate_network(default_network(65.0, drops=1))
        assert report.ci_halfwidth_bpj == 0.0


def _all_pairs(positions, reach, side, wraparound):
    delta = positions[:, None, :] - positions[None, :, :]
    if wraparound:
        delta -= side * np.round(delta / side)
    dist = np.hypot(delta[..., 0], delta[..., 1])
    np.fill_diagonal(dist, np.inf)
    return [np.nonzero(row <= reach)[0] for row in dist]


def _assert_same_neighbors(area, radius, reach, wraparound):
    layout = hex_layout(area, radius)
    positions = np.asarray(layout.bs_positions)
    side = layout.area_side_m
    lists = _neighbor_lists(positions, reach, side, wraparound)
    expected = _all_pairs(positions, reach, side, wraparound)
    assert len(lists) == len(expected) == layout.n_cells
    for found, want in zip(lists, expected):
        assert found.dtype == np.intp
        assert np.array_equal(found, want)


# Multiples of sqrt(3) r are lattice distances, so pairs sit on the reach.
_REACH_MULTIPLIERS = st.one_of(
    st.floats(min_value=0.5, max_value=40.0),
    st.integers(min_value=1, max_value=12).map(lambda m: math.sqrt(3.0) * m),
)


class TestNeighborLists:
    """The bucket-grid search against every pair at once, compared exactly."""

    @pytest.mark.parametrize("radius, area", [(20.0, 1e6), (35.0, 1e6), (65.0, 2e5), (500.0, 1e6)])
    @pytest.mark.parametrize("wraparound", [False, True])
    def test_matches_all_pairs_search(self, radius, area, wraparound):
        _assert_same_neighbors(area, radius, 8.0 * radius, wraparound)

    @settings(max_examples=60, deadline=None)
    @given(
        radius=st.floats(min_value=20.0, max_value=500.0),
        area=st.floats(min_value=0.0, max_value=0.5e6),
        multiplier=_REACH_MULTIPLIERS,
        wraparound=st.booleans(),
    )
    @example(radius=20.0, area=0.5e6, multiplier=math.sqrt(3.0) * 4, wraparound=True)
    @example(radius=20.0, area=0.5e6, multiplier=math.sqrt(3.0), wraparound=False)
    @example(radius=20.0, area=0.5e6, multiplier=15.0, wraparound=True)  # two buckets
    @example(radius=20.0, area=0.5e6, multiplier=40.0, wraparound=True)  # one bucket
    @example(radius=50.0, area=0.5e6, multiplier=0.5, wraparound=True)  # no neighbours
    def test_matches_all_pairs_property(self, radius, area, multiplier, wraparound):
        # up to 0.5 km^2 above the smallest area that holds a cell
        smallest = (math.sqrt(3.0) * radius / 2.0) ** 2 * (1.0 + 1e-6)
        _assert_same_neighbors(smallest + area, radius, multiplier * radius, wraparound)

    def test_bucket_block_does_not_grow_with_cells(self):
        # Size arithmetic on the grid only; the search never runs at 100 km^2.
        radius, reach = 20.0, 8.0 * 20.0
        # nb >= 3 buckets of side / nb <= (4/3) reach (1 + 1e-6), with columns
        # 1.5 r and rows sqrt(3) r apart, bound any bucket and neighbourhood.
        width = 4.0 / 3.0 * reach * (1.0 + 1e-6)
        rows = (width / (1.5 * radius) + 1) * (width / (math.sqrt(3.0) * radius) + 1)
        cols = (3 * width / (1.5 * radius) + 1) * (3 * width / (math.sqrt(3.0) * radius) + 1)
        for area in (1e6, 100e6):
            layout = hex_layout(area, radius)
            positions = np.asarray(layout.bs_positions)
            nb, keys = netsim._bucket_grid(positions, reach, layout.area_side_m)
            counts = np.bincount(keys, minlength=nb * nb).reshape(nb, nb)
            around = sum(
                np.roll(counts, (dx, dy), axis=(0, 1)) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            )
            assert counts.max() <= rows and around.max() <= cols
        assert layout.n_cells > 90_000  # about 8.8e9 pairs for an all-pairs search
        assert rows * cols < 30_000


class TestInterferencePower:
    """The per-pair interference in watts against the dB form it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=5000.0), st.booleans(), st.booleans()),
            min_size=1,
            max_size=16,
        ),
        ple_los=st.floats(min_value=0.0, max_value=10.0, exclude_min=True),
        ple_nlos=st.floats(min_value=0.0, max_value=10.0, exclude_min=True),
        sidelobe=st.floats(min_value=-50.0, max_value=50.0),
    )
    @example(
        pairs=[(0.0, True, True), (0.5, False, False), (1.0, True, False), (5000.0, False, True)],
        ple_los=10.0, ple_nlos=10.0, sidelobe=50.0,
    )
    def test_matches_db_form(self, pairs, ple_los, ple_nlos, sidelobe):
        s = default_network(100.0, ple_los=ple_los, ple_nlos=ple_nlos, sidelobe_db=sidelobe)
        rc = _radio_constants(s, 1, 1)
        d, los, main = (np.array(column) for column in zip(*pairs))
        i_dbm = (
            rc.eirp_dbm - _path_loss_db(s, rc, d, los) + rc.gain_ue_db
            - np.where(main, 0.0, sidelobe)
        )
        np.testing.assert_allclose(
            _interference_w(s, rc, d, los, main), dbm_to_watts(i_dbm), rtol=1e-12, atol=0.0
        )

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=_chunk_pairs(),
        ple_los=st.floats(min_value=0.0, max_value=10.0, exclude_min=True),
        ple_nlos=st.floats(min_value=0.0, max_value=10.0, exclude_min=True),
        sidelobe=st.floats(min_value=-50.0, max_value=50.0),
    )
    # one pair at exponent 1, where a power written over its input differs
    @example(
        pairs=(np.array([[[49.5]]]), np.array([[[False]]]), np.array([[[False]]])),
        ple_los=1.0, ple_nlos=1.0, sidelobe=0.0,
    )
    def test_matches_the_where_form_exactly(self, pairs, ple_los, ple_nlos, sidelobe):
        # a select gives the floats of np.where
        s = default_network(100.0, ple_los=ple_los, ple_nlos=ple_nlos, sidelobe_db=sidelobe)
        rc = _radio_constants(s, 1, 1)
        d, los, main = pairs
        inputs = [a.copy() for a in (d, los, main)]
        expected = np.where(main, rc.i_main_w, rc.i_side_w) * np.maximum(d, 1.0) ** np.where(
            los, -ple_los, -ple_nlos
        )
        assert np.array_equal(_interference_w(s, rc, d, los, main), expected)
        for array, before in zip((d, los, main), inputs):
            assert np.array_equal(array, before)

    @settings(max_examples=100, deadline=None)
    @given(pairs=_chunk_pairs(), spare=st.integers(0, 64), ple=st.floats(0.5, 10.0))
    @example(
        pairs=(np.array([[[49.5]]]), np.array([[[False]]]), np.array([[[False]]])),
        spare=7, ple=1.0,
    )
    def test_larger_workspace_of_nan_gives_the_where_form(self, pairs, spare, ple):
        # the drop's workspace is sized from its largest chunk and holds the
        # last chunk's values: only the prefix of each buffer may be read
        s = default_network(100.0, ple_los=ple, ple_nlos=ple + 1.0, sidelobe_db=20.0)
        rc = _radio_constants(s, 1, 1)
        d, los, main = pairs
        inputs = [a.copy() for a in (d, los, main)]
        workspace = _Workspace.sized(d.size + spare, 3)
        workspace.draws.fill(np.nan)
        workspace.floats.fill(np.nan)
        workspace.bools.fill(True)
        expected = np.where(main, rc.i_main_w, rc.i_side_w) * np.maximum(d, 1.0) ** np.where(
            los, -s.ple_los, -s.ple_nlos
        )
        assert np.array_equal(_interference_w(s, rc, d, los, main, workspace), expected)
        for array, before in zip((d, los, main), inputs):
            assert np.array_equal(array, before)


class TestScalarOracle:
    """The whole-array drop against the cell-by-cell loop, compared exactly."""

    @settings(max_examples=40, deadline=None)
    @given(_small_networks())
    @example(default_network(500.0, drops=3))  # one cell, no neighbours
    @example(default_network(500.0, drops=2, wraparound=True))
    @example(default_network(65.0, area_m2=0.25e6, drops=2, interference=False))
    @example(default_network(50.0, area_m2=0.25e6, drops=2, ues_per_cell=7))
    def test_matches_oracle(self, scenario):
        assert simulate_network(scenario) == _oracle(scenario)

    @pytest.mark.parametrize("wraparound", [False, True])
    def test_matches_oracle_at_smallest_radius(self, wraparound):
        # 941 cells: dozens of neighbour counts, groups cut into several chunks
        scenario = default_network(20.0, drops=1, wraparound=wraparound)
        assert simulate_network(scenario) == _oracle(scenario)

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        # At 1000 UEs per cell one cell's pairs exceed _CHUNK_PAIRS, so the
        # workspace is sized from that one-cell chunk, not from the budget.
        past_budget = default_network(20.0, area_m2=0.1e6, drops=2, ues_per_cell=1000)
        layout = hex_layout(past_budget.area_m2, past_budget.cell_radius_m)
        neighbors = _neighbor_lists(
            np.asarray(layout.bs_positions), past_budget.interferer_reach * 20.0,
            layout.area_side_m, False,
        )
        assert max(map(len, neighbors)) * 1000 > netsim._CHUNK_PAIRS
        assert simulate_network(past_budget) == _oracle(past_budget)
        for scenario in (default_network(35.0, drops=2, wraparound=True), past_budget):
            monkeypatch.undo()
            default = simulate_network(scenario)
            for budget in (1, 1 << 30):  # one cell per chunk; one chunk per neighbour count
                monkeypatch.setattr(netsim, "_CHUNK_PAIRS", budget)
                assert simulate_network(scenario) == default

    @pytest.mark.parametrize("wraparound", [False, True])
    def test_chunks_cover_cells_once_within_budget(self, wraparound):
        scenario = default_network(20.0, wraparound=wraparound)
        layout = hex_layout(scenario.area_m2, scenario.cell_radius_m)
        positions = np.asarray(layout.bs_positions)
        neighbors = _neighbor_lists(
            positions, scenario.interferer_reach * 20.0, layout.area_side_m, wraparound
        )
        chunks = _chunks(positions, neighbors, scenario.ues_per_cell)
        cells = np.concatenate([chunk.cells for chunk in chunks])
        assert np.array_equal(np.sort(cells), np.arange(layout.n_cells))
        ks = [chunk.interferers.shape[2] for chunk in chunks]
        assert len(ks) > len(set(ks))  # some group was cut
        for chunk, k in zip(chunks, ks):
            assert len(chunk.cells) * scenario.ues_per_cell * k <= netsim._CHUNK_PAIRS
            assert np.array_equal(chunk.centres, positions[chunk.cells].T)
            for i, c in enumerate(chunk.cells):
                assert np.array_equal(chunk.interferers[:, i, :], positions[neighbors[c]].T)


def _numpy_state(seed, cell, drop):
    state = _cell_rng(seed, cell, drop).bit_generator.state["state"]
    return state["state"], state["inc"]


def _numpy_words(seed, cell, drop):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(cell, drop))
    return seq.generate_state(4, np.uint64).tolist()


class TestStreams:
    """The batched stream seeding against NumPy's SeedSequence, exactly."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**200),
        cells=st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=8),
        drop=st.one_of(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=2**32 - 2, max_value=2**32 + 2),
            st.integers(min_value=0, max_value=2**80),
        ),
    )
    @example(seed=0, cells=[0], drop=0)
    @example(seed=1, cells=[3], drop=1)  # a single cell
    @example(seed=2**200, cells=[2**32 - 1, 0], drop=2**70)
    @example(seed=2**128 - 1, cells=[7], drop=2**32 + 7)
    def test_states_match_numpy(self, seed, cells, drop):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            words = _stream_words(seed, np.array(cells), drop)
            states = [np.random.PCG64(_Words(row)).state["state"] for row in words]
            out = np.empty((len(cells), 5))
            _fill(words, out)
        assert words.tolist() == [_numpy_words(seed, cell, drop) for cell in cells]
        assert [(state["state"], state["inc"]) for state in states] == [
            _numpy_state(seed, cell, drop) for cell in cells
        ]
        expected = [_cell_rng(seed, cell, drop).random(5) for cell in cells]
        assert np.array_equal(out, np.array(expected))

    def test_fill_draws_the_reference_stream(self):
        out = np.empty((4, 33))
        _fill(_stream_words(5, np.arange(4), 9), out)
        expected = [_cell_rng(5, cell, 9).random(33) for cell in range(4)]
        assert np.array_equal(out, np.array(expected))

    @pytest.mark.parametrize("n_cells", [0, 1, 5])
    def test_words_are_native_contiguous_uint64(self, n_cells):
        # PCG64 reads the words' memory without checking its type or length
        words = _stream_words(2**200, np.arange(n_cells), 3)
        assert words.dtype == np.uint64 and words.dtype.isnative
        assert words.flags.c_contiguous
        assert words.shape == (n_cells, 4)

    def test_fill_order_does_not_matter(self):
        # nothing is shared between streams, so any order gives the same rows
        words = _stream_words(7, np.arange(6), 2)
        together = np.empty((6, 40))
        _fill(words, together)
        shuffled = np.empty((6, 40))
        for cell in (4, 1, 5, 0, 3, 2):
            _fill(words[cell : cell + 1], shuffled[cell : cell + 1])
        assert np.array_equal(shuffled, together)
        interleaved = np.empty((6, 40))
        _fill(words[1::2], interleaved[1::2])
        _fill(words[::2], interleaved[::2])
        assert np.array_equal(interleaved, together)

    def test_no_cells(self):
        assert _stream_words(1, np.arange(0), 0).shape == (0, 4)

    @pytest.mark.parametrize("cells", [[2**32], [0, 2**32 + 1], [-1]])
    def test_cell_index_out_of_range_raises(self, cells):
        with pytest.raises(ValueError, match="cell indices"):
            _stream_words(1, np.array(cells), 0)

    def test_negative_seed_or_drop_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            _stream_words(-1, np.arange(3), 0)
        with pytest.raises(ValueError, match="non-negative"):
            _stream_words(1, np.arange(3), -2)

    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**200])
    def test_drops_raise_no_numpy_warnings(self, seed):
        # the hash relies on uint32 arrays wrapping silently; a scalar
        # product would warn, and this turns the warning into a failure
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate_network(default_network(65.0, area_m2=0.1e6, drops=2, seed=seed))
            drop_ues(hex_layout(0.1e6, 65.0), 5, seed)


class TestRadiusSweep:
    def test_reports_follow_input_order(self):
        scenario = default_network(65.0, drops=2)
        reports = sweep_radius(scenario, radii=(80.0, 35.0))
        assert [r.radius_m for r in reports] == [80.0, 35.0]

    def test_each_radius_matches_its_own_run(self):
        # a radius's report does not depend on the rest of the sweep
        scenario = default_network(65.0, drops=2)
        reports = sweep_radius(scenario, radii=(35.0, 65.0))
        alone = tuple(
            simulate_network(replace(scenario, cell_radius_m=r)) for r in (35.0, 65.0)
        )
        assert reports == alone

    def test_optimal_radius(self):
        scenario = default_network(65.0, drops=2)
        reports = sweep_radius(scenario, radii=(35.0, 65.0, 250.0))
        best = optimal_radius(reports)
        assert best.cef_bpj == max(r.cef_bpj for r in reports)
        with pytest.raises(ValueError):
            optimal_radius([])

    def test_csv_rows(self):
        scenario = default_network(65.0, drops=2)
        rows = list(network_csv_rows(sweep_radius(scenario, radii=(35.0, 65.0))))
        assert rows[0] == NETSIM_CSV_HEADER
        assert rows[0] == (
            "radius_m,cells,cef_gbpj,throughput_gbps,power_w,"
            "mean_sinr_db,los_fraction,ci_halfwidth"
        )
        assert len(rows) == 3
        first = rows[1].split(",")
        assert first[0] == "35"
        assert first[1] == str(_CELL_COUNTS[35])
        for field in (first[2], first[3], first[4]):
            assert float(field) > 0.0


# netsim's output records, checked as test_transceiver.py checks the others:
# their fields in order, and the defaults of those that have one.
_RECORDS = {
    NetworkReport: (
        (
            "radius_m",
            "n_cells",
            "throughput_bps",
            "power_w",
            "cef_bpj",
            "mean_sinr_db",
            "los_fraction",
            "ci_halfwidth_bpj",
            "drops",
        ),
        {},
    ),
    CellLayout: (("cell_radius_m", "area_side_m", "bs_positions"), {}),
}


@pytest.mark.parametrize("record", _RECORDS, ids=lambda record: record.__name__)
class TestOutputRecords(RecordChecks):
    records = _RECORDS
