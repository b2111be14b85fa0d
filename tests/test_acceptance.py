"""Acceptance gate: the ten headline claims, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
Each test prints `[PASS|FAIL] criterion NN: <measured detail>` before
asserting, so a red run still shows every measured number.
"""
import io
import math
import time
from dataclasses import replace

import numpy as np

from wastefactor.cascade import (
    Cascade,
    Component,
    bookkeeping_oracle,
    cascade_waste_factor,
    make_passive,
)
from wastefactor.cli import EXIT_OK, main
from wastefactor.linkbudget import free_space_path_loss_db
from wastefactor.netsim import default_network, p_los, power_control, sweep_radius
from wastefactor.sweeps import (
    SweepSpec,
    find_crossover,
    find_curve_crossing,
    min_matching_efficiency,
    reference_cef,
    snr_matched_sample,
    sweep,
)
from wastefactor.transceiver import evaluate_link, mmwave_28, subthz_140

_BANDS = ("mmwave-28", "subthz-140")
_PRESETS = {"mmwave-28": mmwave_28, "subthz-140": subthz_140}

# Published reference columns: (band, environment) -> (P_r dBW, rate Gb/s).
_TABLE_COLUMNS = {
    ("mmwave-28", "los"): (-71.1, 4.89),
    ("mmwave-28", "nlos"): (-95.1, 1.73),
    ("subthz-140", "los"): (-57.1, 54.16),
    ("subthz-140", "nlos"): (-81.1, 22.39),
}


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


def _eight_cells():
    for band in _BANDS:
        for direction in ("uplink", "downlink"):
            for environment in ("los", "nlos"):
                scenario = replace(
                    _PRESETS[band](), direction=direction, environment=environment
                )
                yield band, direction, environment, evaluate_link(scenario)


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(20260816)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        components = []
        for i in range(n):
            gain = float(rng.uniform(0.01, 100.0))
            waste = float(rng.uniform(max(1.0, 1.0 / gain), 100.0))
            components.append(Component(label=f"c{i}", gain=gain, waste_factor=waste))
        cascade = Cascade(components=tuple(components), source_power=1.0)
        ledger = bookkeeping_oracle(cascade)
        oracle_w = ledger.total_signal_path / ledger.per_stage_output[-1]
        worst = max(worst, abs(cascade_waste_factor(cascade) - oracle_w) / oracle_w)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    _report(1, ok, f"1000 random cascades, worst rel err {worst:.3e}, {elapsed:.3f} s")


def test_criterion_02_passive_identity():
    rng = np.random.default_rng(7)
    dyadic_ok = True
    for _ in range(200):
        losses = [float(2.0 ** rng.integers(0, 7)) for _ in range(int(rng.integers(1, 9)))]
        chain = Cascade(
            components=tuple(make_passive(f"p{i}", l) for i, l in enumerate(losses)),
            source_power=1.0,
        )
        dyadic_ok &= cascade_waste_factor(chain) == math.prod(losses)
    general_worst = 0.0
    for _ in range(200):
        losses = [float(rng.uniform(1.0, 30.0)) for _ in range(int(rng.integers(1, 9)))]
        chain = Cascade(
            components=tuple(make_passive(f"p{i}", l) for i, l in enumerate(losses)),
            source_power=1.0,
        )
        total = math.prod(losses)
        general_worst = max(
            general_worst, abs(cascade_waste_factor(chain) - total) / total
        )
    ok = dyadic_ok and general_worst < 1e-12
    _report(
        2,
        ok,
        f"all-passive W == total loss (dyadic bit-exact: {dyadic_ok},"
        f" general worst rel {general_worst:.2e})",
    )


def test_criterion_03_link_budget_columns():
    fspl_28 = free_space_path_loss_db(28e9)
    fspl_140 = free_space_path_loss_db(140e9)
    ok = abs(fspl_28 - 61.4) <= 0.05 and abs(fspl_140 - 75.4) <= 0.05
    received_worst = 0.0
    rate_worst = 0.0
    identity_ok = True
    for band, _, environment, report in _eight_cells():
        expected_pr, expected_rate = _TABLE_COLUMNS[(band, environment)]
        received_worst = max(received_worst, abs(report.p_received_dbw - expected_pr))
        rate_worst = max(
            rate_worst, abs(report.rate_bps / 1e9 - expected_rate) / expected_rate
        )
        identity_ok &= report.cef_bpj == report.rate_bps / report.p_consumed_w
    ok = ok and received_worst <= 0.2 and rate_worst <= 0.02 and identity_ok
    _report(
        3,
        ok,
        f"FSPL(1 m) {fspl_28:.2f}/{fspl_140:.2f} dB, worst |dP_r| {received_worst:.3f} dB,"
        f" worst rate err {rate_worst * 100:.2f}%, CEF identity {identity_ok}",
    )


def test_criterion_04_waste_figure_and_orderings():
    reports = {
        (band, d, e): r for band, d, e, r in _eight_cells()
    }
    ul_los = reports[("mmwave-28", "uplink", "los")].waste_figure_db
    ul_nlos = reports[("mmwave-28", "uplink", "nlos")].waste_figure_db
    absolute_ok = abs(ul_los - 52.2) <= 0.5 and abs(ul_nlos - 76.2) <= 0.5
    gap_ok = True
    for band in _BANDS:
        for direction in ("uplink", "downlink"):
            gap = (
                reports[(band, direction, "nlos")].waste_figure_db
                - reports[(band, direction, "los")].waste_figure_db
            )
            gap_ok &= abs(gap - 24.0) <= 0.1
    ordering_ok = True
    for band in _BANDS:
        for environment in ("los", "nlos"):
            ordering_ok &= (
                reports[(band, "uplink", environment)].p_consumed_w
                > reports[(band, "downlink", environment)].p_consumed_w
            )
    for direction in ("uplink", "downlink"):
        for environment in ("los", "nlos"):
            ordering_ok &= (
                reports[("subthz-140", direction, environment)].p_consumed_w
                > reports[("mmwave-28", direction, environment)].p_consumed_w
            )
            ordering_ok &= (
                reports[("subthz-140", direction, environment)].cef_bpj
                > reports[("mmwave-28", direction, environment)].cef_bpj
            )
    ok = absolute_ok and gap_ok and ordering_ok
    _report(
        4,
        ok,
        f"28 GHz UL waste figure {ul_los:.2f}/{ul_nlos:.2f} dB, 24 dB gap {gap_ok},"
        f" power/CEF orderings {ordering_ok}",
    )


def _bandwidth_curve(direction: str, snr_db: float):
    scenario = replace(subthz_140(), direction=direction)
    return sweep(
        SweepSpec(
            scenario=scenario, parameter="bandwidth", lo=0.1e9, hi=10e9,
            points=64, snr_target_db=snr_db,
        )
    )


def test_criterion_05_bandwidth_crossovers():
    start = time.perf_counter()
    dl_curve = _bandwidth_curve("downlink", 20.0)
    sweep_elapsed = time.perf_counter() - start

    dl_ref = snr_matched_sample(replace(mmwave_28(), direction="downlink"), 20.0)
    dl = find_crossover(dl_curve, dl_ref.cef_bpj)
    ul_ref = snr_matched_sample(replace(mmwave_28(), direction="uplink"), 20.0)
    ul = find_crossover(_bandwidth_curve("uplink", 20.0), ul_ref.cef_bpj)
    snr_cross = find_curve_crossing(dl_curve, _bandwidth_curve("downlink", 30.0))

    dl_ok = dl.found and 0.5e9 <= dl.x <= 2.0e9
    ul_ok = ul.found and 2.0e9 <= ul.x <= 5.0e9
    snr_ok = snr_cross.found and 0.5e9 <= snr_cross.x <= 2.0e9
    ok = dl_ok and ul_ok and snr_ok and sweep_elapsed < 5.0
    _report(
        5,
        ok,
        f"DL crossover {dl.x / 1e9:.3f} GHz, UL {ul.x / 1e9:.3f} GHz,"
        f" SNR 20-vs-30 crossing {snr_cross.x / 1e9:.3f} GHz,"
        f" 64-point sweep {sweep_elapsed:.2f} s",
    )


def test_criterion_06_pa_efficiency_matching():
    target = reference_cef(replace(mmwave_28(), direction="downlink"), pa_efficiency=0.2)
    match = min_matching_efficiency(target, replace(subthz_140(), direction="downlink"))
    eta = match.efficiency
    delta = 1e-4

    def slope(direction: str) -> float:
        scenario = replace(subthz_140(), direction=direction)
        return (
            reference_cef(scenario, eta + delta) - reference_cef(scenario, eta - delta)
        ) / (2.0 * delta)

    uplink_slope, downlink_slope = slope("uplink"), slope("downlink")
    ok = match.found and 0.04 <= eta <= 0.10 and uplink_slope < downlink_slope
    _report(
        6,
        ok,
        f"matched efficiency {eta:.4f}, CEF slope UL {uplink_slope:.3e}"
        f" < DL {downlink_slope:.3e}",
    )


def test_criterion_07_power_control_step():
    band = subthz_140().band
    deltas = [
        power_control(r, band, 20.0, 29.1) - power_control(r / 2.0, band, 20.0, 29.1)
        for r in (40.0, 65.0, 130.0, 500.0)
    ]
    worst = max(abs(d - 6.02) for d in deltas)
    ok = worst <= 0.01
    _report(7, ok, f"halving the radius moves EIRP by {deltas[1]:.4f} dB (worst dev {worst:.4f})")


def test_criterion_08_radius_sweep_optimum():
    scenario = default_network(65.0)
    start = time.perf_counter()
    reports = sweep_radius(scenario)
    elapsed = time.perf_counter() - start

    cefs = [r.cef_bpj for r in reports]
    radii = [r.radius_m for r in reports]
    best = max(range(len(reports)), key=lambda i: cefs[i])
    interior_ok = 40.0 <= radii[best] <= 120.0 and 0 < best < len(reports) - 1
    tail = cefs[best:]
    decreasing_ok = all(a > b for a, b in zip(tail, tail[1:]))

    quiet = sweep_radius(replace(scenario, interference=False))
    quiet_cefs = [r.cef_bpj for r in quiet]
    monotone_ok = all(a > b for a, b in zip(quiet_cefs, quiet_cefs[1:]))

    ok = interior_ok and decreasing_ok and monotone_ok and elapsed < 60.0
    _report(
        8,
        ok,
        f"CEF peaks at {radii[best]:.0f} m, decreasing to 500 m {decreasing_ok},"
        f" ICI-off monotone {monotone_ok}, sweep {elapsed:.1f} s",
    )


def test_criterion_09_cli_determinism(tmp_path):
    base = ["netsim", "--radius", "65", "--seed", "1"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    codes = [
        main(base + ["--out", str(paths[0])], stdout=io.StringIO()),
        main(base + ["--out", str(paths[1])], stdout=io.StringIO()),
        main(base + ["--out", str(paths[2])], stdout=io.StringIO()),
    ]
    contents = [p.read_bytes() for p in paths]
    ok = (
        all(code == EXIT_OK for code in codes)
        and contents[0] == contents[1]
        and contents[0] == contents[2]
    )
    _report(
        9,
        ok,
        f"seeded netsim CSV identical across three reruns"
        f" ({len(contents[0])} bytes)",
    )


def test_criterion_10_los_probability_properties():
    close = np.linspace(0.0, 22.0, 200)
    ones_ok = bool(np.all(p_los(close) == 1.0))
    grid = np.linspace(0.0, 500.0, 1000)
    values = p_los(grid)
    monotone_ok = bool(np.all(np.diff(values) <= 0.0))
    worst = 0.0
    for d, got in zip(grid.tolist(), values.tolist()):
        if d <= 22.0:
            expected = 1.0
        else:
            decay = math.exp(-d / 113.4)
            expected = ((22.0 / d) * (1.0 - decay) + decay) ** 2
        worst = max(worst, abs(got - expected))
    ok = ones_ok and monotone_ok and worst <= 1e-12
    _report(
        10,
        ok,
        f"p_los == 1 up to 22 m {ones_ok}, monotone {monotone_ok},"
        f" closed-form dev {worst:.2e}",
    )
