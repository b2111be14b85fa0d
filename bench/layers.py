"""Per-layer measurements for the traced run.

Every layer is measured from outside, through its public functions: timed
calls on fixed inputs, and traced mini-runs of the link-studies and
netsim-sweep workloads for self-time shares and call counts.  The layers are
the package's modules.  Which end-to-end metric each layer metric should move
is written down in bench/README.md.
"""

from __future__ import annotations

import io
import math
import os
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from tracing import Tracer, span_cost
from workloads import LinkStudies, NetsimSweep, NetsimWide

# netsim.DEFAULT_RADII, fixed here so that metric names do not follow the package.
RADII = (20, 35, 50, 65, 80, 100, 150, 250, 500)
CLI_COMMANDS = {
    "link": ["link"],
    "table1": ["table1"],
    "sweep-bw": ["sweep-bw"],
    "sweep-pa": ["sweep-pa", "--target-cef", "0.709"],
    "chain": ["chain", "fixed.chain"],
}
# name -> unit, in print order.  BENCHMARK.json lists the same names.
PER_LAYER = {
    "cascade.cascade_waste_factor_us": "us",
    "cascade.bookkeeping_oracle_us": "us",
    "cascade.consumed_power_us": "us",
    "cascade.self_share": "ratio",
    "linkbudget.tx_power_for_snr_us": "us",
    "linkbudget.self_share": "ratio",
    "transceiver.evaluate_link_us": "us",
    "transceiver.power_coefficients_us": "us",
    "transceiver.build_chain_us": "us",
    "transceiver.evaluate_link_calls_per_study": "count",
    "transceiver.self_share": "ratio",
    "sweeps.sweep_bw_ms": "ms",
    "sweeps.find_crossover_ms": "ms",
    "sweeps.min_matching_efficiency_ms": "ms",
    "sweeps.bisection_evaluations_per_study": "count",
    "sweeps.self_share": "ratio",
    **{f"netsim.us_per_cell_drop.r{r}": "us" for r in RADII},
    "netsim.p_los_calls_per_cell_drop": "count",
    "netsim.p_los_self_share": "ratio",
    "netsim.drop_ues_us_per_cell": "us",
    "netsim.csv_rows_us": "us",
    "netsim.sweep_setup_share": "ratio",
    "netsim.fixed_per_radius_s": "s",
    "netsim.hex_layout_ms": "ms",
    "scenario_io.resolve_preset_us": "us",
    "scenario_io.parse_scenario_us": "us",
    "scenario_io.apply_overrides_us": "us",
    "scenario_io.parse_chain_us": "us",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.numpy_import_ms": "ms",
    **{f"cli.main_ms.{name}": "ms" for name in CLI_COMMANDS},
    "trace.overhead_share": "ratio",
    "trace.overhead_ms": "ms",
    "trace.span_cost_us": "us",
}

TRACED_STUDIES = 60

# A 10-stage chain: the README's example chain plus a cable loss at the sink.
FIXED_CHAIN = """\
passive mixer loss=6dB
passive shifter loss=10dB
amp pa gain=30dB eta=0.28
antenna handset area=5cm2 eff=0.6
channel ci f=28GHz d=100m n=2
antenna tower area=0.5m2 eff=0.6
lna front gain=20dB fom=24.83 count=1024
passive shifter2 loss=10dB
passive mixer2 loss=6dB
passive cable loss=1dB
"""

FIXED_SCENARIO = """\
[band]
preset = subthz-140
bandwidth = 400 MHz
pa_efficiency = 25 %

[bs]
elements = 1024

[ue]
screen_power = 750 mW

[link]
distance = 0.2 km
environment = nlos
tx_power = 10 dBm
"""


def per_call_s(fn, batch_s: float = 0.02, batches: int = 5) -> float:
    """Median seconds per call over `batches` batches of at least batch_s."""
    n = 1
    while True:
        start = perf_counter()
        for _ in range(n):
            fn()
        elapsed = perf_counter() - start
        if elapsed >= batch_s:
            break
        n = max(2 * n, math.ceil(1.2 * n * batch_s / max(elapsed, 1e-9)))
    times = [elapsed / n]
    for _ in range(batches - 1):
        start = perf_counter()
        for _ in range(n):
            fn()
        times.append((perf_counter() - start) / n)
    return statistics.median(times)


def wall_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _child_ms(code: str, env: dict, repeats: int) -> float:
    """Median of a fresh interpreter's own report, in ms."""
    values = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
        ).stdout
        values.append(float(out.strip()) * 1e3)
    return statistics.median(values)


def measure(seed: int, work_dir: Path, run_pairs) -> tuple[dict[str, float], dict]:
    """Every per-layer metric except the run's own tracing overhead.

    run_pairs(workload, count, tracer) runs and checks operations 0 .. count-1
    of a workload, each untraced and then traced, and returns the untraced
    and the traced Ops.  Returns the metrics and the tracers of those traced
    mini-runs by workload name.
    """
    from wastefactor import cascade, cli, linkbudget, netsim, scenario_io, sweeps, transceiver

    m: dict[str, float] = {}

    chain = scenario_io.parse_chain(FIXED_CHAIN)
    m["cascade.cascade_waste_factor_us"] = per_call_s(lambda: cascade.cascade_waste_factor(chain)) * 1e6
    m["cascade.bookkeeping_oracle_us"] = per_call_s(lambda: cascade.bookkeeping_oracle(chain)) * 1e6
    m["cascade.consumed_power_us"] = per_call_s(lambda: cascade.consumed_power(chain)) * 1e6

    m["linkbudget.tx_power_for_snr_us"] = per_call_s(
        lambda: linkbudget.tx_power_for_snr_dbm(20.0, 4e9, 10.0, 115.0, 20.0, 45.0)
    ) * 1e6

    link = transceiver.mmwave_28()
    band, bs, ue = link.band, link.bs, link.ue
    m["transceiver.evaluate_link_us"] = per_call_s(lambda: transceiver.evaluate_link(link)) * 1e6
    m["transceiver.power_coefficients_us"] = per_call_s(
        lambda: (transceiver.tx_power_coefficients(band, ue), transceiver.rx_power_coefficients(band, bs))
    ) * 1e6
    m["transceiver.build_chain_us"] = per_call_s(lambda: transceiver.build_chain(link)) * 1e6

    swept = replace(transceiver.subthz_140(), direction="downlink")
    spec = sweeps.SweepSpec(
        scenario=swept, parameter="bandwidth", lo=0.1e9, hi=10e9, points=64, snr_target_db=20.0
    )
    curve = sweeps.sweep(spec)
    reference = sweeps.snr_matched_sample(
        replace(transceiver.mmwave_28(), direction="downlink"), snr_target_db=20.0
    ).cef_bpj
    m["sweeps.sweep_bw_ms"] = per_call_s(lambda: sweeps.sweep(spec), 0.05) * 1e3
    m["sweeps.find_crossover_ms"] = per_call_s(lambda: sweeps.find_crossover(curve, reference), 0.05) * 1e3
    m["sweeps.min_matching_efficiency_ms"] = per_call_s(
        lambda: sweeps.min_matching_efficiency(0.709e9, swept), 0.05
    ) * 1e3

    # The tracer's cost per span: the gap between paired untraced and traced
    # studies over the spans they made, split inside/outside as on a no-op.
    # Studies make about 12000 microsecond spans each, so the gap is about
    # the untraced time again and is measured well.
    tracer = Tracer()
    plain, traced = run_pairs(LinkStudies(seed, work_dir), TRACED_STUDIES, tracer)
    spans = sum(1 for span in tracer.spans if span[3] >= 0)
    cost = span_cost().scaled((sum(traced.times) - sum(plain.times)) / spans)
    m["trace.span_cost_us"] = (cost.inside + cost.outside) * 1e6
    trace = tracer.summary(cost)
    for layer in ("cascade", "linkbudget", "transceiver", "sweeps"):
        m[f"{layer}.self_share"] = trace.layer_self_share(layer)
    m["transceiver.evaluate_link_calls_per_study"] = (
        trace.count("transceiver.evaluate_link") / TRACED_STUDIES
    )
    m["sweeps.bisection_evaluations_per_study"] = (
        trace.count(
            "transceiver.evaluate_link",
            under=("sweeps.find_crossover", "sweeps.min_matching_efficiency"),
        )
        / TRACED_STUDIES
    )
    traces = {"link-studies": tracer}

    drops = NetsimSweep.drops
    reports = []
    for r in RADII:
        scenario = netsim.default_network(float(r), drops=drops, seed=seed)
        times = []
        for _ in range(3):
            start = perf_counter()
            report = netsim.simulate_network(scenario)
            times.append(perf_counter() - start)
        m[f"netsim.us_per_cell_drop.r{r}"] = statistics.median(times) / (report.n_cells * drops) * 1e6
        reports.append(report)
    sweep_workload = NetsimSweep(seed, work_dir)
    tracer = Tracer()
    run_pairs(sweep_workload, 1, tracer)
    trace = tracer.summary(cost)
    cell_drops = sum(sweep_workload.expected_cells.values()) * drops
    m["netsim.p_los_calls_per_cell_drop"] = trace.count("netsim.p_los") / cell_drops
    m["netsim.p_los_self_share"] = trace.self_share("netsim.p_los")
    # Each radius's work before its first p_los call (layout, neighbour
    # search, radio constants) does not grow with drops.
    m["netsim.sweep_setup_share"] = (
        trace.lead_s("netsim.simulate_network", "netsim.p_los") / trace.ops_s
    )
    traces["netsim-sweep"] = tracer

    layout = netsim.hex_layout(1e6, 20.0)
    m["netsim.drop_ues_us_per_cell"] = (
        wall_s(lambda: netsim.drop_ues(layout, 15, seed), 3) / layout.n_cells * 1e6
    )
    m["netsim.csv_rows_us"] = per_call_s(lambda: list(netsim.network_csv_rows(reports))) * 1e6
    m["netsim.hex_layout_ms"] = (
        wall_s(lambda: netsim.hex_layout(NetsimWide.area_m2, NetsimWide.radius_m), 3) * 1e3
    )
    wide = netsim.default_network(
        NetsimWide.radius_m, area_m2=NetsimWide.area_m2, wraparound=True, seed=seed
    )
    # A difference of two noisy times: alternate them and keep the fastest
    # of each, since host noise only ever adds time.
    one, two = [], []
    for _ in range(2):
        one.append(wall_s(lambda: netsim.simulate_network(replace(wide, drops=1)), 1))
        two.append(wall_s(lambda: netsim.simulate_network(replace(wide, drops=2)), 1))
    m["netsim.fixed_per_radius_s"] = 2.0 * min(one) - min(two)

    m["scenario_io.resolve_preset_us"] = per_call_s(lambda: scenario_io.resolve_preset("subthz-140")) * 1e6
    m["scenario_io.parse_scenario_us"] = per_call_s(lambda: scenario_io.parse_scenario(FIXED_SCENARIO)) * 1e6
    overrides = ["band.bandwidth=1 GHz", "link.distance=200 m", "link.environment=nlos"]
    m["scenario_io.apply_overrides_us"] = per_call_s(
        lambda: scenario_io.apply_overrides(link, overrides)
    ) * 1e6
    m["scenario_io.parse_chain_us"] = per_call_s(lambda: scenario_io.parse_chain(FIXED_CHAIN)) * 1e6

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "WASTEFACTOR_PRESET_DIR"}
    env["PYTHONPATH"] = src
    m["cli.interpreter_ms"] = wall_s(
        lambda: subprocess.run([sys.executable, "-c", "pass"], env=env, check=True), 5
    ) * 1e3
    timed_import = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    m["cli.import_ms"] = _child_ms(timed_import.format("wastefactor.cli"), env, 3)
    m["cli.numpy_import_ms"] = _child_ms(timed_import.format("numpy"), env, 3)

    (work_dir / "fixed.chain").write_text(FIXED_CHAIN, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        for name, argv in CLI_COMMANDS.items():
            def call(argv=argv):
                if cli.main(argv, stdout=io.StringIO()) != 0:
                    raise RuntimeError(f"wastefactor {' '.join(argv)} failed")

            m[f"cli.main_ms.{name}"] = wall_s(call, 5) * 1e3
    finally:
        os.chdir(cwd)
    return m, traces
