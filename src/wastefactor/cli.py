"""Command-line front end.

Subcommands: link, table1, sweep-bw, sweep-pa, netsim, chain.  Every
subcommand accepts --out; all but chain load a scenario and accept --preset
or --scenario (not both) and --set, where --set applies `section.key=value`
overrides with the same unit syntax as scenario files; netsim alone takes
--seed.  A negative flag value may take the exponent form (--snr -1e1).
Exit codes: 0 success, 1 usage error, 2 scenario/chain parse error,
3 evaluation failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import fields, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TextIO

from .cascade import cascade_gain, cascade_waste_factor, consumed_power
from .linkbudget import dbm_to_watts, linear_to_db
from .scenario_io import (
    ScenarioParseError,
    apply_overrides,
    load_scenario_file,
    parse_chain,
    resolve_preset,
)
from .transceiver import (
    PRESETS,
    LinkReport,
    LinkScenario,
    NetworkScenario,
    as_network,
    band_comparison,
    evaluate_link,
)

if TYPE_CHECKING:
    from .sweeps import Curve

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_EVAL = 3

# One row per reported link metric: (label, CSV column, unit, decimals in the
# `link` report, getter).  The `link` report, both CSV schemas and the
# `table1` text all derive from this table.
_METRICS: tuple[tuple[str, str, str, int, Callable[[LinkReport], float]], ...] = (
    ("waste figure", "waste_figure_db", "dB", 3, lambda r: r.waste_figure_db),
    ("cascade gain", "cascade_gain_db", "dB", 3, lambda r: r.cascade_gain_db),
    ("path loss", "path_loss_db", "dB", 3, lambda r: r.path_loss_db),
    ("EIRP", "eirp_dbm", "dBm", 3, lambda r: r.eirp_dbm),
    ("received power", "p_received_dbw", "dBW", 3, lambda r: r.p_received_dbw),
    ("SNR", "snr_db", "dB", 3, lambda r: r.snr_db),
    ("data rate", "rate_gbps", "Gb/s", 4, lambda r: r.rate_bps / 1e9),
    ("consumed power", "p_consumed_w", "W", 4, lambda r: r.p_consumed_w),
    ("CEF", "cef_gbpj", "Gb/J", 4, lambda r: r.cef_bpj / 1e9),
)

_METRIC_CSV_HEADER = ",".join(column for _, column, _, _, _ in _METRICS)


class _ParseFailure(Exception):
    """Input could not be parsed; maps to exit code 2."""


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _emit(rows: Iterable[str], out_path: str | None, stream: TextIO) -> None:
    text = "\n".join(rows) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        stream.write(text)


def _load_scenario(
    path: str | None, preset: str, overrides: Sequence[str], network: dict | None = None
):
    """The scenario file at path, else the preset, with overrides applied;
    parse errors only.  Given network fields, a network scenario with them
    set over the overrides, in one step with the [network] overrides."""
    try:
        scenario = load_scenario_file(path) if path else resolve_preset(preset)
        if network is not None:
            scenario = apply_overrides(as_network(scenario), overrides, network)
        elif isinstance(scenario, NetworkScenario):
            raise _ParseFailure("this command needs a link scenario, not a network one")
        elif overrides:
            scenario = apply_overrides(scenario, overrides)
    except (ScenarioParseError, OSError, ValueError) as exc:
        raise _ParseFailure(str(exc)) from exc
    return scenario


def _direction(word: str) -> str:
    return {"ul": "uplink", "dl": "downlink"}.get(word, word)


def _metric_csv(report: LinkReport) -> str:
    return ",".join(_fmt(get(report)) for _, _, _, _, get in _METRICS)


def cmd_link(args, stdout: TextIO) -> int:
    scenario = _load_scenario(args.scenario, args.preset, args.overrides)
    report = evaluate_link(scenario)
    stdout.write(
        f"{scenario.band.label} {scenario.direction} {scenario.environment}"
        f" at {scenario.distance_m:g} m, tx {scenario.tx_power_dbm:g} dBm\n"
    )
    for label, _, unit, decimals, get in _METRICS:
        stdout.write(f"  {label:<17}{get(report):10.{decimals}f} {unit}\n")
    if args.out:
        _emit([_METRIC_CSV_HEADER, _metric_csv(report)], args.out, stdout)
    return EXIT_OK


def _table_cells(args) -> list[tuple[str, str, str, LinkReport]]:
    both = args.preset == "both" and not args.scenario
    presets = tuple(PRESETS) if both else (args.preset,)
    cells = []
    for preset in presets:
        base = _load_scenario(args.scenario, preset, args.overrides)
        reports = band_comparison((base,), base.tx_power_dbm, base.distance_m).reports
        cells += [(*key, report) for key, report in reports.items()]
    return cells


def _render_table(cells: list[tuple[str, str, str, LinkReport]]) -> list[str]:
    short = {"uplink": "UL", "downlink": "DL", "los": "LoS", "nlos": "NLoS"}
    headers = ["metric", "unit"] + [
        f"{band} {short[d]} {short[e]}" for band, d, e, _ in cells
    ]
    rows = [headers]
    for label, _, unit, _, get in _METRICS:
        rows.append([label, unit] + [f"{get(r):.3f}" for _, _, _, r in cells])
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(rows):
        cols = [row[0].ljust(widths[0]), row[1].ljust(widths[1])]
        cols += [cell.rjust(widths[i + 2]) for i, cell in enumerate(row[2:])]
        lines.append("  ".join(cols).rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return lines


def cmd_table1(args, stdout: TextIO) -> int:
    cells = _table_cells(args)
    for line in _render_table(cells):
        stdout.write(line + "\n")
    csv_rows = ["band,direction,environment," + _METRIC_CSV_HEADER]
    for band, direction, environment, r in cells:
        csv_rows.append(f"{band},{direction},{environment},{_metric_csv(r)}")
    if not args.out:  # a blank line parts the table from the CSV on stdout
        stdout.write("\n")
    _emit(csv_rows, args.out, stdout)
    return EXIT_OK


def _swept(args, parameter: str, lo: float, hi: float) -> tuple[LinkScenario, Curve]:
    """The scenario turned to --direction, and its curve over [lo, hi]."""
    from .sweeps import SweepSpec, sweep

    base = _load_scenario(args.scenario, args.preset, args.overrides)
    base = replace(base, direction=_direction(args.direction))
    spec = SweepSpec(
        scenario=base, parameter=parameter, lo=lo, hi=hi, points=args.points, snr_target_db=args.snr
    )
    return base, sweep(spec)


def cmd_sweep_bw(args, stdout: TextIO) -> int:
    # Imported by the two sweep commands only, so the others never load sweeps.
    from .sweeps import curve_csv_rows, find_crossover, snr_matched_sample

    base, curve = _swept(args, "bandwidth", args.lo_ghz * 1e9, args.hi_ghz * 1e9)

    reference = _load_scenario(None, args.reference_preset, args.overrides)
    reference = replace(reference, direction=_direction(args.direction))
    ref_sample = snr_matched_sample(reference, snr_target_db=args.snr)

    rows = list(curve_csv_rows(curve))
    crossover = find_crossover(curve, ref_sample.cef_bpj)
    stdout.write(
        f"reference {reference.band.label} {reference.direction}:"
        f" cef {_fmt(ref_sample.cef_bpj / 1e9)} Gb/J"
        f" at {_fmt(reference.band.bandwidth_hz / 1e9)} GHz\n"
    )
    if crossover.found:
        rows.append(
            f"# crossover bandwidth_hz={_fmt(crossover.x)}"
            f" cef_gbpj={_fmt(crossover.cef_bpj / 1e9)}"
            f" reference_cef_gbpj={_fmt(ref_sample.cef_bpj / 1e9)}"
        )
        stdout.write(
            f"crossover: {base.band.label} {base.direction} matches the reference"
            f" at {_fmt(crossover.x / 1e9)} GHz\n"
        )
    else:
        stdout.write("crossover: none within the swept range\n")
    _emit(rows, args.out, stdout)
    return EXIT_OK


def cmd_sweep_pa(args, stdout: TextIO) -> int:
    from .sweeps import curve_csv_rows, min_matching_efficiency

    base, curve = _swept(args, "pa_efficiency", args.lo, args.hi)
    rows = list(curve_csv_rows(curve))
    if args.target_cef is not None:
        match = min_matching_efficiency(args.target_cef * 1e9, base)
        if match.found:
            stdout.write(
                f"matching efficiency: {match.efficiency:.5f}"
                f" reaches {_fmt(match.cef_bpj / 1e9)} Gb/J\n"
            )
            rows.append(
                f"# matching_efficiency={match.efficiency:.10g}"
                f" target_cef_gbpj={_fmt(args.target_cef)}"
            )
        else:
            stdout.write("matching efficiency: target unreachable at eta <= 1\n")
    _emit(rows, args.out, stdout)
    return EXIT_OK


def cmd_netsim(args, stdout: TextIO) -> int:
    # Imported here so the link-level commands never load numpy.
    from .netsim import (
        DEFAULT_RADII,
        network_csv_rows,
        optimal_radius,
        radius_scenarios,
        simulate_network,
    )

    # The run flags store into the scenario fields they set, None when not
    # given, and win over --set; the overrides apply at the first radius, and
    # every radius's scenario is built before the first runs.
    given = {f.name: getattr(args, f.name, None) for f in fields(NetworkScenario)}
    radii = args.radius or DEFAULT_RADII
    first = {k: v for k, v in given.items() if v is not None} | {"cell_radius_m": radii[0]}
    scenario = _load_scenario(args.scenario, args.preset, args.overrides, first)
    try:
        scenarios = radius_scenarios(scenario, radii)
    except ValueError as exc:
        raise _ParseFailure(str(exc)) from exc
    reports = tuple(map(simulate_network, scenarios))
    _emit(network_csv_rows(reports), args.out, stdout)
    best = optimal_radius(reports)
    stdout.write(
        f"best radius {best.radius_m:g} m: cef {_fmt(best.cef_bpj / 1e9)} Gb/J,"
        f" {best.n_cells} cells, throughput {_fmt(best.throughput_bps / 1e9)} Gb/s\n"
    )
    return EXIT_OK


def cmd_chain(args, stdout: TextIO) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
        source_w = dbm_to_watts(args.source_dbm)  # an overflow fails before parsing
        cascade = parse_chain(text)
    except (ScenarioParseError, OSError) as exc:
        raise _ParseFailure(str(exc)) from exc
    if source_w == 0.0:
        raise ValueError(f"source power {args.source_dbm:g} dBm is too small to express in watts")
    cascade = replace(cascade, source_power=source_w)
    # Every value is computed before anything is written, so a failure
    # leaves stdout empty.
    w = cascade_waste_factor(cascade)
    gain = cascade_gain(cascade)
    consumed = consumed_power(cascade)
    delivered = cascade.source_power * gain
    for name, power in (("delivered", delivered), ("consumed", consumed)):
        if power == math.inf:
            raise ValueError(
                f"the {name} power is too large to express in watts: source power"
                f" {args.source_dbm:g} dBm, cascade gain {linear_to_db(gain):g} dB"
            )
    stages = [(c.label, linear_to_db(c.gain), c.waste_factor) for c in cascade.components]
    report = [
        f"{len(stages)} components, source {args.source_dbm:g} dBm",
        *(
            f"  {label:<18} gain {gain_db:8.2f} dB   W {waste:12.4g}"
            for label, gain_db, waste in stages
        ),
        f"cascade gain: {linear_to_db(gain):.3f} dB",
        f"waste factor: {w:.6g} ({linear_to_db(w):.3f} dB)",
        f"delivered power: {delivered:.6g} W",
        f"consumed power: {consumed:.6g} W",
    ]
    _emit(report, None, stdout)
    if args.out:
        rows = [
            "label,gain_db,waste_factor",
            *(f"{label},{_fmt(gain_db)},{_fmt(waste)}" for label, gain_db, waste in stages),
        ]
        _emit(rows, args.out, stdout)
    return EXIT_OK


def _checked(
    convert: Callable[[str], float], accept: Callable[[float], bool], expected: str
) -> Callable[[str], float]:
    """argparse type that rejects out-of-range values as usage errors."""

    def parse(text: str) -> float:
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_POINTS = _checked(int, lambda n: n >= 2, "at least 2")
_POSITIVE = _checked(float, lambda v: 0.0 < v < math.inf, "positive and finite")
_EFFICIENCY = _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_RADIUS = _checked(float, lambda v: 20.0 <= v <= 500.0, "within the studied 20-500 m")
_DROPS = _checked(int, lambda n: n >= 1, "at least 1")
_SEED = _checked(int, lambda n: n >= 0, "non-negative")
_FINITE = _checked(float, math.isfinite, "finite")
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _check_order(parser: argparse.ArgumentParser, args) -> None:
    """Sweep bounds must be increasing; argparse checks each flag alone."""
    for lo, hi in (("lo_ghz", "hi_ghz"), ("lo", "hi")):
        if hasattr(args, lo) and not getattr(args, lo) < getattr(args, hi):
            parser.error(f"--{lo.replace('_', '-')} must be below --{hi.replace('_', '-')}")


def _add_common(
    parser: argparse.ArgumentParser, preset: str | None = None, seed: bool = False
) -> None:
    """Each command takes only the flags it reads: the scenario flags, with
    its default preset, where it loads a scenario (preset is None where it
    does not), --seed where it simulates, --out everywhere."""
    if preset is not None:
        # The default goes on the parser, not the flag: argparse takes a flag
        # whose value is its default object as absent, which would let an
        # in-process ["--preset", "both"] beside --scenario pass the group.
        parser.set_defaults(preset=preset)
        source = parser.add_mutually_exclusive_group()
        source.add_argument(
            "--preset", default=argparse.SUPPRESS, help="named preset (built-in or <name>.scenario)"
        )
        source.add_argument("--scenario", metavar="FILE", help="scenario file to load")
        parser.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override one scenario value, unit included (band.bandwidth=1 GHz)",
        )
    if seed:
        parser.add_argument("--seed", type=_SEED, help="simulation seed")
    parser.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wastefactor",
        description="Waste-factor, consumed-power, and consumption-efficiency analysis of transceiver chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_link = sub.add_parser("link", help="evaluate one link scenario")
    _add_common(p_link, "mmwave-28")
    p_link.set_defaults(func=cmd_link)

    p_table = sub.add_parser("table1", help="8-cell band/direction/environment matrix")
    _add_common(p_table, "both")
    p_table.set_defaults(func=cmd_table1)

    p_bw = sub.add_parser("sweep-bw", help="bandwidth sweep with crossover search")
    _add_common(p_bw, "subthz-140")
    p_bw.add_argument("--direction", choices=("ul", "dl", "uplink", "downlink"), default="dl")
    p_bw.add_argument("--snr", type=_FINITE, default=20.0, help="target SNR in dB")
    p_bw.add_argument("--lo-ghz", type=_POSITIVE, default=0.1)
    p_bw.add_argument("--hi-ghz", type=_POSITIVE, default=10.0)
    p_bw.add_argument("--points", type=_POINTS, default=64)
    p_bw.add_argument(
        "--reference-preset",
        default="mmwave-28",
        help="fixed-band scenario the crossover is measured against",
    )
    p_bw.set_defaults(func=cmd_sweep_bw)

    p_pa = sub.add_parser("sweep-pa", help="PA-efficiency sweep")
    _add_common(p_pa, "subthz-140")
    p_pa.add_argument("--direction", choices=("ul", "dl", "uplink", "downlink"), default="dl")
    p_pa.add_argument("--snr", type=_FINITE, default=None, help="target SNR in dB (fixed power if omitted)")
    p_pa.add_argument("--lo", type=_EFFICIENCY, default=0.02)
    p_pa.add_argument("--hi", type=_EFFICIENCY, default=0.6)
    p_pa.add_argument("--points", type=_POINTS, default=64)
    p_pa.add_argument(
        "--target-cef",
        type=_POSITIVE,
        default=None,
        metavar="GBPJ",
        help="also find the minimum efficiency reaching this CEF",
    )
    p_pa.set_defaults(func=cmd_sweep_pa)

    p_net = sub.add_parser("netsim", help="hexagonal-network radius sweep")
    _add_common(p_net, "subthz-140", seed=True)
    p_net.add_argument(
        "--radius",
        type=_RADIUS,
        action="append",
        metavar="M",
        help="cell radius in meters; repeatable (default: built-in sweep)",
    )
    p_net.add_argument("--drops", type=_DROPS, help="Monte Carlo drops per radius")
    p_net.add_argument("--no-interference", dest="interference", action="store_false", default=None)
    p_net.add_argument("--wraparound", action="store_true", default=None)
    p_net.set_defaults(func=cmd_netsim)

    p_chain = sub.add_parser("chain", help="evaluate a chain description file")
    _add_common(p_chain)
    p_chain.add_argument("file", help="chain description file")
    p_chain.add_argument("--source-dbm", type=_FINITE, default=0.0)
    p_chain.set_defaults(func=cmd_chain)

    # argparse reads only the -12 and -1.5 forms as negative numbers, and
    # any other word after a dash as an unknown flag; no flag here looks
    # like a number, so "--snr -1e1" can read the exponent form too.
    for command in sub.choices.values():
        command._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv: Sequence[str] | None = None, stdout: TextIO | None = None) -> int:
    stdout = stdout or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_order(parser, args)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; fold the latter to 1.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args, stdout)
    except _ParseFailure as exc:
        print(f"wastefactor: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"wastefactor: evaluation failed: {exc}", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
