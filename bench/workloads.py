"""The benchmark's four seeded workloads.

Every workload turns (seed, operation index) into the inputs of one
operation, runs that operation through the package's public API or its
command line, and checks the outputs against relations the package must
satisfy.  A workload only imports `wastefactor` when it is set up, so that
set-up time includes the package import.

Each operation has three parts, and only `run` is timed:

- `make_input(index)` draws the operation's inputs;
- `run(inputs)` calls the program;
- `check(inputs, outputs)` verifies the outputs and renders them as text
  (`%.10g` floats) for the run's output digest.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

# CSV headers as the README documents them; the checks compare against these
# literals, not against the package's own constants.
NETSIM_HEADER = (
    "radius_m,cells,cef_gbpj,throughput_gbps,power_w,mean_sinr_db,los_fraction,ci_halfwidth"
)
CURVE_HEADER = "x_value,unit,cef_gbpj,rate_gbps,p_consumed_w,snr_db,feasible"
TABLE_HEADER = (
    "band,direction,environment,waste_figure_db,cascade_gain_db,path_loss_db,"
    "eirp_dbm,p_received_dbw,snr_db,rate_gbps,p_consumed_w,cef_gbpj"
)
LINK_HEADER = (
    "waste_figure_db,cascade_gain_db,path_loss_db,eirp_dbm,p_received_dbw,"
    "snr_db,rate_gbps,p_consumed_w,cef_gbpj"
)
CHAIN_HEADER = "label,gain_db,waste_factor"

# Relative tolerance for identities the package computes with the same
# arithmetic (cef = rate / power, rate = Shannon(B, snr)).
REL_TOL = 1e-12
# Absolute tolerance on a solved SNR, in dB.
SNR_TOL_DB = 1e-9


@dataclass
class Checked:
    """Outcome of one operation's checks."""

    units: int
    text: str
    problems: list[str] = field(default_factory=list)
    rss_mb: float | None = None


def op_rng(workload: str, seed: int, index: int) -> random.Random:
    """Input stream of one operation; depends only on (workload, seed, index)."""
    return random.Random(f"{workload}:{seed}:{index}")


def fmt(value: float) -> str:
    return f"{value:.10g}"


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def _check_network_report(report, expected_cells: int, drops: int, problems: list[str]) -> None:
    values = (
        report.throughput_bps, report.power_w, report.cef_bpj, report.mean_sinr_db,
        report.los_fraction, report.ci_halfwidth_bpj,
    )
    tag = f"r={report.radius_m:g}"
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{tag}: non-finite report {values}")
    if not 0.0 <= report.los_fraction <= 1.0:
        problems.append(f"{tag}: los_fraction {report.los_fraction} outside [0, 1]")
    if report.n_cells != expected_cells:
        problems.append(f"{tag}: {report.n_cells} cells, hex_layout gives {expected_cells}")
    if report.drops != drops:
        problems.append(f"{tag}: {report.drops} drops, asked for {drops}")


def _report_text(report) -> str:
    return ",".join(
        fmt(v)
        for v in (
            report.radius_m, report.n_cells, report.throughput_bps, report.power_w,
            report.cef_bpj, report.mean_sinr_db, report.los_fraction,
            report.ci_halfwidth_bpj, report.drops,
        )
    )


class NetsimSweep:
    """`sweep_radius` over DEFAULT_RADII with the subthz-140 network defaults,
    serial, interference on, no wraparound; rows through `network_csv_rows`.

    Two drops per radius keep an operation near a second and run the
    cross-drop averaging and confidence interval, which one drop skips; the
    netsim `seed` field changes with every operation.
    """

    name = "netsim-sweep"
    op_name = "sweep"
    unit_name = "cell_drops"
    digest_ops = 2
    min_ops = 2
    drops = 2

    def __init__(self, seed: int, work_dir: Path) -> None:
        from wastefactor import netsim

        self.netsim = netsim
        self.seed = seed
        self.base = netsim.default_network(65.0, drops=self.drops)
        self.radii = tuple(netsim.DEFAULT_RADII)
        self.expected_cells = {
            r: netsim.hex_layout(self.base.area_m2, r).n_cells for r in self.radii
        }

    def make_input(self, index: int):
        seed = op_rng(self.name, self.seed, index).randrange(2**31)
        return replace(self.base, seed=seed)

    def run(self, scenario):
        reports = self.netsim.sweep_radius(scenario)
        return reports, list(self.netsim.network_csv_rows(reports))

    def check(self, scenario, outputs) -> Checked:
        reports, rows = outputs
        problems: list[str] = []
        if rows[:1] != [NETSIM_HEADER]:
            problems.append(f"csv header {rows[:1]!r}")
        if len(rows) != 1 + len(self.radii):
            problems.append(f"{len(rows) - 1} csv rows for {len(self.radii)} radii")
        if tuple(r.radius_m for r in reports) != self.radii:
            problems.append("reports out of radius order")
        for report in reports:
            _check_network_report(
                report, self.expected_cells.get(report.radius_m, -1), scenario.drops, problems
            )
        units = sum(r.n_cells * r.drops for r in reports)
        return Checked(units, f"seed={scenario.seed}\n" + "\n".join(rows), problems)


class NetsimWide:
    """`simulate_network` at r = 20 m over 4 km^2 (3853 cells), wraparound on.

    The area stays at 4 km^2: the neighbour search is quadratic in the cell
    count, so 8 km^2 would need about 2.8 GB.
    """

    name = "netsim-wide"
    op_name = "run"
    unit_name = "cell_drops"
    digest_ops = 1
    min_ops = 1
    radius_m = 20.0
    area_m2 = 4e6
    drops = 1

    def __init__(self, seed: int, work_dir: Path) -> None:
        from wastefactor import netsim

        self.netsim = netsim
        self.seed = seed
        self.base = netsim.default_network(
            self.radius_m, area_m2=self.area_m2, wraparound=True, drops=self.drops
        )
        self.expected_cells = netsim.hex_layout(self.area_m2, self.radius_m).n_cells

    def make_input(self, index: int):
        seed = op_rng(self.name, self.seed, index).randrange(2**31)
        return replace(self.base, seed=seed)

    def run(self, scenario):
        return self.netsim.simulate_network(scenario)

    def check(self, scenario, report) -> Checked:
        problems: list[str] = []
        _check_network_report(report, self.expected_cells, scenario.drops, problems)
        return Checked(
            report.n_cells * report.drops,
            f"seed={scenario.seed}\n{_report_text(report)}",
            problems,
        )


@dataclass(frozen=True)
class Study:
    scenario: object
    reference: object
    snr_db: float
    target_cef_bpj: float


class LinkStudies:
    """Seed-drawn analysis studies run in-process.

    A study draws a band, direction, environment, distance, transmit power,
    SNR target and target CEF, then runs a 64-point bandwidth sweep at the
    SNR target, the SNR-matched mmwave-28 reference and the crossover search
    against it, a 64-point PA-efficiency sweep, the matching-efficiency
    bisection and the eight-cell band comparison.
    """

    name = "link-studies"
    op_name = "study"
    unit_name = "studies"
    digest_ops = 50
    min_ops = 110
    points = 64

    def __init__(self, seed: int, work_dir: Path) -> None:
        from wastefactor import linkbudget, sweeps, transceiver

        self.sweeps = sweeps
        self.transceiver = transceiver
        self.linkbudget = linkbudget
        self.seed = seed
        self.presets = {name: transceiver.preset_scenario(name) for name in transceiver.PRESETS}
        self.bandwidth = {name: s.band.bandwidth_hz for name, s in self.presets.items()}

    def make_input(self, index: int) -> Study:
        rng = op_rng(self.name, self.seed, index)
        band = rng.choice(sorted(self.presets))
        geometry = dict(
            direction=rng.choice(("uplink", "downlink")),
            environment=rng.choice(("los", "nlos")),
            distance_m=round(rng.uniform(20.0, 250.0), 1),
            tx_power_dbm=round(rng.uniform(-5.0, 20.0), 1),
        )
        return Study(
            scenario=replace(self.presets[band], **geometry),
            reference=replace(self.presets["mmwave-28"], **geometry),
            snr_db=round(rng.uniform(0.0, 25.0), 2),
            target_cef_bpj=10.0 ** rng.uniform(7.5, 9.5),
        )

    def run(self, study: Study):
        ws = self.sweeps
        curve = ws.sweep(
            ws.SweepSpec(
                scenario=study.scenario, parameter="bandwidth", lo=0.1e9, hi=10e9,
                points=self.points, snr_target_db=study.snr_db,
            )
        )
        reference = ws.snr_matched_sample(study.reference, snr_target_db=study.snr_db)
        crossover = ws.find_crossover(curve, reference.cef_bpj)
        pa_curve = ws.sweep(
            ws.SweepSpec(
                scenario=study.scenario, parameter="pa_efficiency", lo=0.02, hi=0.6,
                points=self.points,
            )
        )
        match = ws.min_matching_efficiency(study.target_cef_bpj, study.scenario)
        comparison = self.transceiver.band_comparison(
            tx_power_dbm=study.scenario.tx_power_dbm, distance_m=study.scenario.distance_m
        )
        return curve, reference, crossover, pa_curve, match, comparison

    def _check_sample(self, sample, bandwidth_hz, snr_target, problems, tag) -> None:
        if not _close(sample.cef_bpj, sample.rate_bps / sample.p_consumed_w):
            problems.append(f"{tag}: cef {sample.cef_bpj!r} != rate / power")
        if not _close(sample.rate_bps, self.linkbudget.shannon_rate_bps(bandwidth_hz, sample.snr_db)):
            problems.append(f"{tag}: rate {sample.rate_bps!r} != Shannon rate")
        if snr_target is not None and abs(sample.snr_db - snr_target) > SNR_TOL_DB:
            problems.append(f"{tag}: solved snr {sample.snr_db!r} != target {snr_target!r}")

    def check(self, study: Study, outputs) -> Checked:
        curve, reference, crossover, pa_curve, match, comparison = outputs
        problems: list[str] = []
        if len(curve.samples) != self.points or len(pa_curve.samples) != self.points:
            problems.append("sweep returned the wrong number of points")
        for s in curve.samples:
            self._check_sample(s, s.x, study.snr_db, problems, f"bw x={s.x:g}")
        bandwidth = study.scenario.band.bandwidth_hz
        for s in pa_curve.samples:
            self._check_sample(s, bandwidth, None, problems, f"pa x={s.x:g}")
        self._check_sample(
            reference, study.reference.band.bandwidth_hz, study.snr_db, problems, "reference"
        )

        ref_cef = reference.cef_bpj
        first = next((i for i, s in enumerate(curve.samples) if s.cef_bpj >= ref_cef), None)
        if crossover.found != (first is not None):
            problems.append(f"crossover found={crossover.found}, grid says {first is not None}")
        elif crossover.found:
            lo = curve.samples[max(first - 1, 0)].x
            hi = curve.samples[first].x
            if not lo <= crossover.x <= hi:
                problems.append(f"crossover {crossover.x!r} outside bracket [{lo!r}, {hi!r}]")
            if crossover.cef_bpj < ref_cef:
                problems.append(f"crossover cef {crossover.cef_bpj!r} below reference {ref_cef!r}")

        if match.found:
            if not 1e-3 <= match.efficiency <= 1.0:
                problems.append(f"matching efficiency {match.efficiency!r} outside [1e-3, 1]")
            if match.cef_bpj < study.target_cef_bpj:
                problems.append(f"matching cef {match.cef_bpj!r} below target")
        elif self.sweeps.reference_cef(study.scenario, pa_efficiency=1.0) >= study.target_cef_bpj:
            problems.append("matching efficiency not found although eta = 1 reaches the target")

        if len(comparison.reports) != 8:
            problems.append(f"band comparison has {len(comparison.reports)} cells")
        for (band, _, _), report in comparison.reports.items():
            if not _close(report.cef_bpj, report.rate_bps / report.p_consumed_w):
                problems.append(f"comparison {band}: cef != rate / power")
            if not _close(
                report.rate_bps, self.linkbudget.shannon_rate_bps(self.bandwidth[band], report.snr_db)
            ):
                problems.append(f"comparison {band}: rate != Shannon rate")

        lines = []
        for s in (*curve.samples, reference, *pa_curve.samples):
            lines.append(
                ",".join(fmt(v) for v in (s.x, s.cef_bpj, s.rate_bps, s.p_consumed_w, s.snr_db))
                + f",{s.feasible}"
            )
        lines.append(f"crossover,{crossover.found},{fmt(crossover.x or 0)},{fmt(crossover.cef_bpj or 0)}")
        lines.append(f"match,{match.found},{fmt(match.efficiency or 0)},{fmt(match.cef_bpj or 0)}")
        for key, r in sorted(comparison.reports.items()):
            lines.append(
                ",".join(key)
                + ","
                + ",".join(
                    fmt(v)
                    for v in (
                        r.waste_figure_db, r.cascade_gain_db, r.p_received_dbw, r.snr_db,
                        r.rate_bps, r.p_consumed_w, r.cef_bpj, r.path_loss_db, r.eirp_dbm,
                    )
                )
            )
        return Checked(1, "\n".join(lines), problems)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    kind: str
    out_file: str | None
    rows: int  # CSV data rows; for chain, the number of components
    comment: str | None  # prefix of the one optional trailing comment row


def _scenario_text(rng: random.Random) -> str:
    lines = ["[band]", f"preset = {rng.choice(('mmwave-28', 'subthz-140'))}"]
    if rng.random() < 0.5:
        lines.append(f"bandwidth = {rng.choice((100, 200, 400, 800, 2000))} MHz")
    lines += ["", "[ue]", f"screen_power = {rng.randint(2, 10) * 100} mW"]
    lines += [
        "",
        "[link]",
        f"distance = {rng.uniform(20.0, 250.0):.1f} m",
        f"environment = {rng.choice(('los', 'nlos'))}",
        f"tx_power = {rng.uniform(-5.0, 15.0):.1f} dBm",
    ]
    return "\n".join(lines) + "\n"


def _chain_text(rng: random.Random) -> tuple[str, int]:
    lines = []
    for i in range(rng.randint(4, 10)):
        kind = rng.choice(("passive", "passive", "amp", "lna", "antenna"))
        if kind == "passive":
            lines.append(f"passive p{i} loss={rng.uniform(0.5, 10.0):.2f}dB")
        elif kind == "amp":
            lines.append(
                f"amp a{i} gain={rng.uniform(10.0, 30.0):.1f}dB eta={rng.uniform(0.1, 0.6):.3f}"
            )
        elif kind == "lna":
            lines.append(
                f"lna l{i} gain={rng.uniform(10.0, 25.0):.1f}dB"
                f" fom={rng.uniform(5.0, 30.0):.2f} count={rng.randint(1, 64)}"
            )
        else:
            lines.append(f"antenna t{i} gain={rng.uniform(0.0, 30.0):.2f}dBi")
    lines.insert(rng.randrange(len(lines) + 1), f"channel pl={rng.uniform(60.0, 120.0):.1f}dB")
    return "# generated chain\n" + "\n".join(lines) + "\n", len(lines)


class CliSession:
    """Fresh `python -m wastefactor.cli` processes, one at a time.

    Commands are drawn from the seed: `link` with random --set overrides,
    `table1`, `sweep-bw`, `sweep-pa --target-cef` and `chain` on a generated
    chain file.  Some read a generated --scenario file, some write --out
    files.  `netsim` is left out so the latency distribution has one mode.
    """

    name = "cli-session"
    op_name = "command"
    unit_name = "commands"
    digest_ops = 5
    min_ops = 110
    n_files = 4

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {k: v for k, v in os.environ.items() if k != "WASTEFACTOR_PRESET_DIR"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        self.env = env
        rng = op_rng(self.name, seed, -1)
        self.scenarios = []
        self.chains: list[tuple[str, int]] = []
        for i in range(self.n_files):
            name = f"link{i}.scenario"
            (work_dir / name).write_text(_scenario_text(rng), encoding="utf-8")
            self.scenarios.append(name)
            name = f"gen{i}.chain"
            text, count = _chain_text(rng)
            (work_dir / name).write_text(text, encoding="utf-8")
            self.chains.append((name, count))

    def make_input(self, index: int) -> Command:
        rng = op_rng(self.name, self.seed, index)
        kind = rng.choices(("link", "table1", "sweep-bw", "sweep-pa", "chain"), (3, 2, 2, 2, 2))[0]
        out = f"out{index % 2}.csv" if rng.random() < 0.5 else None
        argv: list[str] = [kind]
        rows = 0
        comment = None
        if kind == "link":
            if rng.random() < 0.3:
                argv += ["--scenario", rng.choice(self.scenarios)]
            elif rng.random() < 0.5:
                argv += ["--preset", "subthz-140"]
            overrides = [
                f"band.bandwidth={rng.choice((100, 200, 400, 800, 2000))} MHz",
                f"link.distance={rng.uniform(20.0, 300.0):.1f} m",
                f"link.environment={rng.choice(('los', 'nlos'))}",
                f"link.direction={rng.choice(('uplink', 'downlink'))}",
                f"link.tx_power={rng.uniform(-10.0, 20.0):.1f} dBm",
                f"ue.screen_power={rng.uniform(0.1, 1.0):.2f} W",
            ]
            for item in rng.sample(overrides, rng.randint(1, 4)):
                argv += ["--set", item]
            rows = 1
        elif kind == "table1":
            choice = rng.random()
            if choice < 0.25:
                argv += ["--preset", rng.choice(("mmwave-28", "subthz-140"))]
                rows = 4
            elif choice < 0.5:
                argv += ["--scenario", rng.choice(self.scenarios)]
                rows = 4
            else:
                rows = 8
            if rng.random() < 0.5:
                argv += ["--set", f"link.distance={rng.uniform(20.0, 300.0):.1f} m"]
        elif kind in ("sweep-bw", "sweep-pa"):
            points = rng.choice((16, 32, 64))
            argv += ["--direction", rng.choice(("ul", "dl")), "--points", str(points)]
            if rng.random() < 0.3:
                argv += ["--scenario", rng.choice(self.scenarios)]
            if kind == "sweep-bw":
                argv += ["--snr", f"{rng.uniform(5.0, 25.0):.1f}"]
                comment = "# crossover bandwidth_hz="
            else:
                if rng.random() < 0.5:
                    argv += ["--snr", f"{rng.uniform(5.0, 25.0):.1f}"]
                argv += ["--target-cef", f"{10.0 ** rng.uniform(-1.5, 0.5):.4f}"]
                comment = "# matching_efficiency="
            rows = points
        else:
            chain, count = rng.choice(self.chains)
            argv += [chain, "--source-dbm", f"{rng.uniform(-20.0, 10.0):.1f}"]
            rows = count
        if out:
            argv += ["--out", out]
        return Command(tuple(argv), kind, out, rows, comment)

    def run(self, command: Command):
        out_path = self.work_dir / command.out_file if command.out_file else None
        if out_path is not None and out_path.exists():
            out_path.unlink()
        with open(self.work_dir / "stdout.txt", "wb") as stdout, open(
            self.work_dir / "stderr.txt", "wb"
        ) as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "wastefactor.cli", *command.argv],
                cwd=self.work_dir, env=self.env, stdout=stdout, stderr=stderr,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def check(self, command: Command, outputs) -> Checked:
        code, rss_mb = outputs
        stdout = (self.work_dir / "stdout.txt").read_text(encoding="utf-8")
        problems: list[str] = []
        if code != 0:
            stderr = (self.work_dir / "stderr.txt").read_text(encoding="utf-8").strip()
            problems.append(f"exit {code}: {stderr[-300:]}")
            return Checked(1, "", problems, rss_mb)
        csv_text = stdout
        if command.out_file:
            path = self.work_dir / command.out_file
            csv_text = path.read_text(encoding="utf-8") if path.exists() else ""
        lines = csv_text.splitlines()
        if command.kind == "link":
            if len(stdout.splitlines()) != 10:
                problems.append(f"link report has {len(stdout.splitlines())} lines, not 10")
            if command.out_file:
                problems += _csv_problems(lines, LINK_HEADER, command.rows, None)
        elif command.kind == "chain":
            first = stdout.split(maxsplit=1)[:1]
            listed = len(stdout.splitlines()) - 5
            if first != [str(command.rows)] or listed != command.rows:
                problems.append(f"chain of {command.rows} components: says {first}, lists {listed}")
            if command.out_file:
                problems += _csv_problems(lines, CHAIN_HEADER, command.rows, None)
        else:
            header = TABLE_HEADER if command.kind == "table1" else CURVE_HEADER
            problems += _csv_problems(lines, header, command.rows, command.comment)
        text = " ".join(command.argv) + "\n" + stdout
        if command.out_file:
            text += csv_text
        return Checked(1, text, problems, rss_mb)


def _csv_problems(lines: list[str], header: str, rows: int, comment: str | None) -> list[str]:
    """The CSV block starts at the documented header and holds `rows` data
    rows, optionally followed by one comment row starting with `comment`."""
    if header not in lines:
        return [f"documented header {header[:30]}... not written"]
    block = lines[lines.index(header) + 1 :]
    data = [line for line in block if not line.startswith("#")]
    notes = [line for line in block if line.startswith("#")]
    problems = []
    if len(data) != rows:
        problems.append(f"{len(data)} csv rows, expected {rows}")
    if len(notes) > 1 or (notes and (comment is None or not notes[0].startswith(comment))):
        problems.append(f"unexpected comment rows {notes!r}")
    return problems


WORKLOADS = {w.name: w for w in (NetsimSweep, NetsimWide, LinkStudies, CliSession)}
