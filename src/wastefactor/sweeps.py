"""Parameter sweeps and crossover finding for bandwidth and PA-efficiency studies."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from . import _SWEEPS_NAMES
from .linkbudget import dbm_to_watts, tx_power_for_snr_dbm
from .transceiver import (
    LinkScenario,
    _check_bandwidth,
    _check_pa_efficiency,
    _check_tx_power,
    _Link,
)

__all__ = _SWEEPS_NAMES

SWEEPABLE = ("bandwidth", "pa_efficiency")

CURVE_CSV_HEADER = "x_value,unit,cef_gbpj,rate_gbps,p_consumed_w,snr_db,feasible"

_BISECT_REL_TOL = 1e-3

# Sample points whose EIRP exceeds this are evaluated but flagged infeasible.
_EIRP_CEILING_DBM = 75.0


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep description.

    Bandwidth grids are spaced logarithmically, PA-efficiency grids linearly.
    When snr_target_db is set, transmit power is solved analytically at each
    grid point to hold the target (noise scales with bandwidth, so the solved
    power rises 3.01 dB per bandwidth doubling); points whose required EIRP
    exceeds 75 dBm are evaluated anyway but flagged infeasible.
    """

    scenario: LinkScenario
    parameter: str
    lo: float
    hi: float
    points: int = 64
    snr_target_db: float | None = None

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE:
            raise ValueError(f"parameter must be one of {SWEEPABLE}, got {self.parameter!r}")
        if not (self.lo < self.hi):
            raise ValueError("sweep range must satisfy lo < hi")
        if self.lo <= 0.0:
            raise ValueError("sweep range must be positive")
        if self.points < 2:
            raise ValueError("grid needs at least 2 points")

    @property
    def unit(self) -> str:
        return "Hz" if self.parameter == "bandwidth" else "fraction"


class SweepSample(NamedTuple):
    x: float
    cef_bpj: float
    rate_bps: float
    p_consumed_w: float
    snr_db: float
    feasible: bool


@dataclass(frozen=True)
class Curve:
    """Ordered sweep result; x strictly increasing.

    evaluator re-evaluates the swept scenario at an arbitrary x so crossover
    refinement can bisect between grid points; it is carried alongside the
    samples and takes no part in equality or representation.
    """

    unit: str
    samples: tuple[SweepSample, ...]
    evaluator: Callable[[float], SweepSample] = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        xs = [s.x for s in self.samples]
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("curve x values must be strictly increasing")


class CrossoverResult(NamedTuple):
    found: bool
    x: float | None = None
    cef_bpj: float | None = None


class EfficiencyMatch(NamedTuple):
    found: bool
    efficiency: float | None = None
    cef_bpj: float | None = None


def _grid(spec: SweepSpec) -> list[float]:
    n = spec.points
    if spec.parameter == "bandwidth":
        ratio = spec.hi / spec.lo
        return [spec.lo * ratio ** (i / (n - 1)) for i in range(n)]
    step = (spec.hi - spec.lo) / (n - 1)
    return [spec.lo + step * i for i in range(n)]


def _evaluate_point(
    link: _Link, parameter: str, x: float, snr_target_db: float | None
) -> SweepSample:
    """The link's scenario with the swept parameter set to x, evaluated
    without building it: x is checked as BandProfile checks it, and transmit
    power is solved for the SNR target when one is given."""
    band = link.band
    if parameter == "bandwidth":
        _check_bandwidth(band.label, x)
        bandwidth_hz, pa_efficiency = x, band.pa_efficiency
    else:
        _check_pa_efficiency(band.label, x)
        bandwidth_hz, pa_efficiency = band.bandwidth_hz, x
    if snr_target_db is None:
        tx_power = link.scenario.tx_power_dbm
        _, snr, rate, consumed, eirp = link.evaluate(bandwidth_hz, pa_efficiency, tx_power)
    else:
        # a path loss or gain that fails raises before the target is named
        path_loss, gain_tx, gain_rx = link.path_loss_db, link.tx_gain_db, link.rx_gain_db
        tx_power = tx_power_for_snr_dbm(
            snr_target_db, bandwidth_hz, band.noise_figure_db, path_loss, gain_tx, gain_rx
        )
        try:
            _check_tx_power(tx_power)
            _, snr, rate, consumed, eirp = link.evaluate(bandwidth_hz, pa_efficiency, tx_power)
        except ValueError as exc:
            # the transmit power was derived from the target, so name the
            # target; evaluate converts the power first, so a power that does
            # not convert here is what failed, and its inputs are named too
            try:
                dbm_to_watts(tx_power)
            except ValueError:
                raise ValueError(
                    f"SNR target {snr_target_db:g} dB: the transmit power {tx_power:g} dBm"
                    f" that holds it is too large to express in watts: bandwidth"
                    f" {bandwidth_hz:g} Hz, noise figure {band.noise_figure_db:g} dB, path loss"
                    f" {path_loss:g} dB, transmit gain {gain_tx:g} dB, receive gain {gain_rx:g} dB"
                ) from None
            raise ValueError(f"SNR target {snr_target_db:g} dB: {exc}") from exc
    # by position (x, cef_bpj, rate_bps, p_consumed_w, snr_db, feasible):
    # keywords take twice as long on the path every point runs
    return SweepSample(x, rate / consumed, rate, consumed, snr, eirp <= _EIRP_CEILING_DBM)


def sweep(spec: SweepSpec) -> Curve:
    """Evaluate the grid in order, one sample per grid point, on one link
    that the curve's evaluator goes on using.  A grid between finite ends
    that spaces a point past the floats, or that rounds two finite points to
    one value, raises before any point is evaluated."""
    grid = _grid(spec)
    # a point past an end that is not finite is left to the evaluation,
    # which names it
    if spec.hi < math.inf and max(grid) == math.inf:
        fault = "spaces a point that is not finite: the range is too wide"
    elif any(a >= b for a, b in zip(grid, grid[1:]) if b < math.inf):
        fault = "repeats a value: the range is too narrow for that many points"
    else:
        fault = None
    if fault:
        raise ValueError(
            f"a {spec.points}-point {spec.parameter} grid from {spec.lo!r} to {spec.hi!r}"
            f" ({spec.unit}) {fault}"
        )
    link = _Link(spec.scenario)

    def evaluate(x: float) -> SweepSample:
        return _evaluate_point(link, spec.parameter, x, spec.snr_target_db)

    return Curve(unit=spec.unit, samples=tuple(map(evaluate, grid)), evaluator=evaluate)


def _refine(
    lo: float, hi: float, above: Callable[[float], bool],
    rel_tol: float = _BISECT_REL_TOL, abs_tol: float = 0.0,
) -> float:
    """Smallest x in (lo, hi] where `above` holds, assuming above(hi) and a
    single sign change; bisection until hi - lo <= rel_tol * hi + abs_tol."""
    while (hi - lo) > rel_tol * hi + abs_tol:
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _crossing(
    curve: Curve, on_grid: Callable[[int], bool], between: Callable[[float], bool]
) -> CrossoverResult:
    """Smallest x where a test first holds along `curve`: on_grid(i) on grid
    sample i finds the bracket and `between` (the test at any x) bisects it."""
    samples = curve.samples
    first = next((i for i in range(len(samples)) if on_grid(i)), None)
    if first is None:
        return CrossoverResult(found=False)
    if first == 0:
        return CrossoverResult(found=True, x=samples[0].x, cef_bpj=samples[0].cef_bpj)
    x = _refine(samples[first - 1].x, samples[first].x, between)
    return CrossoverResult(found=True, x=x, cef_bpj=curve.evaluator(x).cef_bpj)


def find_crossover(curve: Curve, reference_cef_bpj: float) -> CrossoverResult:
    """Smallest x where the curve reaches the reference CEF: grid points
    bracket the crossing and the curve's evaluator bisects the bracket."""
    samples, evaluator = curve.samples, curve.evaluator
    return _crossing(
        curve,
        lambda i: samples[i].cef_bpj >= reference_cef_bpj,
        lambda v: evaluator(v).cef_bpj >= reference_cef_bpj,
    )


def find_curve_crossing(a: Curve, b: Curve) -> CrossoverResult:
    """Smallest x where curve `a` overtakes curve `b` on their shared grid."""
    if len(a.samples) != len(b.samples) or any(
        sa.x != sb.x for sa, sb in zip(a.samples, b.samples)
    ):
        raise ValueError("curves must share the same grid")
    return _crossing(
        a,
        lambda i: a.samples[i].cef_bpj >= b.samples[i].cef_bpj,
        lambda v: a.evaluator(v).cef_bpj >= b.evaluator(v).cef_bpj,
    )


def snr_matched_sample(scenario: LinkScenario, snr_target_db: float | None = None) -> SweepSample:
    """Evaluate a scenario at its own bandwidth with the same power-solving
    rules a sweep uses, so crossover references and curves stay comparable."""
    return _evaluate_point(_Link(scenario), "bandwidth", scenario.band.bandwidth_hz, snr_target_db)


def reference_cef(scenario: LinkScenario, pa_efficiency: float | None = None) -> float:
    """CEF of a fixed comparison scenario, optionally at an overridden PA
    efficiency (bits/joule)."""
    if pa_efficiency is None:
        pa_efficiency = scenario.band.pa_efficiency
    return _evaluate_point(_Link(scenario), "pa_efficiency", pa_efficiency, None).cef_bpj


def min_matching_efficiency(
    target_cef_bpj: float,
    scenario: LinkScenario,
    lo: float = 1e-3,
    hi: float = 1.0,
    tol: float = 1e-4,
) -> EfficiencyMatch:
    """Smallest PA efficiency whose CEF reaches the target.

    CEF is monotone increasing in PA efficiency (less waste, same rate), so
    plain bisection suffices; an unreachable target, an infinite one
    included, returns found=False.  A NaN or non-positive target raises
    ValueError: NaN fails every comparison, and every efficiency reaches a
    target of zero or less.
    """
    if not target_cef_bpj > 0.0:
        raise ValueError(f"target CEF must be positive, got {target_cef_bpj!r} b/J")

    link = _Link(scenario)

    def cef_at(eta: float) -> float:
        return _evaluate_point(link, "pa_efficiency", eta, None).cef_bpj

    if cef_at(hi) < target_cef_bpj:
        return EfficiencyMatch(found=False)
    low_cef = cef_at(lo)
    if low_cef >= target_cef_bpj:
        return EfficiencyMatch(found=True, efficiency=lo, cef_bpj=low_cef)
    eta = _refine(lo, hi, lambda v: cef_at(v) >= target_cef_bpj, rel_tol=0.0, abs_tol=tol)
    return EfficiencyMatch(found=True, efficiency=eta, cef_bpj=cef_at(eta))


def curve_csv_rows(curve: Curve) -> Iterable[str]:
    yield CURVE_CSV_HEADER
    for s in curve.samples:
        yield (
            f"{s.x:.10g},{curve.unit},{s.cef_bpj / 1e9:.10g},{s.rate_bps / 1e9:.10g},"
            f"{s.p_consumed_w:.10g},{s.snr_db:.10g},{'true' if s.feasible else 'false'}"
        )
