"""Cascaded signal-path components: waste factor, gain, and consumed power.

A component is characterised by its linear gain G and its waste factor W,
the ratio of total signal-path power the stage consumes to the signal power
it delivers.  W is 1 for a stage that turns everything it draws into output
signal, equals the insertion loss for a passive attenuator, and grows with
the DC overhead of active stages.  Cascade evaluation walks the chain from
the sink backwards so that each stage's waste is referred to the cascade
output through the gain of everything downstream of it.  A chain whose
gain product, source to sink or sink back to the second stage, underflows
to 0 has no waste factor or gain: each function that walks it raises,
naming the component where the product reaches 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

__all__ = [
    "Component",
    "Cascade",
    "PowerLedger",
    "make_passive",
    "make_amplifier",
    "make_fixed_overhead",
    "make_directive",
    "cascade_gain",
    "cascade_waste_factor",
    "waste_figure_db",
    "consumed_power",
    "bookkeeping_oracle",
    "consumption_view",
]

# Tolerance for the W >= 1/G check; 1/loss round-trips through binary
# floating point with at most a few ulps of error.
_RECIPROCAL_SLACK = 1e-9


@dataclass(frozen=True)
class Component:
    """One stage of a signal path.

    gain is a linear power ratio (> 0) and waste_factor the dimensionless
    consumed-to-delivered ratio (>= 1, and >= 1/gain so the implied DC draw
    is never negative).  non_path_power holds DC in watts drawn by hardware
    hanging off the signal path (amplifier-bank bias, per-element LNAs).
    directive marks stages whose gain is directional concentration rather
    than amplification (antennas); such stages consume nothing.
    """

    label: str
    gain: float
    waste_factor: float
    non_path_power: float = 0.0
    directive: bool = False

    def __post_init__(self) -> None:
        _require_gain(self.label, self.gain)
        if not math.isfinite(self.waste_factor):
            raise ValueError(f"{self.label}: waste factor must be finite, got {self.waste_factor!r}")
        if self.waste_factor < 1.0:
            raise ValueError(f"{self.label}: waste factor {self.waste_factor} is below unity")
        if self.waste_factor * self.gain < 1.0 - _RECIPROCAL_SLACK:
            raise ValueError(
                f"{self.label}: waste factor {self.waste_factor} below 1/gain "
                "would imply a negative DC draw"
            )
        _require_non_path(self.label, self.non_path_power)


def _require_gain(label: str, gain: float) -> None:
    if not (math.isfinite(gain) and gain > 0.0):
        raise ValueError(f"{label}: gain must be positive and finite, got {gain!r}")


def _require_non_path(label: str, power: float) -> None:
    if not (math.isfinite(power) and power >= 0.0):
        raise ValueError(f"{label}: non-path power must be finite and >= 0 W, got {power!r} W")


def _require_source(power: float) -> None:
    if not (math.isfinite(power) and power > 0.0):
        raise ValueError(f"source power must be positive, got {power!r}")


@dataclass(frozen=True)
class Cascade:
    """An ordered signal path, component 1 nearest the source."""

    components: tuple[Component, ...]
    source_power: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("cascade has no components to evaluate")
        _require_source(self.source_power)


@dataclass(frozen=True)
class PowerLedger:
    """Stage-by-stage power bookkeeping for a cascade.

    per_stage_output[i] is the signal power leaving stage i; per_stage_dc[i]
    the supply power that stage draws on the signal path.  All watts.
    """

    per_stage_output: tuple[float, ...]
    per_stage_dc: tuple[float, ...]
    total_signal_path: float
    total_non_path: float
    total_consumed: float


def make_passive(label: str, loss: float) -> Component:
    """Passive device with linear loss L >= 1: gain 1/L, waste factor L."""
    if not (math.isfinite(loss) and loss >= 1.0):
        raise ValueError(f"{label}: passive loss must be >= 1, got {loss!r}")
    return Component(label=label, gain=1.0 / loss, waste_factor=loss)


def make_amplifier(label: str, gain: float, efficiency: float, non_path_power: float = 0.0) -> Component:
    """Amplifier with drain efficiency eta: W = 1/eta + 1/G."""
    if not (0.0 < efficiency <= 1.0):
        raise ValueError(f"{label}: efficiency must be in (0, 1], got {efficiency!r}")
    if not (math.isfinite(gain) and gain > 0.0):
        raise ValueError(f"{label}: gain must be positive, got {gain!r}")
    return Component(
        label=label,
        gain=gain,
        waste_factor=1.0 / efficiency + 1.0 / gain,
        non_path_power=non_path_power,
    )


def make_fixed_overhead(label: str, gain: float, dc_draw: float) -> Component:
    """Gain stage carrying its supply draw on the non-path ledger (W = 1)."""
    return Component(label=label, gain=gain, waste_factor=1.0, non_path_power=dc_draw)


def make_directive(label: str, gain: float) -> Component:
    """Antenna-style stage: directional gain, zero consumption.

    A sub-unity directive gain degenerates to a lossy passive.
    """
    _require_gain(label, gain)
    waste = 1.0 if gain >= 1.0 else 1.0 / gain
    return Component(label=label, gain=gain, waste_factor=waste, directive=True)


def _walk(components: tuple[Component, ...]) -> tuple[float, float]:
    """(waste factor, gain) of a chain, source first.

    The gain is the product of the gains, source to sink.  The waste factor
    walks back from the sink: each stage's excess waste (W_i - 1) is divided
    by the product of the gains downstream of it.  Both products are formed
    here, the forward one first, and the first that underflows to 0 raises,
    naming the component where it does.
    """
    gain = 1.0
    for component in components:
        gain *= component.gain
        if gain == 0.0:
            raise _underflow(component)
    total = components[-1].waste_factor
    downstream = 1.0
    for follower, component in zip(components[:0:-1], components[-2::-1]):
        downstream *= follower.gain
        if downstream == 0.0:
            raise _underflow(follower)
        total += (component.waste_factor - 1.0) / downstream
    return total, gain


def _underflow(component: Component) -> ValueError:
    return ValueError(f"the gain product underflows to 0 at component {component.label!r}")


def cascade_gain(cascade: Cascade) -> float:
    """Product of component gains, source to sink."""
    return _walk(cascade.components)[1]


def cascade_waste_factor(cascade: Cascade) -> float:
    """Waste factor of the whole chain referred to the sink output.

    Each stage's excess waste (W_i - 1) is divided by the gain of every
    stage downstream of it, so losses near the sink cost far more than the
    same losses near the source.  Reordering components changes the result.
    """
    return _walk(cascade.components)[0]


def waste_figure_db(cascade: Cascade) -> float:
    """Waste factor expressed in dB."""
    return 10.0 * math.log10(cascade_waste_factor(cascade))


def consumption_view(cascade: Cascade) -> Cascade:
    """Collapse directive spans so consumed power excludes antenna gain.

    Directional antenna gain raises the signal level without drawing supply
    power, so for consumption purposes each maximal run of consumption-free
    stages containing at least one directive stage (antenna, propagation
    channel, antenna) is folded into a single equivalent attenuator.  Chains
    without directive stages are returned unchanged.

    A folded span with net gain above unity cannot be represented with a
    waste factor of at least one; it is clamped to W = 1, which charges the
    span's output power as if drawn from supply.  Far-field links never hit
    this: path loss always exceeds the combined antenna gains.
    """
    comps = cascade.components
    if not any(c.directive for c in comps):
        return cascade

    def consumption_free(c: Component) -> bool:
        if c.non_path_power != 0.0:
            return False
        return c.directive or abs(c.waste_factor * c.gain - 1.0) <= _RECIPROCAL_SLACK

    merged: list[Component] = []
    for free, group in itertools.groupby(comps, consumption_free):
        run = tuple(group)
        if free and any(c.directive for c in run):
            gain = 1.0
            for c in run:
                gain *= c.gain
            merged.append(make_directive("+".join(c.label for c in run), gain))
        else:
            merged.extend(run)
    return replace(cascade, components=tuple(merged))


def consumed_power(cascade: Cascade) -> float:
    """Total power drawn by the chain: signal path plus non-path overhead.

    The signal-path share is the sink signal power times the waste factor of
    the consumption view of the chain, which for chains without directive
    stages is exactly sink_power * cascade_waste_factor(cascade).
    """
    view = consumption_view(cascade)
    waste, gain = _walk(view.components)
    signal_path = view.source_power * gain * waste
    non_path = sum(c.non_path_power for c in cascade.components)
    return signal_path + non_path


def bookkeeping_oracle(cascade: Cascade) -> PowerLedger:
    """Independent stage-by-stage accounting of the power drawn by a chain.

    Walks the chain forwards, charging each stage its own supply draw
    P_out * (W - 1/G) on top of the signal it passes along.  The source
    power itself counts as consumed.  For chains free of directive stages
    total_signal_path / sink_power reproduces cascade_waste_factor exactly;
    with directive stages embedded in net-lossy spans it reproduces the
    consumption view's waste factor.
    """
    comps = cascade.components
    outputs: list[float] = []
    draws: list[float] = []
    power = cascade.source_power
    for comp in comps:
        power *= comp.gain
        outputs.append(power)
        if comp.directive:
            draws.append(0.0)
        else:
            draws.append(power * (comp.waste_factor - 1.0 / comp.gain))
    total_signal = cascade.source_power + sum(draws)
    total_non_path = sum(c.non_path_power for c in comps)
    return PowerLedger(
        per_stage_output=tuple(outputs),
        per_stage_dc=tuple(draws),
        total_signal_path=total_signal,
        total_non_path=total_non_path,
        total_consumed=total_signal + total_non_path,
    )
