"""End-to-end transceiver chains: band profiles, link evaluation, band comparison.

The modeled architecture is a direct-conversion phased-array radio at each
end.  On the transmit side the signal runs mixer -> phase shifter -> PA bank
-> antenna; after the propagation channel the receive side runs antenna ->
LNA bank -> phase shifter -> mixer.  Each terminal additionally powers a
local oscillator, data converters scaling with bandwidth, optionally a
screen, and (at a base station) active cooling that multiplies everything
that terminal draws.

Power accounting is split per terminal so cooling and screens land on the
right side of the link, while the waste figure is always computed on the
full source-to-sink cascade including the channel.

`NetworkScenario`, the parameters of the network Monte Carlo, sits here
beside `LinkScenario` so that reading and checking a scenario never imports
numpy; `netsim` runs it and re-exports it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import NamedTuple

from .cascade import (
    Cascade,
    Component,
    _require_non_path,
    _walk,
    bookkeeping_oracle,
    make_amplifier,
    make_directive,
    make_fixed_overhead,
    make_passive,
)
from .linkbudget import (
    BOLTZMANN,
    REFERENCE_TEMP_K,
    aperture_gain_db,
    ci_path_loss_db,
    db_to_linear,
    dbm_to_watts,
    received_power_dbm,
    shannon_rate_bps,
    thermal_noise_dbm,
)

__all__ = [
    "BandProfile",
    "TerminalProfile",
    "LinkScenario",
    "NetworkScenario",
    "as_network",
    "LinkReport",
    "BandComparison",
    "mmwave_28",
    "subthz_140",
    "preset_scenario",
    "build_chain",
    "evaluate_link",
    "band_comparison",
    "terminal_power",
    "tx_power_coefficients",
    "rx_power_coefficients",
]

BASE_STATION = "base-station"
USER_EQUIPMENT = "user-equipment"

# Entries held by each terminal-side cache.  A PA-efficiency grid over four
# element counts needs 256 transmit keys; each bisection adds a few more.
_SLOPE_CACHE_SIZE = 1024

# A drop holds (cells, UEs) float arrays; at this bound one is 7.5 MB for the
# 941 cells of 20 m radius in 1 km2, and a one-cell chunk stays near 1 MB.
_MAX_UES_PER_CELL = 1000


@dataclass(frozen=True)
class BandProfile:
    """Radio hardware parameters tied to one carrier frequency."""

    label: str
    carrier_frequency_hz: float
    bandwidth_hz: float
    pa_efficiency: float
    lna_fom_per_mw: float
    lo_power_dbm: float
    converter_w_per_hz: float
    pa_gain_db: float = 30.0
    lna_gain_db: float = 20.0
    mixer_loss_db: float = 6.0
    phase_shifter_loss_db: float = 10.0
    noise_figure_db: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 < self.carrier_frequency_hz < math.inf:
            raise ValueError(f"{self.label}: carrier frequency must be positive and finite")
        _check_bandwidth(self.label, self.bandwidth_hz)
        _check_pa_efficiency(self.label, self.pa_efficiency)
        if not 0.0 < self.lna_fom_per_mw < math.inf:
            raise ValueError(f"{self.label}: LNA figure of merit must be positive and finite")
        _require_linear(self.label, "LO power", self.lo_power_dbm, "dBm", dbm_to_watts)
        if not 0.0 <= self.converter_w_per_hz < math.inf:
            raise ValueError(f"{self.label}: converter power density must be >= 0 and finite")
        _require_linear(self.label, "PA gain", self.pa_gain_db, "dB", db_to_linear)
        _require_linear(self.label, "LNA gain", self.lna_gain_db, "dB", db_to_linear)
        if not (
            0.0 <= self.mixer_loss_db < math.inf and 0.0 <= self.phase_shifter_loss_db < math.inf
        ):
            raise ValueError(f"{self.label}: insertion losses must be >= 0 dB and finite")
        _require_linear(self.label, "mixer loss", self.mixer_loss_db, "dB", db_to_linear)
        _require_linear(
            self.label, "phase-shifter loss", self.phase_shifter_loss_db, "dB", db_to_linear
        )
        if not 0.0 <= self.noise_figure_db < math.inf:
            raise ValueError(f"{self.label}: noise figure must be >= 0 dB and finite")

    @property
    def lna_dc_w(self) -> float:
        """Supply draw of one LNA: gain_linear / FoM, in watts."""
        return _lna_dc_w(self.lna_gain_db, self.lna_fom_per_mw)


# The checks of the three values a sweep or bisection point sets; the point
# runs the same code as the dataclass it leaves unbuilt.
def _check_bandwidth(label: str, bandwidth_hz: float) -> None:
    if not 0.0 < bandwidth_hz < math.inf:
        raise ValueError(f"{label}: bandwidth must be positive and finite")
    # the product thermal_noise_dbm takes the dBm of
    if BOLTZMANN * REFERENCE_TEMP_K * bandwidth_hz == 0.0:
        raise ValueError(
            f"{label}: bandwidth {bandwidth_hz!r} Hz is too small: "
            "its noise power underflows to 0 W"
        )


def _check_pa_efficiency(label: str, pa_efficiency: float) -> None:
    if not (0.0 < pa_efficiency <= 1.0):
        raise ValueError(f"{label}: PA efficiency must be in (0, 1]")


def _check_tx_power(tx_power_dbm: float) -> None:
    if not math.isfinite(tx_power_dbm):
        raise ValueError("transmit power must be finite")


def _require_linear(label: str, name: str, value: float, unit: str, to_linear) -> None:
    """A dB or dBm value must convert to a positive, finite ratio or wattage."""
    try:
        linear = to_linear(value)
    except ValueError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ValueError(
            f"{label}: {name} {value!r} {unit} must convert to a positive, finite linear value"
        )


def _lna_dc_w(lna_gain_db: float, lna_fom_per_mw: float) -> float:
    return db_to_linear(lna_gain_db) / lna_fom_per_mw * 1e-3


@dataclass(frozen=True)
class TerminalProfile:
    """One end of the link: antenna aperture, array size, local overheads."""

    role: str
    aperture_m2: float
    element_count: int
    antenna_efficiency: float = 0.6
    cooling_overhead: float = 0.0
    screen_power_w: float = 0.0

    def __post_init__(self) -> None:
        if self.role not in (BASE_STATION, USER_EQUIPMENT):
            raise ValueError(f"unknown terminal role {self.role!r}")
        if not 0.0 < self.aperture_m2 < math.inf:
            raise ValueError("aperture must be positive and finite")
        if self.element_count < 1:
            raise ValueError("element count must be >= 1")
        if not (0.0 < self.antenna_efficiency <= 1.0):
            raise ValueError("antenna efficiency must be in (0, 1]")
        if not (0.0 <= self.cooling_overhead < math.inf and 0.0 <= self.screen_power_w < math.inf):
            raise ValueError("cooling overhead and screen power must be >= 0 and finite")

    def antenna_gain_db(self, frequency_hz: float) -> float:
        return aperture_gain_db(self.aperture_m2, frequency_hz, self.antenna_efficiency)


@dataclass(frozen=True)
class LinkScenario:
    """Full parameterization of one link: band, both terminals, geometry."""

    band: BandProfile
    bs: TerminalProfile
    ue: TerminalProfile
    distance_m: float = 100.0
    environment: str = "los"
    direction: str = "uplink"
    tx_power_dbm: float = 0.0
    ple_los: float = 2.0
    ple_nlos: float = 3.2

    def __post_init__(self) -> None:
        if self.environment not in ("los", "nlos"):
            raise ValueError(f"environment must be 'los' or 'nlos', got {self.environment!r}")
        if self.direction not in ("uplink", "downlink"):
            raise ValueError(f"direction must be 'uplink' or 'downlink', got {self.direction!r}")
        if not 1.0 <= self.distance_m < math.inf:
            raise ValueError("distance must be >= 1 m (close-in model reference) and finite")
        _check_tx_power(self.tx_power_dbm)
        if not (0.0 < self.ple_los < math.inf and 0.0 < self.ple_nlos < math.inf):
            raise ValueError("path-loss exponents must be positive and finite")

    @property
    def ple(self) -> float:
        return self.ple_los if self.environment == "los" else self.ple_nlos

    @property
    def transmitter(self) -> TerminalProfile:
        return self.ue if self.direction == "uplink" else self.bs

    @property
    def receiver(self) -> TerminalProfile:
        return self.bs if self.direction == "uplink" else self.ue

    def path_loss_db(self) -> float:
        return ci_path_loss_db(self.band.carrier_frequency_hz, self.distance_m, self.ple)


@dataclass(frozen=True)
class NetworkScenario:
    """Deployment and simulation parameters for one radius."""

    band: BandProfile
    bs: TerminalProfile
    ue: TerminalProfile
    cell_radius_m: float
    area_m2: float = 1e6
    arrays_per_bs: int = 6
    ues_per_cell: int = 15
    target_snr_db: float = 20.0
    los_d1_m: float = 22.0
    los_d2_m: float = 113.4
    ple_los: float = 2.0
    ple_nlos: float = 3.2
    seed: int = 1
    drops: int = 50
    interference: bool = True
    wraparound: bool = False
    sidelobe_db: float = 20.0
    interferer_reach: float = 8.0

    def __post_init__(self) -> None:
        if not (20.0 <= self.cell_radius_m <= 500.0):
            raise ValueError("cell radius must lie in the studied 20-500 m range")
        if not 0.0 < self.area_m2 < math.inf:
            raise ValueError("area must be positive and finite")
        # netsim.hex_layout places its first centre at y = sqrt(3) r / 2 and keeps
        # only centres strictly inside the square.
        if not math.sqrt(3.0) * self.cell_radius_m / 2.0 < math.sqrt(self.area_m2):
            raise ValueError(
                f"area {self.area_m2:g} m2 holds no cell of radius {self.cell_radius_m:g} m"
            )
        if self.arrays_per_bs < 1 or self.ues_per_cell < 1:
            raise ValueError("array and UE counts must be >= 1")
        if self.ues_per_cell > _MAX_UES_PER_CELL:
            raise ValueError(
                f"UEs per cell must be at most {_MAX_UES_PER_CELL}, got {self.ues_per_cell!r}"
            )
        if self.drops < 1:
            raise ValueError("drops must be >= 1")
        if not math.isfinite(self.target_snr_db):
            raise ValueError("target SNR must be finite")
        if not (0.0 < self.los_d1_m < math.inf and 0.0 < self.los_d2_m < math.inf):
            raise ValueError("LoS model distances must be positive and finite")
        if not (0.0 < self.ple_los < math.inf and 0.0 < self.ple_nlos < math.inf):
            raise ValueError("path-loss exponents must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not math.isfinite(self.sidelobe_db):
            raise ValueError("sidelobe level must be finite")
        if not 0.0 < self.interferer_reach < math.inf:
            raise ValueError("interferer reach must be positive and finite")


def as_network(scenario: LinkScenario | NetworkScenario) -> NetworkScenario:
    """A network scenario as is; a link scenario's band and terminals in a
    network of the default 65 m cells."""
    if isinstance(scenario, NetworkScenario):
        return scenario
    return NetworkScenario(band=scenario.band, bs=scenario.bs, ue=scenario.ue, cell_radius_m=65.0)


class LinkReport(NamedTuple):
    """Evaluated link metrics."""

    waste_figure_db: float
    cascade_gain_db: float
    p_received_dbw: float
    snr_db: float
    rate_bps: float
    p_consumed_w: float
    cef_bpj: float
    path_loss_db: float
    eirp_dbm: float


def mmwave_28() -> LinkScenario:
    """28 GHz link defaults: 400 MHz channel, 1024/8-element arrays."""
    band = BandProfile(
        label="mmwave-28",
        carrier_frequency_hz=28e9,
        bandwidth_hz=400e6,
        pa_efficiency=0.28,
        lna_fom_per_mw=24.83,
        lo_power_dbm=10.0,
        converter_w_per_hz=2.5e-10,
    )
    bs = TerminalProfile(
        role=BASE_STATION,
        aperture_m2=0.5,
        element_count=1024,
        cooling_overhead=0.2,
    )
    ue = TerminalProfile(
        role=USER_EQUIPMENT,
        aperture_m2=5e-4,
        element_count=8,
        screen_power_w=0.5,
    )
    return LinkScenario(band=band, bs=bs, ue=ue)


def subthz_140() -> LinkScenario:
    """140 GHz link defaults: 4 GHz channel, 4096/64-element arrays."""
    band = BandProfile(
        label="subthz-140",
        carrier_frequency_hz=140e9,
        bandwidth_hz=4e9,
        pa_efficiency=0.208,
        lna_fom_per_mw=8.33,
        lo_power_dbm=19.9,
        converter_w_per_hz=1e-11,
    )
    bs = TerminalProfile(
        role=BASE_STATION,
        aperture_m2=0.5,
        element_count=4096,
        cooling_overhead=0.2,
    )
    ue = TerminalProfile(
        role=USER_EQUIPMENT,
        aperture_m2=5e-4,
        element_count=64,
        screen_power_w=0.5,
    )
    return LinkScenario(band=band, bs=bs, ue=ue)


PRESETS = {
    "mmwave-28": mmwave_28,
    "subthz-140": subthz_140,
}


def preset_scenario(name: str) -> LinkScenario:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


def _tx_fields(band: BandProfile, terminal: TerminalProfile, pa_efficiency: float) -> tuple:
    """The fields the transmit chain reads, at the given PA efficiency: the
    arguments of _transmit_components before the transmit power, and so the
    key of the _transmit_side cache."""
    return (
        band.mixer_loss_db,
        band.phase_shifter_loss_db,
        band.pa_gain_db,
        pa_efficiency,
        terminal.element_count,
    )


def _rx_fields(band: BandProfile, terminal: TerminalProfile) -> tuple:
    """The fields the receive chain reads, and so the key of the
    _receive_side cache."""
    return (
        band.carrier_frequency_hz,
        band.lna_gain_db,
        band.lna_fom_per_mw,
        band.phase_shifter_loss_db,
        band.mixer_loss_db,
        terminal.aperture_m2,
        terminal.antenna_efficiency,
        terminal.element_count,
    )


def _transmit_components(
    mixer_loss_db: float,
    phase_shifter_loss_db: float,
    pa_gain_db: float,
    pa_efficiency: float,
    element_count: int,
    tx_power_w: float,
) -> tuple[Component, ...]:
    """Mixer, phase shifter, and PA bank, sized so the PA emits tx_power_w.

    The array's parallel amplifiers share one waste factor; the signal path
    carries one element's output and the remaining element_count - 1 branches
    are charged on the PA's non-path ledger so the bank's total supply draw
    is element_count * tx_power / efficiency.
    """
    pa_gain = db_to_linear(pa_gain_db)
    bank_extra = _bank_extra(pa_efficiency, element_count, tx_power_w)
    return (
        make_passive("mixer", db_to_linear(mixer_loss_db)),
        make_passive("phase-shifter", db_to_linear(phase_shifter_loss_db)),
        make_amplifier("pa-bank", pa_gain, pa_efficiency, non_path_power=bank_extra),
    )


def _bank_extra(pa_efficiency: float, element_count: int, tx_power_w: float) -> float:
    """Supply drawn by the element_count - 1 PA branches off the signal path."""
    return (element_count - 1) * tx_power_w / pa_efficiency


def _insertion_loss(mixer_loss_db: float, phase_shifter_loss_db: float) -> float:
    """The linear loss ahead of the PA: mixer times phase shifter."""
    return db_to_linear(mixer_loss_db) * db_to_linear(phase_shifter_loss_db)


def _source_power_w(insertion_loss: float, pa_gain: float, tx_power_w: float) -> float:
    # The chain starts at the upconverter input; losses ahead of the PA and
    # the PA gain cancel so the PA output is exactly the radiated power.
    return tx_power_w * insertion_loss / pa_gain


class _Link:
    """One scenario's link, and what every evaluation of it shares: the
    linear insertion loss ahead of the PA and PA gain (the source power's
    operands) and the LO power in watts, set once, as BandProfile has shown
    they convert; then the path loss, both antenna gains, the channel loss,
    the receive side's cache entry and the frozen stages from the transmit
    antenna to the sink (`stages`), each computed on first use and kept
    only if it succeeds, so a failure raises again, at its own step of
    build_chain's check order, on every call that reaches it.  The first
    point that passes those checks walks the chain once and keeps the
    walk's (waste factor, gain) in `walk`.  evaluate_link and build_chain
    build one per call; a sweep builds one per curve and evaluates every
    point on it.
    """

    def __init__(self, scenario: LinkScenario) -> None:
        self.scenario = scenario
        self.band = band = scenario.band
        self.tx = scenario.transmitter
        self.rx = scenario.receiver
        self.insertion_loss = _insertion_loss(band.mixer_loss_db, band.phase_shifter_loss_db)
        self.pa_gain = db_to_linear(band.pa_gain_db)
        self.lo_power_w = dbm_to_watts(band.lo_power_dbm)
        self.walk: tuple[float, float] | None = None

    @functools.cached_property
    def path_loss_db(self) -> float:
        return self.scenario.path_loss_db()

    @functools.cached_property
    def tx_gain_db(self) -> float:
        return self.tx.antenna_gain_db(self.band.carrier_frequency_hz)

    @functools.cached_property
    def rx_gain_db(self) -> float:
        return self.rx.antenna_gain_db(self.band.carrier_frequency_hz)

    @functools.cached_property
    def channel_loss(self) -> float:
        try:
            return db_to_linear(self.path_loss_db)
        except ValueError as exc:
            raise ValueError(
                f"path loss over {self.scenario.distance_m:g} m"
                f" at {self.band.carrier_frequency_hz:g} Hz: {exc}"
            ) from None

    @functools.cached_property
    def receive(self) -> tuple:
        return _receive_side(_rx_fields(self.band, self.rx))

    @functools.cached_property
    def stages(self) -> tuple[Component, ...]:
        """The transmit antenna and the channel, then the receive side."""
        return (
            make_directive("tx-antenna", db_to_linear(self.tx_gain_db)),
            make_passive("channel", self.channel_loss),
            *self.receive[0],
        )

    def checked(self, pa_efficiency: float, tx_power_dbm: float, tx_power_w: float) -> tuple:
        """Every check build_chain makes at the given PA efficiency and
        transmit power (tx_power_w is tx_power_dbm in watts), in its order:
        a source power that underflows to zero, a path loss that fails or
        overflows, the transmit side's stage checks and the PA bank's
        non-path draw at tx_power_w, the transmit-antenna and channel
        stages, the receive side, and a source power that is not finite.

        Returns (source power, the transmit side's cache entry).
        """
        band, tx = self.band, self.tx
        source_power = _source_power_w(self.insertion_loss, self.pa_gain, tx_power_w)
        if source_power == 0.0:
            if tx_power_w == 0.0:
                raise ValueError(
                    f"transmit power {tx_power_dbm:g} dBm is too small to express in watts"
                )
            raise self._source_fault(tx_power_dbm, source_power, "is not positive")
        self.channel_loss  # a path loss that fails or overflows raises here
        transmit = _transmit_side(_tx_fields(band, tx, pa_efficiency))
        _require_non_path("pa-bank", _bank_extra(pa_efficiency, tx.element_count, tx_power_w))
        self.stages  # the transmit-antenna, channel and receive side's checks
        if not math.isfinite(source_power):
            raise self._source_fault(tx_power_dbm, source_power, "is not finite")
        return source_power, transmit

    def _source_fault(self, tx_power_dbm: float, source_power: float, fault: str) -> ValueError:
        """A source power the transmit power, both losses and the PA gain
        make unusable, naming all four."""
        band = self.band
        return ValueError(
            f"transmit power {tx_power_dbm:g} dBm, mixer loss {band.mixer_loss_db:g} dB,"
            f" phase-shifter loss {band.phase_shifter_loss_db:g} dB and PA gain"
            f" {band.pa_gain_db:g} dB give a source power of {source_power!r} W, which {fault}"
        )

    def evaluate(
        self, bandwidth_hz: float, pa_efficiency: float, tx_power_dbm: float
    ) -> tuple[float, float, float, float, float]:
        """The link's scenario with its bandwidth, PA efficiency and transmit
        power replaced by the given values, which the caller has checked as
        BandProfile and LinkScenario check them, evaluated up to everything
        but the waste figure and the cascade gain, with every check of
        evaluate_link in its order.

        Returns (received power in dBm, SNR in dB, rate in b/s, consumed
        power in W, EIRP in dBm).  A sweep or bisection point is this and
        nothing more: it builds no report.  The first point to get past the
        consumed power walks the chain at its own PA efficiency and keeps
        the walk; only stage gains enter the gain products, and the PA
        bank's is the PA gain at every efficiency, so that walk checks them
        for every point.  A walk that raises is not kept.
        """
        band, tx, rx = self.band, self.tx, self.rx
        path_loss, gain_tx, gain_rx = self.path_loss_db, self.tx_gain_db, self.rx_gain_db

        # Converted first, so that a transmit power too large for a float is
        # the value an overflow names, not the SNR derived from it.
        tx_power_w = dbm_to_watts(tx_power_dbm)
        p_received = received_power_dbm(tx_power_dbm, gain_tx, gain_rx, path_loss)
        noise = thermal_noise_dbm(bandwidth_hz, band.noise_figure_db)
        snr = p_received - noise
        rate = shannon_rate_bps(bandwidth_hz, snr)

        _, transmit = self.checked(pa_efficiency, tx_power_dbm, tx_power_w)
        _, rx_slope, rx_bank = self.receive
        arrival_w = dbm_to_watts(tx_power_dbm + gain_tx - path_loss)
        # The terminal-power model of tx_/rx_power_coefficients, read from
        # the cache entries checked() has looked up.
        tx_fixed = _fixed_draw(0.0, self.lo_power_w, band, tx, bandwidth_hz)
        tx_draw = terminal_power(tx, transmit.slope, tx_fixed, tx_power_w)
        rx_fixed = _fixed_draw(rx_bank, self.lo_power_w, band, rx, bandwidth_hz)
        rx_draw = terminal_power(rx, rx_slope, rx_fixed, arrival_w)
        consumed = tx_draw + rx_draw
        if not consumed < math.inf:
            raise _consumed_fault(band, bandwidth_hz, tx, tx_draw, rx, rx_draw)
        if self.walk is None:  # a gain product that underflows to 0 raises here
            self.walk = _walk((*transmit.stages, *self.stages))
        return p_received, snr, rate, consumed, tx_power_dbm + gain_tx


def _consumed_fault(
    band: BandProfile, bandwidth_hz: float,
    tx: TerminalProfile, tx_draw: float, rx: TerminalProfile, rx_draw: float,
) -> ValueError:
    """A consumed power that is not finite, naming each terminal whose draw
    is not, or both when only their sum overflows, with what scales a draw:
    the cooling overhead, the screen power and the converters."""
    sides = (("transmitting", tx, tx_draw), ("receiving", rx, rx_draw))
    named = [side for side in sides if not math.isfinite(side[2])] or sides
    return ValueError(
        "consumed power is not finite: "
        + " and ".join(
            f"the {side} {terminal.role} draws {draw:g} W with cooling overhead"
            f" {terminal.cooling_overhead:g}, screen power {terminal.screen_power_w:g} W"
            f" and converters {band.converter_w_per_hz:g} W/Hz x {bandwidth_hz:g} Hz"
            for side, terminal, draw in named
        )
    )


def build_chain(scenario: LinkScenario) -> Cascade:
    """Full source-to-sink cascade: TX chain, antennas, channel, RX chain.

    evaluate_link walks these stages, read from the caches, without building
    a Cascade; this is the inspectable view of the same stages.
    """
    band = scenario.band
    tx_power_w = dbm_to_watts(scenario.tx_power_dbm)
    link = _Link(scenario)
    source_power, transmit = link.checked(band.pa_efficiency, scenario.tx_power_dbm, tx_power_w)
    components = (*_transmit_components(*transmit.fields, tx_power_w), *link.stages)
    return Cascade(components=components, source_power=source_power)


def _fixed_draw(
    start: float,
    lo_power_w: float,
    band: BandProfile,
    terminal: TerminalProfile,
    bandwidth_hz: float,
) -> float:
    """start + LO + converters over bandwidth_hz + screen, added left to
    right, in watts."""
    return (
        start
        + lo_power_w
        + band.converter_w_per_hz * bandwidth_hz
        + terminal.screen_power_w
    )


class _TransmitSide:
    """One transmit key's cache entry: its fields, the mixer, phase shifter
    and PA bank sized for 0 W (`stages`) and the transmit slope.

    The stages' gains and waste factors do not depend on the transmit power.
    Building them at 0 W runs every stage check but the PA bank's non-path
    draw; that one depends on the power and runs per call.
    """

    def __init__(self, fields: tuple) -> None:
        self.fields = fields
        self.stages = _transmit_components(*fields, 0.0)

    @functools.cached_property
    def slope(self) -> float:
        """The ledger total of the same stages sized for 1 W radiated.
        Computed on first read and kept only if it succeeds, so a chain that
        fails its checks at 1 W raises again on every read."""
        mixer_loss_db, phase_shifter_loss_db, pa_gain_db, _, _ = self.fields
        chain = Cascade(
            components=_transmit_components(*self.fields, 1.0),
            source_power=_source_power_w(
                _insertion_loss(mixer_loss_db, phase_shifter_loss_db), db_to_linear(pa_gain_db), 1.0
            ),
        )
        return bookkeeping_oracle(chain).total_consumed


# One entry per transmit key; a miss builds the entry's stages.
_transmit_side = functools.lru_cache(maxsize=_SLOPE_CACHE_SIZE)(_TransmitSide)


@functools.lru_cache(maxsize=_SLOPE_CACHE_SIZE)
def _receive_side(fields: tuple) -> tuple[tuple[Component, ...], float, float]:
    """Receive antenna, LNA bank, phase shifter and mixer for the _rx_fields
    key, and the signal-path and non-path draws of those stages fed 1 W at
    the antenna input.  The stages are frozen, so build_chain and every
    evaluate_link share the cached tuple."""
    (
        carrier_frequency_hz, lna_gain_db, lna_fom_per_mw, phase_shifter_loss_db,
        mixer_loss_db, aperture_m2, antenna_efficiency, element_count,
    ) = fields
    antenna_gain_db = aperture_gain_db(aperture_m2, carrier_frequency_hz, antenna_efficiency)
    lna_gain = db_to_linear(lna_gain_db)
    stages = (
        make_directive("rx-antenna", db_to_linear(antenna_gain_db)),
        make_fixed_overhead(
            "lna-bank", lna_gain, element_count * _lna_dc_w(lna_gain_db, lna_fom_per_mw)
        ),
        make_passive("phase-shifter", db_to_linear(phase_shifter_loss_db)),
        make_passive("mixer", db_to_linear(mixer_loss_db)),
    )
    ledger = bookkeeping_oracle(Cascade(components=stages, source_power=1.0))
    return stages, sum(ledger.per_stage_dc), ledger.total_non_path


def tx_power_coefficients(
    band: BandProfile, terminal: TerminalProfile
) -> tuple[float, float]:
    """(slope, fixed) such that the transmit terminal draws
    slope * tx_power_w + fixed watts before its cooling multiplier.

    The slope depends only on the band's mixer and phase-shifter losses,
    PA gain and PA efficiency and the terminal's element count, and is
    cached on those five fields.  The fixed part (LO, converters x
    bandwidth, screen) is added per call.
    """
    slope = _transmit_side(_tx_fields(band, terminal, band.pa_efficiency)).slope
    return slope, _fixed_draw(
        0.0, dbm_to_watts(band.lo_power_dbm), band, terminal, band.bandwidth_hz
    )


def rx_power_coefficients(
    band: BandProfile, terminal: TerminalProfile
) -> tuple[float, float]:
    """(slope, fixed) such that the receive terminal draws
    slope * arrival_power_w + fixed watts before its cooling multiplier.

    arrival_power_w is the RF power at the antenna input (after path loss,
    before the receive antenna gain); it is not charged to the terminal,
    only the signal-path DC it induces downstream is.

    The slope and the LNA bank's draw depend only on the band's carrier
    frequency, LNA gain, LNA figure of merit, phase-shifter and mixer
    losses and the terminal's aperture, antenna efficiency and element
    count, and are cached on those eight fields.  LO, converters x
    bandwidth and screen are added per call.
    """
    _, slope, bank = _receive_side(_rx_fields(band, terminal))
    return slope, _fixed_draw(
        bank, dbm_to_watts(band.lo_power_dbm), band, terminal, band.bandwidth_hz
    )


def terminal_power(terminal: TerminalProfile, slope: float, fixed: float, signal_w):
    """Everything a terminal draws, cooling included, for the (slope, fixed)
    pair of tx_power_coefficients or rx_power_coefficients.

    signal_w is the transmit power or the arrival power, a float or a numpy
    array; the result has the same shape.
    """
    return (1.0 + terminal.cooling_overhead) * (slope * signal_w + fixed)


def evaluate_link(scenario: LinkScenario) -> LinkReport:
    """Evaluate one link end to end.

    Everything comes from _Link.evaluate, the core a sweep point runs; the
    waste figure and the cascade gain from the walk of the chain it keeps.
    Consumed power is split per terminal so cooling and the screen land on
    the correct side.
    """
    band = scenario.band
    link = _Link(scenario)
    p_received, snr, rate, consumed, eirp = link.evaluate(
        band.bandwidth_hz, band.pa_efficiency, scenario.tx_power_dbm
    )
    waste, gain = link.walk
    return LinkReport(
        waste_figure_db=10.0 * math.log10(waste),
        cascade_gain_db=10.0 * math.log10(gain),
        p_received_dbw=p_received - 30.0,
        snr_db=snr,
        rate_bps=rate,
        p_consumed_w=consumed,
        cef_bpj=rate / consumed,
        path_loss_db=link.path_loss_db,
        eirp_dbm=eirp,
    )


class BandComparison(NamedTuple):
    """The band/direction/environment matrix, keyed by (band, direction,
    environment).  A tuple's default is shared by every instance, so the
    default is an empty read-only mapping."""

    reports: Mapping[tuple[str, str, str], LinkReport] = MappingProxyType({})


def band_comparison(
    scenarios: tuple[LinkScenario, ...] | None = None,
    tx_power_dbm: float = 0.0,
    distance_m: float = 100.0,
) -> BandComparison:
    """Evaluate every direction/environment cell for each band preset."""
    if scenarios is None:
        scenarios = (mmwave_28(), subthz_140())
    reports: dict[tuple[str, str, str], LinkReport] = {}
    for base in scenarios:
        for direction in ("uplink", "downlink"):
            for environment in ("los", "nlos"):
                scenario = replace(
                    base,
                    direction=direction,
                    environment=environment,
                    tx_power_dbm=tx_power_dbm,
                    distance_m=distance_m,
                )
                reports[(base.band.label, direction, environment)] = evaluate_link(scenario)
    return BandComparison(reports=reports)
