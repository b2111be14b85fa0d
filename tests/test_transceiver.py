"""Tests for transceiver.py — preset chains, link evaluation, terminal power."""
import math
import sys
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from wastefactor.cascade import (
    Cascade,
    PowerLedger,
    bookkeeping_oracle,
    cascade_gain,
    cascade_waste_factor,
    consumed_power,
    make_directive,
    make_passive,
    waste_figure_db,
)
from wastefactor.linkbudget import (
    db_to_linear,
    dbm_to_watts,
    received_power_dbm,
    shannon_rate_bps,
    thermal_noise_dbm,
)
from wastefactor.transceiver import (
    BASE_STATION,
    USER_EQUIPMENT,
    BandComparison,
    BandProfile,
    LinkReport,
    LinkScenario,
    TerminalProfile,
    as_network,
    band_comparison,
    build_chain,
    evaluate_link,
    mmwave_28,
    preset_scenario,
    rx_power_coefficients,
    subthz_140,
    terminal_power,
    tx_power_coefficients,
)
from wastefactor import transceiver
from wastefactor.sweeps import CrossoverResult, EfficiencyMatch, SweepSample
from wastefactor.transceiver import _receive_side, _transmit_components

# Eight-cell reference table, frozen from back-solved device parameters that
# reproduce the published link budget (rates within 2%, received power within
# 0.2 dB).  Columns: waste figure dB, P_r dBW, rate Gb/s, consumed W, CEF Gb/J.
_CELLS = {
    ("mmwave-28", "uplink", "los"): (52.553701728, -71.051046849, 4.903754027, 5.719472761, 0.857378684),
    ("mmwave-28", "uplink", "nlos"): (76.552745131, -95.051046849, 1.743424556, 5.719463471, 0.304823095),
    ("mmwave-28", "downlink", "los"): (82.221231979, -71.051046849, 4.903754027, 5.162846063, 0.949816045),
    ("mmwave-28", "downlink", "nlos"): (106.221230947, -95.051046849, 1.743424556, 5.162838322, 0.337687227),
    ("subthz-140", "uplink", "los"): (52.242195939, -57.071646762, 54.324546378, 60.116959867, 0.903647598),
    ("subthz-140", "uplink", "nlos"): (76.241168198, -81.071646762, 22.550657714, 60.116727636, 0.375114525),
    ("subthz-140", "downlink", "los"): (82.220907455, -57.071646762, 54.324546378, 25.202310814, 2.155538307),
    ("subthz-140", "downlink", "nlos"): (106.220906423, -81.071646762, 22.550657714, 25.202117289, 0.894792190),
}

_BUILDERS = {"mmwave-28": mmwave_28, "subthz-140": subthz_140}


def _scenario(band, direction, environment):
    return replace(_BUILDERS[band](), direction=direction, environment=environment)


class TestPresets:
    def test_mmwave_28_parameters(self):
        band = mmwave_28().band
        assert band.carrier_frequency_hz == 28e9
        assert band.bandwidth_hz == 400e6
        assert band.pa_efficiency == 0.28
        assert band.lna_fom_per_mw == 24.83
        assert band.lo_power_dbm == 10.0
        assert band.converter_w_per_hz == 2.5e-10

    def test_subthz_140_parameters(self):
        band = subthz_140().band
        assert band.carrier_frequency_hz == 140e9
        assert band.bandwidth_hz == 4e9
        assert band.pa_efficiency == 0.208
        assert band.lna_fom_per_mw == 8.33
        assert band.lo_power_dbm == 19.9
        assert band.converter_w_per_hz == 1e-11

    def test_terminals(self):
        s28, s140 = mmwave_28(), subthz_140()
        assert (s28.bs.element_count, s28.ue.element_count) == (1024, 8)
        assert (s140.bs.element_count, s140.ue.element_count) == (4096, 64)
        for s in (s28, s140):
            assert s.bs.aperture_m2 == 0.5
            assert s.ue.aperture_m2 == 5e-4
            assert s.bs.cooling_overhead == 0.2
            assert s.ue.screen_power_w == 0.5

    def test_lna_dc_from_fom(self):
        # gain 20 dB = 100 linear; DC per LNA = gain / FoM in mW
        band = mmwave_28().band
        assert band.lna_dc_w == pytest.approx(100.0 / 24.83 * 1e-3, rel=1e-12)

    def test_antenna_gains(self):
        assert mmwave_28().bs.antenna_gain_db(28e9) == pytest.approx(45.1698, abs=1e-3)
        assert mmwave_28().ue.antenna_gain_db(28e9) == pytest.approx(15.1698, abs=1e-3)
        assert subthz_140().bs.antenna_gain_db(140e9) == pytest.approx(59.1492, abs=1e-3)
        assert subthz_140().ue.antenna_gain_db(140e9) == pytest.approx(29.1492, abs=1e-3)

    def test_preset_scenario_lookup(self):
        assert preset_scenario("mmwave-28") == mmwave_28()
        assert preset_scenario("subthz-140") == subthz_140()
        with pytest.raises(ValueError):
            preset_scenario("x-band")

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda s: replace(s.band, carrier_frequency_hz=0.0),
             "mmwave-28: carrier frequency must be positive and finite"),
            (lambda s: replace(s.band, bandwidth_hz=-1.0),
             "mmwave-28: bandwidth -1.0 Hz must be positive and finite"),
            (lambda s: replace(s.band, lna_fom_per_mw=math.inf),
             "mmwave-28: LNA figure of merit must be positive and finite"),
            (lambda s: replace(s.band, phase_shifter_loss_db=-1.0),
             "mmwave-28: insertion losses must be >= 0 dB and finite"),
            (lambda s: replace(s.band, noise_figure_db=math.nan),
             "mmwave-28: noise figure must be >= 0 dB and finite"),
            (lambda s: replace(s.ue, role="relay"), "unknown terminal role 'relay'"),
            (lambda s: replace(s.ue, element_count=0), "element count must be >= 1"),
            (lambda s: replace(s.bs, antenna_efficiency=1.5),
             "antenna efficiency must be in (0, 1]"),
            (lambda s: replace(s, environment="indoor"),
             "environment must be 'los' or 'nlos', got 'indoor'"),
            (lambda s: replace(s, direction="sideways"),
             "direction must be 'uplink' or 'downlink', got 'sideways'"),
            (lambda s: replace(as_network(s), los_d2_m=0.0),
             "LoS model distances must be positive and finite"),
            (lambda s: replace(as_network(s), sidelobe_db=math.inf),
             "sidelobe level must be finite"),
        ],
        ids=[
            "carrier", "bandwidth", "lna-fom", "insertion-loss", "noise-figure", "role", "elements",
            "antenna-efficiency", "environment", "direction", "los-distance", "sidelobe",
        ],
    )
    def test_record_check_names_the_field(self, build, message):
        with pytest.raises(ValueError) as err:
            build(mmwave_28())
        assert str(err.value) == message

    def test_as_network_keeps_a_network_scenario(self):
        network = as_network(mmwave_28())
        assert network.cell_radius_m == 65.0
        assert as_network(network) is network

    def test_roles(self):
        s = mmwave_28()
        assert s.direction == "uplink"
        assert s.transmitter is s.ue
        assert s.receiver is s.bs
        down = replace(s, direction="downlink")
        assert down.transmitter is down.bs


class TestChainStructure:
    def test_component_order(self):
        labels = [c.label for c in build_chain(mmwave_28()).components]
        assert labels == [
            "mixer",
            "phase-shifter",
            "pa-bank",
            "tx-antenna",
            "channel",
            "rx-antenna",
            "lna-bank",
            "phase-shifter",
            "mixer",
        ]

    def test_cascade_gain_is_budget_gain(self):
        # chain gain must equal G_t + G_r - PL plus the electronics gains
        s = mmwave_28()
        chain = build_chain(s)
        report = evaluate_link(s)
        assert 10.0 * math.log10(cascade_gain(chain)) == pytest.approx(
            report.cascade_gain_db, abs=1e-9
        )

    def test_pa_bank_nonpath_scales_with_elements(self):
        # bank draw beyond the signal path: (N - 1) elements at P_t / eta each
        s = mmwave_28()
        pa = next(c for c in build_chain(s).components if c.label == "pa-bank")
        p_t = dbm_to_watts(s.tx_power_dbm)
        assert pa.non_path_power == pytest.approx(
            (s.transmitter.element_count - 1) * p_t / s.band.pa_efficiency, rel=1e-12
        )

    def test_lna_bank_draw(self):
        s = mmwave_28()
        lna = next(c for c in build_chain(s).components if c.label == "lna-bank")
        assert lna.non_path_power == pytest.approx(
            s.receiver.element_count * s.band.lna_dc_w, rel=1e-12
        )
        assert lna.waste_factor == 1.0


class TestLinkReports:
    @pytest.mark.parametrize("key", sorted(_CELLS))
    def test_frozen_cells(self, key):
        band, direction, environment = key
        report = evaluate_link(_scenario(band, direction, environment))
        w_db, p_r, rate, p_c, cef = _CELLS[key]
        assert report.waste_figure_db == pytest.approx(w_db, abs=1e-6)
        assert report.p_received_dbw == pytest.approx(p_r, abs=1e-6)
        assert report.rate_bps / 1e9 == pytest.approx(rate, rel=1e-9)
        assert report.p_consumed_w == pytest.approx(p_c, rel=1e-9)
        assert report.cef_bpj / 1e9 == pytest.approx(cef, rel=1e-9)

    @pytest.mark.parametrize("key", sorted(_CELLS))
    def test_cef_identity(self, key):
        report = evaluate_link(_scenario(*key))
        assert report.cef_bpj == report.rate_bps / report.p_consumed_w

    def test_environment_gap_is_structural(self):
        # every pre-channel term scales with path loss, so the NLoS - LoS
        # waste-figure gap tracks the 24 dB path-loss gap almost exactly
        for band in _BUILDERS:
            for direction in ("uplink", "downlink"):
                los = evaluate_link(_scenario(band, direction, "los"))
                nlos = evaluate_link(_scenario(band, direction, "nlos"))
                gap = nlos.waste_figure_db - los.waste_figure_db
                assert gap == pytest.approx(24.0, abs=2e-3)

    def test_direction_swaps_eirp_by_antenna_difference(self):
        up = evaluate_link(_scenario("mmwave-28", "uplink", "los"))
        down = evaluate_link(_scenario("mmwave-28", "downlink", "los"))
        s = mmwave_28()
        gain_delta = s.bs.antenna_gain_db(28e9) - s.ue.antenna_gain_db(28e9)
        assert down.eirp_dbm - up.eirp_dbm == pytest.approx(gain_delta, abs=1e-9)

    def test_waste_figure_invariant_to_tx_power(self):
        base = _scenario("subthz-140", "downlink", "los")
        figures = [
            evaluate_link(replace(base, tx_power_dbm=p)).waste_figure_db
            for p in (-10.0, 0.0, 10.0, 23.0)
        ]
        for figure in figures[1:]:
            assert figure == pytest.approx(figures[0], rel=1e-12)

    def test_consumed_power_monotone_in_elements(self):
        base = _scenario("mmwave-28", "uplink", "los")
        small = evaluate_link(base).p_consumed_w
        big = evaluate_link(
            replace(base, ue=replace(base.ue, element_count=4 * base.ue.element_count))
        ).p_consumed_w
        assert big > small

    def test_snr_matches_noise_floor_arithmetic(self):
        s = _scenario("mmwave-28", "uplink", "los")
        report = evaluate_link(s)
        noise_dbm = thermal_noise_dbm(s.band.bandwidth_hz, s.band.noise_figure_db)
        assert report.snr_db == pytest.approx(
            (report.p_received_dbw + 30.0) - noise_dbm, abs=1e-9
        )

    def test_back_solved_noise_figure_near_ten(self):
        # published rates imply NF ~ 10 dB in every cell; the presets carry
        # exactly 10, so inverting the rate must land within 0.25 dB of it
        targets = {
            ("mmwave-28", "los"): 4.89e9,
            ("mmwave-28", "nlos"): 1.73e9,
            ("subthz-140", "los"): 54.16e9,
            ("subthz-140", "nlos"): 22.39e9,
        }
        for (band, environment), rate in targets.items():
            s = _scenario(band, "uplink", environment)
            report = evaluate_link(s)
            snr_needed_db = 10.0 * math.log10(2.0 ** (rate / s.band.bandwidth_hz) - 1.0)
            implied_nf = s.band.noise_figure_db + (report.snr_db - snr_needed_db)
            assert implied_nf == pytest.approx(10.0, abs=0.25)


def _bands():
    return st.builds(
        BandProfile,
        label=st.just("drawn"),
        carrier_frequency_hz=st.floats(1e9, 1e12),
        bandwidth_hz=st.floats(1e6, 1e10),
        pa_efficiency=st.floats(0.01, 1.0),
        lna_fom_per_mw=st.floats(0.1, 100.0),
        lo_power_dbm=st.floats(-20.0, 30.0),
        converter_w_per_hz=st.floats(0.0, 1e-9),
        pa_gain_db=st.floats(0.0, 40.0),
        lna_gain_db=st.floats(0.0, 40.0),
        mixer_loss_db=st.floats(0.0, 20.0),
        phase_shifter_loss_db=st.floats(0.0, 20.0),
    )


def _terminals():
    return st.builds(
        TerminalProfile,
        role=st.sampled_from((BASE_STATION, USER_EQUIPMENT)),
        aperture_m2=st.floats(1e-5, 1.0),
        element_count=st.integers(1, 4096),
        antenna_efficiency=st.floats(0.05, 1.0),
        cooling_overhead=st.floats(0.0, 1.0),
        screen_power_w=st.floats(0.0, 2.0),
    )


def _oracle_source_power(band, tx_power_w):
    """The power into the mixer that makes the PA emit tx_power_w."""
    losses = db_to_linear(band.mixer_loss_db) * db_to_linear(band.phase_shifter_loss_db)
    return tx_power_w * losses / db_to_linear(band.pa_gain_db)


def _ledger_tx_coefficients(band, terminal):
    """tx_power_coefficients rebuilt uncached: the ledger of the transmit
    chain sized for 1 W radiated, and LO + converters + screen added left
    to right."""
    chain = Cascade(
        components=_transmit_components(
            band.mixer_loss_db,
            band.phase_shifter_loss_db,
            band.pa_gain_db,
            band.pa_efficiency,
            terminal.element_count,
            1.0,
        ),
        source_power=_oracle_source_power(band, 1.0),
    )
    fixed = (
        dbm_to_watts(band.lo_power_dbm)
        + band.converter_w_per_hz * band.bandwidth_hz
        + terminal.screen_power_w
    )
    return bookkeeping_oracle(chain).total_consumed, fixed


def _uncached_receive(band, terminal):
    """The receive stages, built without the cache."""
    return _receive_side.__wrapped__((
        band.carrier_frequency_hz,
        band.lna_gain_db,
        band.lna_fom_per_mw,
        band.phase_shifter_loss_db,
        band.mixer_loss_db,
        terminal.aperture_m2,
        terminal.antenna_efficiency,
        terminal.element_count,
    ))[0]


def _ledger_coefficients(band, terminal):
    """The receive stages and both (slope, fixed) pairs rebuilt uncached:
    float for float, the chain ledgers plus LO + converters + screen added
    left to right on each side."""
    receive = _uncached_receive(band, terminal)
    ledger = bookkeeping_oracle(Cascade(components=receive, source_power=1.0))
    rx_fixed = (
        ledger.total_non_path
        + dbm_to_watts(band.lo_power_dbm)
        + band.converter_w_per_hz * band.bandwidth_hz
        + terminal.screen_power_w
    )
    return (
        receive,
        _ledger_tx_coefficients(band, terminal),
        (sum(ledger.per_stage_dc), rx_fixed),
    )


def _receiving(band, terminal):
    """An uplink from the 28 GHz handset to terminal, which runs the receive
    chain."""
    return LinkScenario(band=band, bs=terminal, ue=mmwave_28().ue)


def _coefficients(band, terminal):
    """The receive stages build_chain splices in, read from the cache first,
    then both (slope, fixed) pairs."""
    return (
        build_chain(_receiving(band, terminal)).components[-4:],
        tx_power_coefficients(band, terminal),
        rx_power_coefficients(band, terminal),
    )


# The fields the coefficient caches are keyed on, and the fields they are not.
_BAND_KEYS = (
    "carrier_frequency_hz",
    "pa_efficiency",
    "lna_fom_per_mw",
    "pa_gain_db",
    "lna_gain_db",
    "mixer_loss_db",
    "phase_shifter_loss_db",
)
_TERMINAL_KEYS = ("aperture_m2", "element_count", "antenna_efficiency")
_BAND_OTHERS = ("label", "bandwidth_hz", "lo_power_dbm", "converter_w_per_hz", "noise_figure_db")
_TERMINAL_OTHERS = ("role", "cooling_overhead", "screen_power_w")
_DB_KEYS = ("pa_gain_db", "lna_gain_db", "mixer_loss_db", "phase_shifter_loss_db")


def _take(target, source, names):
    return replace(target, **{name: getattr(source, name) for name in names})


class TestCoefficientCache:
    """The receive stages and the slopes are cached on the fields they read:
    a hit must return what an uncached rebuild gives, whatever was evaluated
    before it."""

    def test_every_field_is_key_or_not(self):
        assert sorted(_BAND_KEYS + _BAND_OTHERS) == sorted(f.name for f in fields(BandProfile))
        assert sorted(_TERMINAL_KEYS + _TERMINAL_OTHERS) == sorted(
            f.name for f in fields(TerminalProfile)
        )

    @given(_bands(), _terminals(), _bands(), _terminals())
    @settings(max_examples=200, deadline=None)
    def test_hit_across_non_key_fields(self, band, terminal, other_band, other_terminal):
        _coefficients(band, terminal)
        copy_band = _take(band, other_band, _BAND_OTHERS)
        copy_terminal = _take(terminal, other_terminal, _TERMINAL_OTHERS)
        assert _coefficients(copy_band, copy_terminal) == _ledger_coefficients(
            copy_band, copy_terminal
        )

    @given(_bands(), _terminals(), _bands(), _terminals())
    @settings(max_examples=300, deadline=None)
    def test_every_key_field_reaches_the_key(self, band, terminal, other_band, other_terminal):
        _coefficients(band, terminal)
        for name in _BAND_KEYS:
            changed = _take(band, other_band, (name,))
            assert _coefficients(changed, terminal) == _ledger_coefficients(changed, terminal), name
        for name in _TERMINAL_KEYS:
            changed = _take(terminal, other_terminal, (name,))
            assert _coefficients(band, changed) == _ledger_coefficients(band, changed), name

    @given(_bands(), _terminals(), st.sampled_from(_DB_KEYS), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_signed_zero_db(self, band, terminal, name, negative_first):
        zeros = (-0.0, 0.0) if negative_first else (0.0, -0.0)
        for zero in zeros:
            zeroed = replace(band, **{name: zero})
            assert _coefficients(zeroed, terminal) == _ledger_coefficients(zeroed, terminal)

    @given(
        _bands(),
        _terminals(),
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_pa_efficiency_sequence_with_repeats(self, band, terminal, efficiencies, rng):
        sequence = efficiencies + efficiencies
        rng.shuffle(sequence)
        for eta in sequence:
            drawn = replace(band, pa_efficiency=eta)
            assert _coefficients(drawn, terminal) == _ledger_coefficients(drawn, terminal)

    @given(_bands(), _terminals(), st.integers(2**1024, 2**1100))
    @settings(max_examples=50, deadline=None)
    def test_raising_input_raises_on_every_call(self, band, terminal, count):
        # (count - 1) / eta and count x the LNA draw overflow a float
        huge = replace(terminal, element_count=count)
        for _ in range(3):
            with pytest.raises((OverflowError, ValueError)):
                tx_power_coefficients(band, huge)
            with pytest.raises((OverflowError, ValueError)):
                rx_power_coefficients(band, huge)
            with pytest.raises((OverflowError, ValueError)):
                build_chain(_receiving(band, huge))
        assert _coefficients(band, terminal) == _ledger_coefficients(band, terminal)


def _oracle_chain(scenario):
    """The whole chain built stage by stage, uncached, with its checks in
    the order build_chain has always made them."""
    band = scenario.band
    tx, rx = scenario.transmitter, scenario.receiver
    tx_power_w = dbm_to_watts(scenario.tx_power_dbm)
    source_power = _oracle_source_power(band, tx_power_w)
    named = (
        f"transmit power {scenario.tx_power_dbm:g} dBm, mixer loss {band.mixer_loss_db:g} dB,"
        f" phase-shifter loss {band.phase_shifter_loss_db:g} dB and PA gain"
        f" {band.pa_gain_db:g} dB give a source power of {source_power!r} W"
    )
    if source_power == 0.0:
        if tx_power_w == 0.0:
            raise ValueError(
                f"transmit power {scenario.tx_power_dbm:g} dBm is too small to express in watts"
            )
        raise ValueError(f"{named}, which is not positive")
    freq = band.carrier_frequency_hz
    try:
        channel_loss = db_to_linear(scenario.path_loss_db())
    except ValueError as exc:
        raise ValueError(f"path loss over {scenario.distance_m:g} m at {freq:g} Hz: {exc}") from None
    components = (
        *_transmit_components(
            band.mixer_loss_db,
            band.phase_shifter_loss_db,
            band.pa_gain_db,
            band.pa_efficiency,
            tx.element_count,
            tx_power_w,
        ),
        make_directive("tx-antenna", db_to_linear(tx.antenna_gain_db(freq))),
        make_passive("channel", channel_loss),
        *_uncached_receive(band, rx),
    )
    if not math.isfinite(source_power):
        raise ValueError(f"{named}, which is not finite")
    return Cascade(components=components, source_power=source_power)


def _oracle(scenario):
    """evaluate_link as built on the whole chain and the public cascade
    functions: the reference for the chain-free path, raising what it
    raises in the same order."""
    band = scenario.band
    tx, rx = scenario.transmitter, scenario.receiver
    freq = band.carrier_frequency_hz
    path_loss = scenario.path_loss_db()
    gain_tx = tx.antenna_gain_db(freq)
    gain_rx = rx.antenna_gain_db(freq)
    tx_power_w = dbm_to_watts(scenario.tx_power_dbm)
    p_received = received_power_dbm(scenario.tx_power_dbm, gain_tx, gain_rx, path_loss)
    noise = thermal_noise_dbm(band.bandwidth_hz, band.noise_figure_db)
    snr = p_received - noise
    rate = shannon_rate_bps(band.bandwidth_hz, snr)
    chain = _oracle_chain(scenario)
    arrival_w = dbm_to_watts(scenario.tx_power_dbm + gain_tx - path_loss)
    tx_draw = terminal_power(tx, *_ledger_tx_coefficients(band, tx), tx_power_w)
    rx_draw = terminal_power(rx, *rx_power_coefficients(band, rx), arrival_w)
    consumed = tx_draw + rx_draw
    if not math.isfinite(consumed):
        # each terminal whose draw is not finite, else both
        sides = [("transmitting", tx, tx_draw), ("receiving", rx, rx_draw)]
        named = [side for side in sides if not math.isfinite(side[2])] or sides
        raise ValueError("consumed power is not finite: " + " and ".join(
            f"the {side} {terminal.role} draws {draw:g} W with cooling overhead"
            f" {terminal.cooling_overhead:g}, screen power {terminal.screen_power_w:g} W and"
            f" converters {band.converter_w_per_hz:g} W/Hz x {band.bandwidth_hz:g} Hz"
            for side, terminal, draw in named
        ))
    waste_db, gain_db = waste_figure_db(chain), 10.0 * math.log10(cascade_gain(chain))
    if rate == 0.0:
        raise ValueError(
            f"the rate is 0 b/s at SNR {snr:g} dB: bandwidth {band.bandwidth_hz:g} Hz, transmit"
            f" power {scenario.tx_power_dbm:g} dBm, path loss {path_loss:g} dB, transmit gain"
            f" {gain_tx:g} dB, receive gain {gain_rx:g} dB, noise figure {band.noise_figure_db:g} dB"
        )
    if rate / consumed < sys.float_info.min:
        raise ValueError(
            f"the CEF {rate / consumed:g} b/J is too small to express: rate {rate:g} b/s"
            f" over consumed power {consumed:g} W"
        )
    return LinkReport(
        waste_figure_db=waste_db,
        cascade_gain_db=gain_db,
        p_received_dbw=p_received - 30.0,
        snr_db=snr,
        rate_bps=rate,
        p_consumed_w=consumed,
        cef_bpj=rate / consumed,
        path_loss_db=path_loss,
        eirp_dbm=scenario.tx_power_dbm + gain_tx,
    )


def _outcome(fn, scenario):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn(scenario)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _links():
    return st.builds(
        LinkScenario,
        band=_bands(),
        bs=_terminals(),
        ue=_terminals(),
        distance_m=st.floats(1.0, 1e4) | st.floats(1.0, 1e308),
        environment=st.sampled_from(("los", "nlos")),
        direction=st.sampled_from(("uplink", "downlink")),
        tx_power_dbm=st.floats(-60.0, 60.0) | st.floats(-5000.0, 5000.0),
    )


# One fault per entry, each caught by a different check of the chain; pairs
# of them pin which check runs first.  Each maps "band", "tx", "rx" or "link"
# to the fields it changes in the 28 GHz uplink.
_FAULTS = {
    # the SNR overflows before the chain is built
    "snr-overflow": {"tx": {"aperture_m2": 1e300}, "rx": {"aperture_m2": 1e300}},
    # the source power underflows to zero
    "source-underflow": {"link": {"tx_power_dbm": -4000.0}},
    # the transmit power is 1e-33 W, and the PA gain takes the source power to 0 W
    "source-pa-underflow": {"band": {"pa_gain_db": 3000.0}, "link": {"tx_power_dbm": -300.0}},
    # the path loss overflows a ratio
    "path-loss-overflow": {"link": {"distance_m": 1e300}},
    # (count - 1) x power overflows a float in the transmit stages
    "tx-element-overflow": {"tx": {"element_count": 2**1024}},
    # the PA gain is subnormal, so the PA bank's waste 1/eta + 1/G overflows
    "pa-waste-overflow": {"band": {"pa_gain_db": -3090.0}},
    # the PA bank's non-path draw is inf at the transmit power
    "pa-bank-draw": {"tx": {"element_count": 10**300}, "link": {"tx_power_dbm": 200.0}},
    # the aperture gain is subnormal, so the antenna's waste 1/G overflows
    "tx-aperture-underflow": {"tx": {"aperture_m2": 1e-320}},
    # the channel gains power: its loss is below 1
    "channel-below-one": {"band": {"carrier_frequency_hz": 1.0}},
    "rx-aperture-underflow": {"rx": {"aperture_m2": 1e-320}},
    "rx-element-overflow": {"rx": {"element_count": 2**1024}},
    # the losses overflow, so the source power is inf
    "source-overflow": {"band": {"mixer_loss_db": 2000.0, "phase_shifter_loss_db": 2000.0}},
    # the PA bank's draw is finite at the transmit power but inf at 1 W, so
    # only the terminal power model fails
    "pa-bank-draw-at-1w": {"tx": {"element_count": 10**308}},
    # every check of the chain passes, but the receiver's cooling makes its
    # draw, and so the consumed power, inf
    "consumed-overflow": {"rx": {"cooling_overhead": 1e308}},
    # the gain products underflow to zero both ways: the waste factor's walk
    # would divide by the downstream one, and the forward one reaches 0 first
    "downstream-underflow": {
        "band": {"pa_gain_db": -3000.0, "mixer_loss_db": 60.0},
        "link": {"distance_m": 1e45},
    },
    # only the whole chain's gain underflows to zero, and its log would fail
    "gain-underflow": {"band": {"pa_gain_db": -2400.0, "mixer_loss_db": 500.0}},
    # the receive antenna's gain is about 1e-298, so the channel's excess
    # waste over it overflows the waste factor
    "waste-overflow": {"rx": {"aperture_m2": 1e-304}},
    # every check passes, but the SNR is so low that log2(1 + SNR) is 0
    "zero-rate": {"link": {"tx_power_dbm": -3000.0}},
    # a rate of about 1e-288 b/s over an LNA bank that draws about 1e302 W:
    # the CEF underflows to 0 b/J
    "cef-underflow": {"band": {"bandwidth_hz": 1e-291, "lna_fom_per_mw": 1e-300}},
}


def _faulty(*names):
    base = mmwave_28()
    parts = {"band": {}, "tx": {}, "rx": {}, "link": {}}
    for name in names:
        for part, changes in _FAULTS[name].items():
            parts[part].update(changes)
    return replace(
        base,
        band=replace(base.band, **parts["band"]),
        ue=replace(base.ue, **parts["tx"]),
        bs=replace(base.bs, **parts["rx"]),
        **parts["link"],
    )


_FAULT_CASES = [(name,) for name in _FAULTS] + [
    (first, second) for i, first in enumerate(_FAULTS) for second in list(_FAULTS)[i + 1 :]
]


class TestChainFreeEvaluation:
    """evaluate_link walks the cached stages and builds only the
    transmit-antenna and channel stages; it must give the report, or raise
    the error, of the link evaluated on its whole chain."""

    @given(_links())
    @settings(max_examples=400, deadline=None)
    def test_matches_chain_oracle(self, scenario):
        assert _outcome(evaluate_link, scenario) == _outcome(_oracle, scenario)
        assert _outcome(build_chain, scenario) == _outcome(_oracle_chain, scenario)

    def test_warm_call_builds_no_chain(self, monkeypatch):
        scenario = mmwave_28()
        expected = evaluate_link(scenario)  # fills both terminal-side caches

        def refuse(*args, **kwargs):
            raise AssertionError("evaluate_link built a chain")

        monkeypatch.setattr(transceiver, "build_chain", refuse)
        monkeypatch.setattr(transceiver, "Cascade", refuse)
        assert evaluate_link(scenario) == expected

    def test_one_walk_per_evaluation(self, monkeypatch):
        # the report's waste figure and cascade gain are the walk that
        # checks the gain products, not a second walk of the same chain
        walks = []
        walk = transceiver._walk
        monkeypatch.setattr(
            transceiver, "_walk", lambda components: walks.append(components) or walk(components)
        )
        scenarios = (mmwave_28(), subthz_140(), replace(subthz_140(), direction="downlink"))
        for count, scenario in enumerate(scenarios, start=1):
            evaluate_link(scenario)
            assert len(walks) == count

    def test_links_differing_in_one_geometry_field_match_oracle(self):
        # The 28 GHz uplink, then one link per field the path loss and the
        # antenna gains read (ple is the LoS exponent here; the UE transmits,
        # the BS receives), and one per choice of which of them they read;
        # evaluated one after another, twice, each matches the chain oracle
        # while the terminal-side caches hold the entries of the others.
        base = mmwave_28()
        links = [
            base,
            replace(base, band=replace(base.band, carrier_frequency_hz=30e9)),
            replace(base, distance_m=150.0),
            replace(base, ple_los=2.5),
            replace(base, ue=replace(base.ue, aperture_m2=1e-3)),
            replace(base, ue=replace(base.ue, antenna_efficiency=0.5)),
            replace(base, bs=replace(base.bs, aperture_m2=0.25)),
            replace(base, bs=replace(base.bs, antenna_efficiency=0.5)),
            replace(base, direction="downlink"),
            replace(base, environment="nlos"),
        ]
        for scenario in links + links:
            assert evaluate_link(scenario) == _oracle(scenario)
            assert build_chain(scenario) == _oracle_chain(scenario)

    @pytest.mark.parametrize("names", _FAULT_CASES, ids="+".join)
    def test_faults_raise_in_chain_order(self, names):
        scenario = _faulty(*names)
        expected = _outcome(_oracle, scenario)
        assert not isinstance(expected, LinkReport)
        for _ in range(2):
            assert _outcome(evaluate_link, scenario) == expected
        assert _outcome(build_chain, scenario) == _outcome(_oracle_chain, scenario)


# Values _Link.evaluate's callers accept: bandwidths that pass
# _check_bandwidth, efficiencies in (0, 1] and finite transmit powers, with
# extremes at which a point fails (the SNR, rate, PA bank draw, source power
# or watts conversion) mixed in.
_WARM_BANDWIDTHS = st.floats(1e6, 1e11) | st.sampled_from([1e-300, 1e300, 1e308])
_WARM_EFFICIENCIES = st.floats(1e-3, 1.0) | st.sampled_from([5e-324, 1e-300, 1.0])
_WARM_POWERS = st.floats(-60.0, 60.0) | st.sampled_from(
    [-4000.0, -300.0, 200.0, 3000.0, 3200.0, 1e308, -1e308]
)


class TestWarmLink:
    """A link keeps its last operating point (bandwidth, transmit power) and
    its lazy values; whatever it evaluated before, each point must give what
    a fresh link gives."""

    @given(
        _links() | st.sampled_from(sorted(_FAULTS)).map(_faulty),
        st.lists(_WARM_BANDWIDTHS, min_size=1, max_size=3),
        st.lists(_WARM_EFFICIENCIES, min_size=1, max_size=3),
        st.lists(_WARM_POWERS, min_size=1, max_size=3),
        st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_warm_link_matches_a_fresh_one(
        self, scenario, bandwidths, efficiencies, powers, indices
    ):
        # indices into small pools: operating points repeat, with the same
        # and with alternating efficiencies, and failing points fall between
        warm = transceiver._Link(scenario)
        for b, e, p in indices:
            point = (
                bandwidths[b % len(bandwidths)],
                efficiencies[e % len(efficiencies)],
                powers[p % len(powers)],
            )
            assert _outcome(lambda args: warm.evaluate(*args), point) == _outcome(
                lambda args: transceiver._Link(scenario).evaluate(*args), point
            )

    @pytest.mark.parametrize(
        "fault, points, fails",
        [
            # one bandwidth at two powers, then two bandwidths at one power
            (None, [(1e8, 0.0), (1e8, 10.0), (1e8, 0.0), (4e8, 0.0), (1e8, 0.0)], False),
            # the PA bank's draw at 1 W overflows after the operating point is
            # kept, so each repeat reads it and raises at the slope again
            ("pa-bank-draw-at-1w", [(1e8, 0.0), (1e8, 0.0)], True),
        ],
        ids=["fine", "slope-fails"],
    )
    def test_repeated_operating_points(self, fault, points, fails):
        scenario = mmwave_28() if fault is None else _faulty(fault)
        warm = transceiver._Link(scenario)
        for bandwidth, power in points:
            for eta in (0.3, 0.05, 0.3):
                def evaluate(link):
                    return link.evaluate(bandwidth, eta, power)

                expected = _outcome(evaluate, transceiver._Link(scenario))
                assert _outcome(evaluate, warm) == expected
                assert isinstance(expected[0], type) == fails

    def test_lower_efficiency_walks_again(self, monkeypatch):
        # the PA bank's waste 1/eta + 1/G rises as eta falls, and at 1e-305
        # the waste factor overflows: a point walks again only below every
        # efficiency walked before, and a walk that raises is not kept
        scenario = mmwave_28()
        etas = (0.5, 1.0, 0.5, 0.05, 1e-305, 0.3, 1e-305)
        points = [(scenario.band.bandwidth_hz, eta, scenario.tx_power_dbm) for eta in etas]
        expected = [
            _outcome(lambda args: transceiver._Link(scenario).evaluate(*args), point)
            for point in points
        ]
        assert expected[4] == (ValueError, "the waste factor overflows at component 'pa-bank'")
        walks = []
        walk = transceiver._walk
        monkeypatch.setattr(
            transceiver, "_walk", lambda components: walks.append(components) or walk(components)
        )
        warm = transceiver._Link(scenario)
        counts = []
        for point, outcome in zip(points, expected):
            assert _outcome(lambda args: warm.evaluate(*args), point) == outcome
            counts.append(len(walks))
        assert counts == [1, 1, 1, 2, 3, 3, 4]
        assert warm.walk_efficiency == 0.05

    def test_lazy_value_that_fails_raises_on_every_read(self):
        calls = []

        class Holder:
            @transceiver._lazy
            def value(self):
                calls.append(None)
                if len(calls) < 3:
                    raise ValueError(f"failure {len(calls)}")
                return len(calls)

        holder = Holder()
        for attempt in (1, 2):
            with pytest.raises(ValueError, match=f"failure {attempt}"):
                holder.value
            assert "value" not in vars(holder)
        assert holder.value == 3
        assert holder.value == 3 and len(calls) == 3  # kept once it succeeds

        link = transceiver._Link(_faulty("path-loss-overflow"))
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                link.channel_loss
            messages.append(str(info.value))
        assert messages[0] == messages[1] and messages[0].startswith("path loss over 1e+300 m")


class TestTerminalPowerModel:
    def test_consumed_decomposes_into_terminal_shares(self):
        # evaluate_link charges tx slope x transmit power + rx slope x arrival
        # power + fixed draws; rebuild that sum from the coefficient helpers
        for key in sorted(_CELLS):
            s = _scenario(*key)
            report = evaluate_link(s)
            tx_slope, tx_fixed = tx_power_coefficients(s.band, s.transmitter)
            rx_slope, rx_fixed = rx_power_coefficients(s.band, s.receiver)
            p_t = dbm_to_watts(s.tx_power_dbm)
            # arrival power at the receive antenna: P_t + G_t - PL, in watts
            arrival = dbm_to_watts(
                s.tx_power_dbm
                + s.transmitter.antenna_gain_db(s.band.carrier_frequency_hz)
                - s.path_loss_db()
            )
            tx_cool = 1.0 + s.transmitter.cooling_overhead
            rx_cool = 1.0 + s.receiver.cooling_overhead
            expected = tx_cool * (tx_slope * p_t + tx_fixed) + rx_cool * (rx_slope * arrival + rx_fixed)
            assert report.p_consumed_w == expected

    @given(_bands(), _terminals())
    @settings(max_examples=200, deadline=None)
    def test_coefficients_match_inline_sums(self, band, terminal):
        assert _coefficients(band, terminal) == _ledger_coefficients(band, terminal)

    def test_consumed_power_agrees_with_chain_ledger(self):
        # the scenario-level number must equal cascade accounting plus the
        # overheads the chain cannot see (LO, converters, screen, cooling)
        s = _scenario("mmwave-28", "uplink", "los")
        report = evaluate_link(s)
        chain_w = consumed_power(build_chain(s))
        assert report.p_consumed_w > chain_w  # overheads are strictly positive

    def test_downlink_cheaper_than_uplink_at_28(self):
        # the uplink receive side carries the 1024-element BS bank; downlink
        # carries it on transmit where the PA bank dominates instead
        up = evaluate_link(_scenario("mmwave-28", "uplink", "los"))
        down = evaluate_link(_scenario("mmwave-28", "downlink", "los"))
        assert up.p_consumed_w > down.p_consumed_w


class TestBandComparison:
    def test_default_reports_are_read_only(self):
        # every BandComparison() shares its default, so none may change it
        assert BandComparison().reports == {}
        with pytest.raises(TypeError):
            BandComparison().reports["key"] = "value"

    def test_eight_cells_and_orderings(self):
        comparison = band_comparison()
        assert len(comparison.reports) == 8
        r = comparison.reports
        for direction in ("uplink", "downlink"):
            for environment in ("los", "nlos"):
                cef_28 = r[("mmwave-28", direction, environment)].cef_bpj
                cef_140 = r[("subthz-140", direction, environment)].cef_bpj
                assert cef_140 > cef_28
        for band in ("mmwave-28", "subthz-140"):
            assert (
                r[(band, "uplink", "los")].p_consumed_w
                > r[(band, "downlink", "los")].p_consumed_w
            )


# Every output-only record: its fields in order, and the defaults of those
# that have one.
_RECORDS = {
    PowerLedger: (
        ("per_stage_output", "per_stage_dc", "total_signal_path", "total_non_path", "total_consumed"),
        {},
    ),
    LinkReport: (
        (
            "waste_figure_db",
            "cascade_gain_db",
            "p_received_dbw",
            "snr_db",
            "rate_bps",
            "p_consumed_w",
            "cef_bpj",
            "path_loss_db",
            "eirp_dbm",
        ),
        {},
    ),
    BandComparison: (("reports",), {"reports": {}}),
    SweepSample: (("x", "cef_bpj", "rate_bps", "p_consumed_w", "snr_db", "feasible"), {}),
    CrossoverResult: (("found", "x", "cef_bpj"), {"x": None, "cef_bpj": None}),
    EfficiencyMatch: (("found", "efficiency", "cef_bpj"), {"efficiency": None, "cef_bpj": None}),
}


class RecordChecks:
    """The output records are named tuples with the fields, defaults and
    repr they had as frozen dataclasses.  A subclass parametrizes `record`
    over its `records` table; netsim's records are checked in
    test_netsim.py, which needs numpy."""

    records: dict = {}

    def test_fields_and_defaults(self, record):
        names, defaults = self.records[record]
        assert record._fields == names
        assert record._field_defaults == defaults
        assert record(*names) == names

    def test_repr_names_every_field(self, record):
        names, _ = self.records[record]
        values = [float(i) for i in range(len(names))]
        text = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(record(*values)) == f"{record.__name__}({text})"

    def test_replace_changes_one_field(self, record):
        names, _ = self.records[record]
        original = record(*names)
        changed = original._replace(**{names[-1]: "new"})
        assert type(changed) is record
        assert changed == (*names[:-1], "new")
        assert original == names
        with pytest.raises(AttributeError):
            setattr(original, names[0], "other")


@pytest.mark.parametrize("record", _RECORDS, ids=lambda record: record.__name__)
class TestOutputRecords(RecordChecks):
    records = _RECORDS
