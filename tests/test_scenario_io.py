"""Tests for scenario_io.py — scenario files, overrides, presets, chain DSL."""
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from wastefactor.cascade import (
    bookkeeping_oracle,
    cascade_gain,
    cascade_waste_factor,
    waste_figure_db,
)
from wastefactor.scenario_io import (
    PRESET_DIR_ENV,
    ScenarioParseError,
    apply_overrides,
    as_network,
    load_scenario_file,
    parse_chain,
    parse_quantity,
    parse_scenario,
    resolve_preset,
    serialize_scenario,
)
from wastefactor.transceiver import (
    LinkScenario,
    NetworkScenario,
    build_chain,
    mmwave_28,
    preset_scenario,
    subthz_140,
)

_GOLDEN = Path(__file__).parent / "golden"

_MESSY_SCENARIO = """\
# demo file: comments, blank lines, and unit variety
[band]
preset = subthz-140   ; start from the 140 GHz profile
bandwidth = 400 MHz

[ue]
screen_power = 750 mW

[link]
distance = 0.2 km
environment = nlos
"""

_UPLINK_28_CHAIN = """\
passive mixer loss=6dB
passive shifter loss=10dB
amp pa gain=30dB eta=0.28
antenna handset area=5cm2 eff=0.6
channel ci f=28GHz d=100m n=2
antenna tower area=0.5m2 eff=0.6
lna front gain=20dB fom=24.83 count=1024
passive shifter2 loss=10dB
passive mixer2 loss=6dB
"""


class TestParseQuantity:
    def test_unit_scaling(self):
        assert parse_quantity(1, "400 MHz", "frequency") == parse_quantity(1, "0.4 GHz", "frequency")
        assert parse_quantity(1, "0.2 km", "distance") == 200.0
        assert parse_quantity(1, "5 cm2", "area") == pytest.approx(5e-4, rel=1e-15)
        assert parse_quantity(1, "2.5 km2", "area") == 2.5e6
        assert parse_quantity(1, "2.5e-10 W/Hz", "power_per_ghz") == 2.5e-10
        assert parse_quantity(1, "250 mW", "power_per_ghz") == 2.5e-10

    def test_no_space_form(self):
        assert parse_quantity(1, "6dB", "db") == 6.0
        assert parse_quantity(1, "28GHz", "frequency") == 28e9

    def test_percent_fraction(self):
        assert parse_quantity(1, "20 %", "fraction") == 0.2
        assert parse_quantity(1, "20%", "fraction") == 0.2
        assert parse_quantity(1, "0.2", "fraction") == 0.2

    def test_db_offsets(self):
        assert parse_quantity(1, "0 dBm", "dbm") == 0.0
        assert parse_quantity(1, "-30 dBW", "dbm") == 0.0

    def test_bare_rejects_units(self):
        with pytest.raises(ScenarioParseError):
            parse_quantity(4, "2 m", "bare")

    def test_dimensioned_requires_unit(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_quantity(7, "0.4", "frequency")
        assert "line 7" in str(err.value)

    def test_wrong_unit_rejected(self):
        with pytest.raises(ScenarioParseError):
            parse_quantity(1, "3 GHz", "distance")

    def test_malformed_number(self):
        with pytest.raises(ScenarioParseError):
            parse_quantity(1, "fast", "frequency")


class TestGrammarTable:
    """Every unit of every quantity kind, pinned to the exact float (sign of
    zero included) or the exact message."""

    @pytest.mark.parametrize(
        "text, kind, expected",
        [
            ("2.5", "bare", 2.5),
            ("-0", "bare", -0.0),
            ("2 m", "bare", "line 1: dimensionless value must not carry a unit, got '2 m'"),
            ("0.2", "fraction", 0.2),
            ("57 %", "fraction", 0.57),  # 57 / 100; 57 * 0.01 is one ulp above
            ("57%", "fraction", 0.57),
            ("-0", "fraction", -0.0),
            ("-0 %", "fraction", -0.0),
            ("0.2 dB", "fraction", "line 1: expected a bare fraction or %, got '0.2 dB'"),
            ("28 GHz", "frequency", 28e9),
            ("400 MHz", "frequency", 4e8),
            ("2.5 kHz", "frequency", 2500.0),
            ("7 Hz", "frequency", 7.0),
            ("-0 GHz", "frequency", -0.0),
            ("1e999 GHz", "frequency", math.inf),
            ("0.4", "frequency", "line 1: '0.4' needs a unit (GHz/MHz/kHz/Hz)"),
            ("3 m", "frequency", "line 1: unit 'm' is not valid here; expected GHz/MHz/kHz/Hz"),
            ("1 W", "power", 1.0),
            ("750 mW", "power", 0.75),
            ("-0 W", "power", -0.0),
            ("1", "power", "line 1: '1' needs a unit (W/mW)"),
            ("1 dBm", "power", "line 1: unit 'dBm' is not valid here; expected W/mW"),
            ("100 m", "distance", 100.0),
            ("0.2 km", "distance", 200.0),
            ("-0 m", "distance", -0.0),
            ("5", "distance", "line 1: '5' needs a unit (m/km)"),
            ("5 m2", "distance", "line 1: unit 'm2' is not valid here; expected m/km"),
            ("0.5 m2", "area", 0.5),
            ("5 cm2", "area", 0.0005),
            ("2.5 km2", "area", 2.5e6),
            ("-0 km2", "area", -0.0),
            ("1", "area", "line 1: '1' needs a unit (m2/cm2/km2)"),
            ("1 m", "area", "line 1: unit 'm' is not valid here; expected m2/cm2/km2"),
            ("1 W", "power_per_ghz", 1e-9),
            ("250 mW", "power_per_ghz", 2.5e-10),
            ("2.5e-10 W/Hz", "power_per_ghz", 2.5e-10),
            ("-0 W/Hz", "power_per_ghz", -0.0),
            ("1", "power_per_ghz", "line 1: '1' needs a unit (W/mW/W/Hz)"),
            ("1 GHz", "power_per_ghz", "line 1: unit 'GHz' is not valid here; expected W/mW/W/Hz"),
            ("6 dB", "db", 6.0),
            ("-0 dB", "db", 0.0),
            ("6", "db", "line 1: '6' needs a unit (dB)"),
            ("6 dBm", "db", "line 1: unit 'dBm' is not valid here; expected dB"),
            ("10 dBm", "dbm", 10.0),
            ("-30 dBW", "dbm", 0.0),
            ("-0 dBm", "dbm", 0.0),
            ("-0 dBW", "dbm", 30.0),
            ("10", "dbm", "line 1: '10' needs a unit (dBm/dBW)"),
            ("1 W", "dbm", "line 1: unit 'W' is not valid here; expected dBm/dBW"),
            ("15 dBi", "dbi", 15.0),
            ("-0 dBi", "dbi", 0.0),
            ("15", "dbi", "line 1: '15' needs a unit (dBi)"),
            ("15 dB", "dbi", "line 1: unit 'dB' is not valid here; expected dBi"),
            ("fast", "frequency", "line 1: malformed quantity 'fast'"),
            ("1.2.3 GHz", "frequency", "line 1: malformed number in '1.2.3 GHz'"),
        ],
    )
    def test_parse(self, text, kind, expected):
        if isinstance(expected, str):
            with pytest.raises(ScenarioParseError) as err:
                parse_quantity(1, text, kind)
            assert str(err.value) == expected
        else:
            value = parse_quantity(1, text, kind)
            assert value == expected
            assert math.copysign(1.0, value) == math.copysign(1.0, expected)

    def test_errors_name_their_source(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_quantity(2, "6", "db", "override")
        assert str(err.value) == "override 2: '6' needs a unit (dB)"

    @pytest.mark.parametrize("name", ["mmwave-28", "subthz-140"])
    @pytest.mark.parametrize("network", [False, True], ids=["link", "network"])
    def test_serialized_presets_match_golden(self, name, network):
        scenario = preset_scenario(name)
        suffix = "-network" if network else ""
        if network:
            scenario = as_network(scenario)
        golden = (_GOLDEN / f"{name}{suffix}.scenario").read_text(encoding="utf-8")
        assert serialize_scenario(scenario) == golden
        assert parse_scenario(golden) == scenario


class TestParseScenario:
    def test_empty_text_is_default_link_preset(self):
        assert parse_scenario("") == mmwave_28()

    def test_network_section_switches_scenario_type(self):
        scenario = parse_scenario("[network]\ncell_radius = 80 m\n")
        assert isinstance(scenario, NetworkScenario)
        assert scenario.cell_radius_m == 80.0
        assert scenario.band == subthz_140().band

    def test_preset_key_selects_base(self):
        scenario = parse_scenario("[band]\npreset = subthz-140\n")
        assert isinstance(scenario, LinkScenario)
        assert scenario.band == subthz_140().band

    def test_equivalent_units_parse_identically(self):
        a = parse_scenario("[band]\nbandwidth = 400 MHz\n")
        b = parse_scenario("[band]\nbandwidth = 0.4 GHz\n")
        assert a.band.bandwidth_hz == b.band.bandwidth_hz

    def test_percent_matches_bare_fraction(self):
        a = parse_scenario("[band]\npa_efficiency = 28 %\n")
        assert a.band.pa_efficiency == mmwave_28().band.pa_efficiency

    def test_messy_file(self):
        scenario = parse_scenario(_MESSY_SCENARIO)
        assert scenario.band.carrier_frequency_hz == 140e9
        assert scenario.band.bandwidth_hz == 400e6
        assert scenario.ue.screen_power_w == 0.75
        assert scenario.distance_m == 200.0
        assert scenario.environment == "nlos"


class TestParseErrors:
    def _error(self, text):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text)
        return str(err.value)

    def test_unknown_section(self):
        assert "line 1" in self._error("[radio]\n")

    def test_unknown_key_with_line(self):
        message = self._error("[band]\n\nfrequenzy = 1 GHz\n")
        assert "line 3" in message and "frequenzy" in message

    def test_duplicate_key(self):
        assert "line 3" in self._error("[band]\nlna_fom = 20\nlna_fom = 21\n")

    def test_duplicate_section(self):
        assert "line 2" in self._error("[band]\n[band]\n")

    def test_malformed_header(self):
        assert "line 1" in self._error("[band\n")

    def test_key_outside_section(self):
        assert "line 1" in self._error("frequency = 1 GHz\n")

    def test_missing_value(self):
        assert "line 2" in self._error("[band]\nfrequency =\n")

    def test_line_without_equals(self):
        assert self._error("[band]\nfrequency 1 GHz\n") == (
            "line 2: expected 'key = value', got 'frequency 1 GHz'"
        )

    def test_field_validation_carries_line(self):
        message = self._error("[band]\npa_efficiency = 1.2\n")
        assert "line 2" in message

    def test_bad_word_choice(self):
        assert "los/nlos" in self._error("[link]\nenvironment = indoor\n")

    def test_bad_bool(self):
        assert "line 2" in self._error("[network]\ninterference = maybe\n")

    def test_bad_int(self):
        assert "line 2" in self._error("[network]\ndrops = 2.5\n")

    def test_link_and_network_conflict(self):
        assert "[link] and [network]" in self._error("[link]\n[network]\n")

    def test_unknown_preset_name(self):
        assert "line 2" in self._error("[band]\npreset = nosuch\n")


class TestRoundTrip:
    def test_presets_round_trip_exactly(self):
        for scenario in (mmwave_28(), subthz_140()):
            assert parse_scenario(serialize_scenario(scenario)) == scenario

    def test_network_round_trip(self):
        scenario = parse_scenario("[network]\ncell_radius = 120 m\ndrops = 7\n")
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    def test_km2_area_reads_but_writes_m2(self):
        scenario = parse_scenario("[network]\narea = 100 km2\n")
        assert scenario.area_m2 == 1e8
        text = serialize_scenario(scenario)
        assert "area = 1e+08 m2" in text
        assert parse_scenario(text) == scenario

    def test_canonical_form_is_fixed_point(self):
        canonical = serialize_scenario(parse_scenario(_MESSY_SCENARIO))
        assert serialize_scenario(parse_scenario(canonical)) == canonical

    def test_canonical_unit_choices(self):
        text = serialize_scenario(mmwave_28())
        assert "frequency = 28 GHz" in text
        assert "bandwidth = 0.4 GHz" in text
        assert "aperture = 5 cm2" in text
        assert "distance = 100 m" in text
        assert "converter_power_per_ghz = 250 mW" in text

    @given(
        bandwidth=st.floats(min_value=1e6, max_value=1e11),
        efficiency=st.floats(min_value=0.01, max_value=1.0),
        converter=st.floats(min_value=1e-15, max_value=1e-8),
        aperture=st.floats(min_value=1e-5, max_value=10.0),
        tx_power=st.floats(min_value=-50.0, max_value=50.0),
        distance=st.floats(min_value=1.0, max_value=1e4),
    )
    def test_round_trip_arbitrary_floats(
        self, bandwidth, efficiency, converter, aperture, tx_power, distance
    ):
        base = mmwave_28()
        scenario = replace(
            base,
            band=replace(
                base.band,
                bandwidth_hz=bandwidth,
                pa_efficiency=efficiency,
                converter_w_per_hz=converter,
            ),
            ue=replace(base.ue, aperture_m2=aperture),
            tx_power_dbm=tx_power,
            distance_m=distance,
        )
        assert parse_scenario(serialize_scenario(scenario)) == scenario


class TestOverrides:
    def test_band_and_link_overrides(self):
        scenario = apply_overrides(
            mmwave_28(), ["band.bandwidth=1 GHz", "link.distance=200 m"]
        )
        assert scenario.band.bandwidth_hz == 1e9
        assert scenario.distance_m == 200.0

    def test_network_override(self):
        scenario = apply_overrides(
            parse_scenario("[network]\n"), ["network.drops=5", "ue.screen_power=1 W"]
        )
        assert scenario.drops == 5
        assert scenario.ue.screen_power_w == 1.0

    def test_fixed_fields_win_and_apply_with_the_network_overrides(self):
        small = parse_scenario("[network]\ncell_radius = 20 m\narea = 3000 m2\n")
        # 3000 m2 holds no 65 m cell; 1 km2 does, and both are set at once
        scenario = apply_overrides(
            small, ["network.area=1 km2", "network.drops=5"], {"cell_radius_m": 65.0, "drops": 2}
        )
        assert (scenario.cell_radius_m, scenario.area_m2, scenario.drops) == (65.0, 1e6, 2)
        # a value that a fixed one replaces is still checked
        with pytest.raises(ScenarioParseError) as err:
            apply_overrides(small, ["network.drops=0"], {"drops": 2})
        assert str(err.value) == "override 1: invalid [network] values: drops must be >= 1"
        # without a [network] override the fixed fields still apply, and a
        # fault of theirs alone is their own ValueError
        assert apply_overrides(small, [], {"drops": 2}).drops == 2
        with pytest.raises(ValueError) as err:
            apply_overrides(small, ["ue.screen_power=1 W"], {"cell_radius_m": 65.0})
        assert not isinstance(err.value, ScenarioParseError)
        assert str(err.value) == "area 3000 m2 holds no cell of radius 65 m"

    def test_malformed_override(self):
        with pytest.raises(ScenarioParseError) as err:
            apply_overrides(mmwave_28(), ["banana"])
        assert "override" in str(err.value)

    def test_unknown_section(self):
        with pytest.raises(ScenarioParseError):
            apply_overrides(mmwave_28(), ["foo.x=1"])

    def test_unknown_key_reports_override_source(self):
        with pytest.raises(ScenarioParseError) as err:
            apply_overrides(mmwave_28(), ["band.frequenzy=1 GHz"])
        assert str(err.value).startswith("override 1")

    def test_scenario_kind_mismatch(self):
        with pytest.raises(ScenarioParseError):
            apply_overrides(mmwave_28(), ["network.drops=5"])
        with pytest.raises(ScenarioParseError):
            apply_overrides(parse_scenario("[network]\n"), ["link.distance=10 m"])

    def test_duplicate_override(self):
        with pytest.raises(ScenarioParseError):
            apply_overrides(mmwave_28(), ["band.bandwidth=1 GHz", "band.bandwidth=2 GHz"])

    def test_overrides_apply_in_the_order_given(self):
        with pytest.raises(ScenarioParseError) as err:
            apply_overrides(mmwave_28(), ["link.environment=indoor", "band.pa_efficiency=1.2"])
        assert str(err.value) == "override 1: environment must be one of los/nlos, got 'indoor'"
        with pytest.raises(ScenarioParseError) as err:
            apply_overrides(mmwave_28(), ["ue.aperture=-1 m2", "bs.aperture=-2 m2"])
        assert str(err.value) == (
            "override 1: invalid [ue] values: aperture must be positive and finite"
        )

    def test_file_sections_apply_in_canonical_order(self):
        text = "[link]\nenvironment = indoor\n[band]\npa_efficiency = 1.2\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text)
        assert str(err.value) == (
            "line 4: invalid [band] values: mmwave-28: PA efficiency must be in (0, 1]"
        )

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("band", "bandwidth", "1 furlong"),
            ("bs", "elements", "2.5"),
            ("link", "environment", "indoor"),
            ("network", "interference", "maybe"),
            ("band", "pa_efficiency", "1.2"),
        ],
    )
    def test_file_and_override_messages_agree(self, section, key, value):
        with pytest.raises(ScenarioParseError) as from_file:
            parse_scenario(f"[{section}]\n{key} = {value}\n")
        base = parse_scenario("[network]\n") if section == "network" else mmwave_28()
        with pytest.raises(ScenarioParseError) as from_override:
            apply_overrides(base, [f"{section}.{key}={value}"])
        file_message, override_message = str(from_file.value), str(from_override.value)
        assert file_message.startswith("line 2: ")
        assert override_message.startswith("override 1: ")
        assert file_message.removeprefix("line 2: ") == override_message.removeprefix("override 1: ")


class TestPresets:
    def test_builtin_names(self):
        assert resolve_preset("mmwave-28") == mmwave_28()
        assert resolve_preset("subthz-140") == subthz_140()

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            resolve_preset("nosuch")

    def test_preset_dir_env(self, tmp_path, monkeypatch):
        custom = replace(mmwave_28(), distance_m=42.0)
        (tmp_path / "bench.scenario").write_text(serialize_scenario(custom), encoding="utf-8")
        monkeypatch.setenv(PRESET_DIR_ENV, str(tmp_path))
        assert resolve_preset("bench") == custom

    def test_builtin_wins_over_env_dir(self, tmp_path, monkeypatch):
        (tmp_path / "mmwave-28.scenario").write_text(
            "[band]\nbandwidth = 1 GHz\n", encoding="utf-8"
        )
        monkeypatch.setenv(PRESET_DIR_ENV, str(tmp_path))
        assert resolve_preset("mmwave-28") == mmwave_28()

    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "case.scenario"
        path.write_text(_MESSY_SCENARIO, encoding="utf-8")
        assert load_scenario_file(str(path)) == parse_scenario(_MESSY_SCENARIO)


class TestChainDsl:
    def test_single_passive(self):
        chain = parse_chain("passive pad loss=6dB\n")
        assert waste_figure_db(chain) == pytest.approx(6.0, abs=1e-9)
        assert chain.components[0].label == "pad"

    def test_component_order_matters(self):
        amp_first = parse_chain("amp a gain=10dB eta=0.5\npassive pad loss=10dB\n")
        pad_first = parse_chain("passive pad loss=10dB\namp a gain=10dB eta=0.5\n")
        assert cascade_waste_factor(amp_first) == pytest.approx(21.0, rel=1e-12)
        assert cascade_waste_factor(pad_first) == pytest.approx(3.0, rel=1e-12)

    def test_full_uplink_chain_matches_preset(self):
        chain = parse_chain(_UPLINK_28_CHAIN)
        built = build_chain(mmwave_28())
        assert waste_figure_db(chain) == pytest.approx(waste_figure_db(built), rel=1e-12)
        assert cascade_gain(chain) == pytest.approx(cascade_gain(built), rel=1e-12)
        assert waste_figure_db(chain) == pytest.approx(52.2, abs=0.5)

    def test_channel_fixed_loss_form(self):
        chain = parse_chain("channel pl=115dB\n")
        assert waste_figure_db(chain) == pytest.approx(115.0, abs=1e-9)

    def test_source_power_flows_to_ledger(self):
        chain = parse_chain("passive pad loss=3dB\n", source_power_w=0.01)
        assert chain.source_power == 0.01
        ledger = bookkeeping_oracle(chain)
        assert ledger.per_stage_output[-1] == pytest.approx(
            0.01 * cascade_gain(chain), rel=1e-12
        )

    def test_comments_and_blanks_ignored(self):
        chain = parse_chain("# front end\n\npassive pad loss=2dB  ; trim\n")
        assert len(chain.components) == 1

    def _error(self, text):
        with pytest.raises(ScenarioParseError) as err:
            parse_chain(text)
        return str(err.value)

    def test_unknown_component(self):
        assert "unknown component" in self._error("resistor r loss=1dB\n")

    def test_missing_name(self):
        assert "name" in self._error("passive loss=6dB\n")

    def test_wrong_field_set(self):
        assert "takes fields" in self._error("amp a gain=10dB\n")
        assert "takes fields" in self._error("antenna x gain=10dBi area=1m2 eff=0.5\n")

    def test_duplicate_channel(self):
        assert "duplicate channel" in self._error("channel pl=100dB\nchannel pl=90dB\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("passive a ci loss=3dB\n", "line 1: expected key=value, got 'ci'"),
            ("amp b ci gain=10dB eta=0.5\n", "line 1: expected key=value, got 'ci'"),
            ("channel ci ci f=28GHz d=10m n=2\n", "line 1: duplicate field 'ci'"),
            ("channel ci=5 f=28GHz d=10m n=2\n", "line 1: ci takes no value, got 'ci=5'"),
            ("channel ci= f=28GHz d=10m n=2\n", "line 1: ci takes no value, got 'ci='"),
        ],
        ids=["passive", "amp", "channel-twice", "channel-valued", "channel-empty-value"],
    )
    def test_ci_selects_a_channel_form_once(self, text, message):
        # `ci` is a bare selector on a channel line only
        assert self._error(text) == message

    def test_aperture_antenna_needs_channel(self):
        assert "channel ci" in self._error("antenna x area=1m2 eff=0.5\n")

    def test_validation_error_carries_line(self):
        message = self._error("# comment\namp a gain=10dB eta=1.2\n")
        assert "line 2" in message

    def test_negative_loss_rejected(self):
        assert "line 1" in self._error("passive pad loss=-3dB\n")
        # below c / (4 pi) = 23.9 MHz the 1 m free-space anchor is a gain
        assert self._error("amp a gain=10dB eta=0.5\nchannel ci f=1MHz d=1m n=2\n").startswith(
            "line 2: channel path loss must be >= 0 dB, got -27.5"
        )

    def test_bad_lna_count(self):
        assert "count" in self._error("lna l gain=20dB fom=24.83 count=0\n")

    def test_empty_chain(self):
        assert "no components" in self._error("# nothing here\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            # a channel's frequency is read before any component is built
            (
                "amp a gain=10dB eta=2x\nchannel ci f=bad d=1m n=2\n",
                "line 2: malformed quantity 'bad'",
            ),
            # the missing channel is reported before the aperture fields are read
            (
                "antenna x area=bad eff=0.5\n",
                "line 1: aperture-form antenna needs a `channel ci` line to fix the frequency",
            ),
            # a gain too large for a ratio is reported before the later fields are read
            (
                "amp a gain=4000dB eta=bad\n",
                "line 1: 4000.0 dB is too large to express as a ratio",
            ),
            (
                "lna l gain=4000dB fom=bad count=x\n",
                "line 1: 4000.0 dB is too large to express as a ratio",
            ),
        ],
    )
    def test_error_order(self, text, message):
        assert self._error(text) == message

    def test_gain_form_antenna(self):
        chain = parse_chain("antenna x gain=15dBi\n")
        assert cascade_gain(chain) == pytest.approx(10 ** 1.5, rel=1e-12)
