"""Tests for sweeps.py — grids, crossover refinement, efficiency matching."""
import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from wastefactor.linkbudget import tx_power_for_snr_dbm
from wastefactor.sweeps import (
    CURVE_CSV_HEADER,
    Curve,
    SweepSample,
    SweepSpec,
    curve_csv_rows,
    find_crossover,
    find_curve_crossing,
    min_matching_efficiency,
    reference_cef,
    snr_matched_sample,
    sweep,
)
from wastefactor import transceiver
from wastefactor.sweeps import _evaluate_point, _grid
from wastefactor.transceiver import evaluate_link, mmwave_28, subthz_140

from test_transceiver import _FAULTS, _faulty

# Frozen study results (64 log points over 0.1-10 GHz, 20 dB target unless
# stated).  Brackets are the meaningful claim; exact values pin regressions.
_DL_CROSSOVER_GHZ = 0.710173649
_UL_CROSSOVER_GHZ = 4.206385902
_SNR_CROSSING_GHZ = 1.848080575
_REF_CEF_DL_GBPJ = 3.083396307
_REF_CEF_UL_GBPJ = 0.467945973
_MATCH_TARGET_GBPJ = 0.708811703
_MATCH_ETA = 0.065510620


def _dl_140():
    return replace(subthz_140(), direction="downlink")


def _bandwidth_spec(direction="downlink", snr=20.0, points=64, lo=0.1e9, hi=10e9):
    scenario = replace(subthz_140(), direction=direction)
    return SweepSpec(
        scenario=scenario, parameter="bandwidth", lo=lo, hi=hi,
        points=points, snr_target_db=snr,
    )


class TestSweepSpecValidation:
    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            SweepSpec(scenario=mmwave_28(), parameter="distance", lo=1.0, hi=2.0)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            SweepSpec(scenario=mmwave_28(), parameter="bandwidth", lo=2e9, hi=1e9)
        with pytest.raises(ValueError):
            SweepSpec(scenario=mmwave_28(), parameter="bandwidth", lo=0.0, hi=1e9)

    def test_single_point_grid(self):
        with pytest.raises(ValueError, match="grid needs at least 2 points"):
            SweepSpec(scenario=mmwave_28(), parameter="bandwidth", lo=1e8, hi=1e9, points=1)

    def test_spacing_defaults(self):
        # bandwidth grids are logarithmic, PA-efficiency grids linear
        bw = sweep(SweepSpec(scenario=mmwave_28(), parameter="bandwidth", lo=1e8, hi=1e9, points=5))
        eta = sweep(
            SweepSpec(scenario=mmwave_28(), parameter="pa_efficiency", lo=0.05, hi=0.5, points=5)
        )
        xs = [s.x for s in bw.samples]
        assert xs[0] == 1e8 and xs[-1] == pytest.approx(1e9, rel=1e-12)
        assert [b / a for a, b in zip(xs, xs[1:])] == pytest.approx([10 ** 0.25] * 4, rel=1e-12)
        xs = [s.x for s in eta.samples]
        assert xs[0] == 0.05 and xs[-1] == pytest.approx(0.5, rel=1e-12)
        assert [b - a for a, b in zip(xs, xs[1:])] == pytest.approx([0.1125] * 4, rel=1e-12)

    def test_curve_requires_increasing_x(self):
        sample = SweepSample(x=1.0, cef_bpj=1.0, rate_bps=1.0, p_consumed_w=1.0,
                             snr_db=0.0, feasible=True)
        with pytest.raises(ValueError):
            Curve(unit="Hz", samples=(sample, sample._replace(x=0.5)), evaluator=lambda x: sample)


class TestSweepEvaluation:
    def test_grid_endpoints_and_size(self):
        curve = sweep(_bandwidth_spec(points=16))
        assert len(curve.samples) == 16
        assert curve.samples[0].x == pytest.approx(0.1e9, rel=1e-12)
        assert curve.samples[-1].x == pytest.approx(10e9, rel=1e-12)

    def test_snr_held_at_target(self):
        curve = sweep(_bandwidth_spec(points=8))
        for sample in curve.samples:
            assert sample.snr_db == pytest.approx(20.0, abs=1e-9)

    @pytest.mark.parametrize(
        "target, message",
        [
            (math.inf, "SNR target inf dB: transmit power must be finite"),
            (1e308,
             "SNR target 1e+308 dB: the transmit power 1e+308 dBm that holds it is too large"
             " to express in watts: bandwidth 4e+09 Hz, noise figure 10 dB, path loss 115.37 dB,"
             " transmit gain 59.1492 dB, receive gain 29.1492 dB"),
        ],
        ids=["inf", "1e308"],
    )
    def test_unusable_solved_power_names_the_target(self, target, message):
        # the solved transmit power fails the scenario check (inf) or the
        # watts conversion (1e308 dBm); either way the target is named
        with pytest.raises(ValueError) as info:
            snr_matched_sample(_dl_140(), snr_target_db=target)
        assert str(info.value) == message

    def test_rate_doubles_with_bandwidth_at_fixed_snr(self):
        scenario = _dl_140()
        b0 = scenario.band.bandwidth_hz
        one = snr_matched_sample(scenario, snr_target_db=20.0)
        two = snr_matched_sample(
            replace(scenario, band=replace(scenario.band, bandwidth_hz=2 * b0)),
            snr_target_db=20.0,
        )
        assert two.rate_bps / one.rate_bps == pytest.approx(2.0, rel=1e-12)

    def test_consumed_power_increases_with_bandwidth(self):
        curve = sweep(_bandwidth_spec(points=16))
        powers = [s.p_consumed_w for s in curve.samples]
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_eirp_ceiling_flags_infeasible(self):
        # 60 dB needs more than the 75 dBm EIRP ceiling at the wide channels
        scenario = _dl_140()
        spec = SweepSpec(
            scenario=scenario, parameter="bandwidth", lo=0.1e9, hi=10e9,
            points=16, snr_target_db=60.0,
        )
        curve = sweep(spec)
        assert sum(not s.feasible for s in curve.samples) == 6
        assert all(math.isfinite(s.cef_bpj) for s in curve.samples)

    def test_evaluator_consistent_with_grid(self):
        curve = sweep(_bandwidth_spec(points=8))
        grid_sample = curve.samples[3]
        again = curve.evaluator(grid_sample.x)
        assert again.cef_bpj == pytest.approx(grid_sample.cef_bpj, rel=1e-12)

    def test_pa_sweep_monotone_cef(self):
        # at fixed transmit power, a more efficient PA always wastes less
        spec = SweepSpec(scenario=_dl_140(), parameter="pa_efficiency",
                         lo=0.05, hi=0.6, points=12)
        curve = sweep(spec)
        cefs = [s.cef_bpj for s in curve.samples]
        assert all(a < b for a, b in zip(cefs, cefs[1:]))


class TestCrossovers:
    def test_downlink_crossover(self):
        curve = sweep(_bandwidth_spec("downlink"))
        reference = snr_matched_sample(
            replace(mmwave_28(), direction="downlink"), snr_target_db=20.0
        )
        assert reference.cef_bpj / 1e9 == pytest.approx(_REF_CEF_DL_GBPJ, rel=1e-6)
        result = find_crossover(curve, reference.cef_bpj)
        assert result.found
        assert 0.5e9 <= result.x <= 2.0e9
        assert result.x / 1e9 == pytest.approx(_DL_CROSSOVER_GHZ, rel=1e-6)
        assert result.cef_bpj >= reference.cef_bpj * (1.0 - 1e-6)

    def test_uplink_crossover(self):
        curve = sweep(_bandwidth_spec("uplink"))
        reference = snr_matched_sample(
            replace(subthz_140(), direction="uplink", band=mmwave_28().band,
                    bs=mmwave_28().bs, ue=mmwave_28().ue),
            snr_target_db=20.0,
        )
        assert reference.cef_bpj / 1e9 == pytest.approx(_REF_CEF_UL_GBPJ, rel=1e-6)
        result = find_crossover(curve, reference.cef_bpj)
        assert result.found
        assert 2.0e9 <= result.x <= 5.0e9
        assert result.x / 1e9 == pytest.approx(_UL_CROSSOVER_GHZ, rel=1e-6)

    def test_crossover_stable_under_grid_refinement(self):
        reference = snr_matched_sample(
            replace(mmwave_28(), direction="downlink"), snr_target_db=20.0
        )
        coarse = find_crossover(sweep(_bandwidth_spec(points=64)), reference.cef_bpj)
        fine = find_crossover(sweep(_bandwidth_spec(points=128)), reference.cef_bpj)
        assert fine.x == pytest.approx(coarse.x, rel=5e-3)

    def test_unreachable_reference(self):
        curve = sweep(_bandwidth_spec(points=8))
        result = find_crossover(curve, 1e18)
        assert not result.found
        assert result.x is None

    def test_curves_on_different_grids(self):
        curve = sweep(_bandwidth_spec(points=4))
        for other in (_bandwidth_spec(points=5), _bandwidth_spec(points=4, hi=20e9)):
            with pytest.raises(ValueError, match="curves must share the same grid"):
                find_curve_crossing(curve, sweep(other))

    def test_snr_target_curves_cross(self):
        c20 = sweep(_bandwidth_spec(snr=20.0))
        c30 = sweep(_bandwidth_spec(snr=30.0))
        crossing = find_curve_crossing(c20, c30)
        assert crossing.found
        assert 0.5e9 <= crossing.x <= 2.0e9
        assert crossing.x / 1e9 == pytest.approx(_SNR_CROSSING_GHZ, rel=1e-6)
        # the 30 dB target wins at small bandwidth, the 20 dB target at large
        assert c30.samples[0].cef_bpj > c20.samples[0].cef_bpj
        assert c30.samples[-1].cef_bpj < c20.samples[-1].cef_bpj


class TestEfficiencyMatching:
    def test_reference_cef_override(self):
        base = reference_cef(_dl_140())
        lower = reference_cef(_dl_140(), pa_efficiency=0.05)
        assert lower < base

    def test_matching_efficiency_frozen(self):
        target = reference_cef(replace(mmwave_28(), direction="downlink"), pa_efficiency=0.2)
        assert target / 1e9 == pytest.approx(_MATCH_TARGET_GBPJ, rel=1e-6)
        match = min_matching_efficiency(target, _dl_140())
        assert match.found
        assert 0.04 <= match.efficiency <= 0.10
        assert match.efficiency == pytest.approx(_MATCH_ETA, abs=2e-4)
        assert match.cef_bpj >= target

    def test_unreachable_target(self):
        assert not min_matching_efficiency(1e18, _dl_140()).found
        assert not min_matching_efficiency(math.inf, _dl_140()).found

    @pytest.mark.parametrize("target", [math.nan, 0.0, -1e9])
    def test_nan_or_non_positive_target_rejected(self, target):
        # NaN fails every comparison, so bisection would report eta = 1;
        # a non-positive target would report the lower bound.
        with pytest.raises(ValueError, match="target CEF"):
            min_matching_efficiency(target, _dl_140())

    def test_trivial_target_returns_floor(self):
        match = min_matching_efficiency(1.0, _dl_140(), lo=0.01)
        assert match.found
        assert match.efficiency == 0.01

    def test_uplink_less_sensitive_than_downlink(self):
        # CEF slope w.r.t. PA efficiency, centered at the matched efficiency
        eta, delta = _MATCH_ETA, 1e-4

        def slope(direction):
            scenario = replace(subthz_140(), direction=direction)
            return (
                reference_cef(scenario, eta + delta)
                - reference_cef(scenario, eta - delta)
            ) / (2.0 * delta)

        assert slope("uplink") < slope("downlink") / 10.0


class TestCurveCsv:
    def test_schema_and_rows(self):
        lines = list(curve_csv_rows(sweep(_bandwidth_spec(points=8))))
        assert lines[0] == CURVE_CSV_HEADER
        assert lines[0] == "x_value,unit,cef_gbpj,rate_gbps,p_consumed_w,snr_db,feasible"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[1] == "Hz"
        assert first[6] in ("true", "false")
        float(first[0]), float(first[2]), float(first[3])  # parseable numerics

    def test_deterministic_output(self):
        a = list(curve_csv_rows(sweep(_bandwidth_spec(points=8))))
        b = list(curve_csv_rows(sweep(_bandwidth_spec(points=8))))
        assert a == b


def _oracle_apply(scenario, parameter, x):
    """A sweep point as a rebuilt scenario: the band and the scenario made
    anew with x set, which reruns both dataclass checks."""
    if parameter == "bandwidth":
        return replace(scenario, band=replace(scenario.band, bandwidth_hz=x))
    return replace(scenario, band=replace(scenario.band, pa_efficiency=x))


def _oracle_point(scenario, x, snr_target_db):
    """A sample of a scenario already set to x through evaluate_link, on a
    scenario rebuilt at the solved transmit power under an SNR target."""
    if snr_target_db is None:
        report = evaluate_link(scenario)
    else:
        band, freq = scenario.band, scenario.band.carrier_frequency_hz
        inputs = (
            band.bandwidth_hz,
            band.noise_figure_db,
            scenario.path_loss_db(),
            scenario.transmitter.antenna_gain_db(freq),
            scenario.receiver.antenna_gain_db(freq),
        )
        tx_power = tx_power_for_snr_dbm(snr_target_db, *inputs)
        try:
            report = evaluate_link(replace(scenario, tx_power_dbm=tx_power))
        except ValueError as exc:
            if str(exc) == f"power {tx_power!r} dBm is too large to express in watts":
                # the watts conversion of the solved power: its inputs are named
                raise ValueError(
                    f"SNR target {snr_target_db:g} dB: the transmit power {tx_power:g} dBm"
                    " that holds it is too large to express in watts: bandwidth {:g} Hz,"
                    " noise figure {:g} dB, path loss {:g} dB, transmit gain {:g} dB,"
                    " receive gain {:g} dB".format(*inputs)
                ) from exc
            raise ValueError(f"SNR target {snr_target_db:g} dB: {exc}") from exc
    return SweepSample(
        x=x,
        cef_bpj=report.cef_bpj,
        rate_bps=report.rate_bps,
        p_consumed_w=report.p_consumed_w,
        snr_db=report.snr_db,
        feasible=report.eirp_dbm <= 75.0,
    )


def _oracle_sample(scenario, parameter, x, snr_target_db):
    return _oracle_point(_oracle_apply(scenario, parameter, x), x, snr_target_db)


def _oracle_reference_cef(scenario, pa_efficiency):
    return evaluate_link(_oracle_apply(scenario, "pa_efficiency", pa_efficiency)).cef_bpj


def _outcome(fn, *args):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


_PRESETS = {"mmwave-28": mmwave_28, "subthz-140": subthz_140}
_RANGES = {"bandwidth": (0.1e9, 10e9), "pa_efficiency": (0.02, 0.6)}
# Swept values a band rejects, or accepts and a link cannot evaluate at
# (the noise power or the PA waste overflows), and SNR targets no float
# transmit power meets.
_BAD_X = (0.0, -1.0, math.inf, -math.inf, math.nan, 1.5, 5e-324)
_BAD_SNR = (math.inf, -math.inf, 1e308, -1e308)


# Faults of the link's geometry, on the 28 GHz uplink (the UE transmits):
# each maps "band", "tx", "rx" or "link" to the fields it changes.  Pairs of
# them pin which check runs first.
_GEOMETRY_FAULTS = {
    # the aperture gain is subnormal, so the antenna's waste 1/G overflows
    "tx-aperture-underflow": {"tx": {"aperture_m2": 1e-320}},
    "rx-aperture-underflow": {"rx": {"aperture_m2": 1e-320}},
    # the channel gains power: its loss is below 1
    "channel-below-one": {"band": {"carrier_frequency_hz": 1.0}},
    # the path loss overflows a ratio
    "path-loss-overflow": {"link": {"distance_m": 1e300}},
}
_GEOMETRY_FAULT_CASES = [(name,) for name in _GEOMETRY_FAULTS] + [
    (first, second)
    for i, first in enumerate(_GEOMETRY_FAULTS)
    for second in list(_GEOMETRY_FAULTS)[i + 1 :]
]


def _geometry_faulty(*names):
    base = mmwave_28()
    parts = {"band": {}, "tx": {}, "rx": {}, "link": {}}
    for name in names:
        for part, changes in _GEOMETRY_FAULTS[name].items():
            parts[part].update(changes)
    return replace(
        base,
        band=replace(base.band, **parts["band"]),
        ue=replace(base.ue, **parts["tx"]),
        bs=replace(base.bs, **parts["rx"]),
        **parts["link"],
    )


# Faults of the whole chain's gain products (test_transceiver._FAULTS), each
# alone and paired with every other fault, in both orders with each other
# (both set the PA gain and the mixer loss, so the later one wins).  Not with
# source-pa-underflow: its PA gain replaces the walk fault's, and with the
# walk fault's mixer loss no PA gain takes a solved transmit power's source
# power to 0 W, so that pair can evaluate.
_WALK_FAULTS = ("gain-underflow", "downstream-underflow")
_WALK_FAULT_CASES = [(name,) for name in _WALK_FAULTS] + [
    (name, other)
    for name in _WALK_FAULTS
    for other in _FAULTS
    if other not in (name, "source-pa-underflow")
]


def _scenarios():
    return st.builds(
        lambda preset, **fields: replace(_PRESETS[preset](), **fields),
        st.sampled_from(sorted(_PRESETS)),
        direction=st.sampled_from(("uplink", "downlink")),
        environment=st.sampled_from(("los", "nlos")),
        distance_m=st.floats(1.0, 1e4),
        tx_power_dbm=st.floats(-60.0, 60.0),
    )


def _off_grid(parameter, u):
    lo, hi = _RANGES[parameter]
    return lo * (hi / lo) ** u if parameter == "bandwidth" else lo + u * (hi - lo)


class TestSweepCoreOracle:
    """Sweep and bisection points are evaluated on the unbuilt scenario with
    the swept value checked as the band checks it: every sample, reference
    and error must be what the rebuilt scenario gives."""

    @given(
        _scenarios(),
        st.sampled_from(sorted(_RANGES)),
        st.none() | st.floats(-30.0, 70.0) | st.sampled_from(_BAD_SNR),
        st.floats(0.0, 1.0).map(lambda u: (True, u)) | st.sampled_from(_BAD_X).map(
            lambda x: (False, x)
        ),
        st.floats(1e-3, 1.0) | st.sampled_from(_BAD_X),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_rebuilt_scenario(self, scenario, parameter, snr, off, eta):
        lo, hi = _RANGES[parameter]
        spec = SweepSpec(
            scenario=scenario, parameter=parameter, lo=lo, hi=hi, points=8, snr_target_db=snr
        )
        expected = [_outcome(_oracle_sample, scenario, parameter, x, snr) for x in _grid(spec)]
        failures = [e for e in expected if not isinstance(e, SweepSample)]
        if failures:
            # a sweep raises what its first failing point raises
            assert _outcome(sweep, spec) == failures[0]
        else:
            curve = sweep(spec)
            assert list(curve.samples) == expected
            between, value = off
            x = _off_grid(parameter, value) if between else value
            assert _outcome(curve.evaluator, x) == _outcome(
                _oracle_sample, scenario, parameter, x, snr
            )
        assert _outcome(snr_matched_sample, scenario, snr) == _outcome(
            _oracle_point, scenario, scenario.band.bandwidth_hz, snr
        )
        assert _outcome(reference_cef, scenario, eta) == _outcome(
            _oracle_reference_cef, scenario, eta
        )
        assert reference_cef(scenario) == evaluate_link(scenario).cef_bpj

    @given(
        _scenarios(),
        st.sampled_from(sorted(_RANGES)),
        st.none() | st.floats(-30.0, 70.0),
        st.lists(
            st.floats(0.0, 1.0).map(lambda u: (True, u))
            | st.sampled_from(_BAD_X).map(lambda x: (False, x)),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_failing_point_leaves_link_as_it_was(self, scenario, parameter, snr, points):
        # one curve's evaluator, fed good and bad swept values in turn: each
        # outcome is the rebuilt scenario's, whatever failed before it
        lo, hi = _RANGES[parameter]
        spec = SweepSpec(
            scenario=scenario, parameter=parameter, lo=lo, hi=hi, points=4, snr_target_db=snr
        )
        curve = _outcome(sweep, spec)
        assume(isinstance(curve, Curve))
        for between, value in points:
            x = _off_grid(parameter, value) if between else value
            assert _outcome(curve.evaluator, x) == _outcome(
                _oracle_sample, scenario, parameter, x, snr
            )

    @pytest.mark.parametrize(
        "parameter, x, message",
        [
            ("bandwidth", math.inf, "subthz-140: bandwidth inf Hz must be positive and finite"),
            ("pa_efficiency", 0.0, "subthz-140: PA efficiency must be in (0, 1]"),
            ("pa_efficiency", 1.5, "subthz-140: PA efficiency must be in (0, 1]"),
            ("pa_efficiency", math.nan, "subthz-140: PA efficiency must be in (0, 1]"),
        ],
        ids=["bandwidth-inf", "eta-0", "eta-1.5", "eta-nan"],
    )
    @pytest.mark.parametrize("snr", [None, 20.0], ids=["fixed-power", "snr-20"])
    def test_unusable_swept_value(self, parameter, x, message, snr):
        expected = (ValueError, message)
        scenario = _dl_140()
        assert _outcome(_oracle_sample, scenario, parameter, x, snr) == expected
        lo, hi = _RANGES[parameter]
        curve = sweep(
            SweepSpec(scenario=scenario, parameter=parameter, lo=lo, hi=hi, points=2,
                      snr_target_db=snr)
        )
        assert _outcome(curve.evaluator, x) == expected
        if parameter == "pa_efficiency":
            assert _outcome(reference_cef, scenario, x) == expected
            assert _outcome(_oracle_reference_cef, scenario, x) == expected

    @pytest.mark.parametrize("names", _GEOMETRY_FAULT_CASES, ids="+".join)
    @pytest.mark.parametrize("snr", [None, 20.0], ids=["fixed-power", "snr-20"])
    def test_geometry_faults_raise_in_chain_order(self, names, snr):
        # the solve raises a path-loss or gain failure before the target is
        # named, and the evaluation the chain's failures in the chain's order
        scenario = _geometry_faulty(*names)
        expected = _outcome(_oracle_point, scenario, scenario.band.bandwidth_hz, snr)
        assert not isinstance(expected, SweepSample)
        for _ in range(2):  # a failure is not kept: the second call fails as the first
            assert _outcome(snr_matched_sample, scenario, snr) == expected
            for parameter, (lo, hi) in _RANGES.items():
                spec = SweepSpec(scenario=scenario, parameter=parameter, lo=lo, hi=hi, points=2,
                                 snr_target_db=snr)
                assert _outcome(sweep, spec) == _outcome(
                    _oracle_sample, scenario, parameter, lo, snr
                )
            assert _outcome(reference_cef, scenario, 0.5) == _outcome(
                _oracle_reference_cef, scenario, 0.5
            )

    @pytest.mark.parametrize("names", _WALK_FAULT_CASES, ids="+".join)
    @pytest.mark.parametrize("snr", [None, 20.0], ids=["fixed-power", "snr-20"])
    def test_walk_faults_raise_in_chain_order(self, names, snr):
        # a gain product that underflows to 0 fails every point of the link,
        # after its consumed power, whatever the swept value; the evaluator
        # is the one a curve of this link would carry
        scenario = _faulty(*names)
        expected = _outcome(_oracle_point, scenario, scenario.band.bandwidth_hz, snr)
        assert not isinstance(expected, SweepSample)
        link = transceiver._Link(scenario)
        eta = scenario.band.pa_efficiency
        for _ in range(2):  # a failure is not kept: the second call fails as the first
            assert _outcome(snr_matched_sample, scenario, snr) == expected
            for parameter, (lo, hi) in _RANGES.items():
                spec = SweepSpec(scenario=scenario, parameter=parameter, lo=lo, hi=hi, points=2,
                                 snr_target_db=snr)
                assert _outcome(sweep, spec) == _outcome(
                    _oracle_sample, scenario, parameter, lo, snr
                )
                x = _off_grid(parameter, 0.5)
                assert _outcome(_evaluate_point, link, parameter, x, snr) == _outcome(
                    _oracle_sample, scenario, parameter, x, snr
                )
            assert _outcome(reference_cef, scenario, 0.5) == _outcome(
                _oracle_reference_cef, scenario, 0.5
            )
            assert _outcome(reference_cef, scenario) == _outcome(
                _oracle_reference_cef, scenario, eta
            )
            # the search evaluates its upper bound first
            assert _outcome(min_matching_efficiency, 1e9, scenario) == _outcome(
                _oracle_reference_cef, scenario, 1.0
            )

    @pytest.mark.parametrize("snr", [None, 20.0], ids=["fixed-power", "snr-20"])
    def test_band_efficiency_the_link_cannot_evaluate_at(self, snr):
        # at the band's own efficiency the PA waste 1/eta overflows, so only
        # points at another efficiency evaluate; the link's gain check must
        # not build the PA bank at the band's efficiency
        scenario = _dl_140()
        scenario = replace(scenario, band=replace(scenario.band, pa_efficiency=5e-324))
        expected = (ValueError, "pa-bank: waste factor must be finite, got inf")
        assert _outcome(_oracle_reference_cef, scenario, 5e-324) == expected
        assert _outcome(reference_cef, scenario) == expected
        spec = SweepSpec(scenario=scenario, parameter="pa_efficiency", lo=0.02, hi=0.6, points=4,
                         snr_target_db=snr)
        assert list(sweep(spec).samples) == [
            _oracle_sample(scenario, "pa_efficiency", x, snr) for x in _grid(spec)
        ]
        assert reference_cef(scenario, 0.5) == _oracle_reference_cef(scenario, 0.5)
        assert min_matching_efficiency(1e9, scenario).found

    def test_bandwidth_grid_overflowing_to_inf(self):
        # sweep-bw --hi-ghz 1e308: the top of the grid is inf Hz
        spec = SweepSpec(scenario=_dl_140(), parameter="bandwidth", lo=1e8, hi=1e308 * 1e9,
                         points=4, snr_target_db=20.0)
        expected = (ValueError, "subthz-140: bandwidth inf Hz must be positive and finite")
        assert _outcome(_oracle_sample, spec.scenario, "bandwidth", spec.hi, 20.0) == expected
        assert _outcome(sweep, spec) == expected

    def test_snr_target_too_large(self):
        # sweep-bw --snr 1e308: the solved power overflows the watts conversion
        scenario = _dl_140()
        expected = _outcome(_oracle_point, scenario, scenario.band.bandwidth_hz, 1e308)
        assert expected == (
            ValueError,
            "SNR target 1e+308 dB: the transmit power 1e+308 dBm that holds it is too large to"
            " express in watts: bandwidth 4e+09 Hz, noise figure 10 dB, path loss 115.37 dB,"
            " transmit gain 59.1492 dB, receive gain 29.1492 dB",
        )
        assert _outcome(snr_matched_sample, scenario, 1e308) == expected
        # the sweep fails at its first grid point, whose bandwidth is named
        spec = _bandwidth_spec(snr=1e308, points=4)
        assert _outcome(sweep, spec) == _outcome(
            _oracle_sample, scenario, "bandwidth", spec.lo, 1e308
        )
        assert "bandwidth 1e+08 Hz," in _outcome(sweep, spec)[1]



class TestWarmSweep:
    def test_warm_sweep_point_rebuilds_nothing(self, monkeypatch):
        # once sweep() has returned, its link holds the geometry and the
        # stages that every further point and bisection of the curve reads
        scenario = _dl_140()
        target = snr_matched_sample(
            replace(mmwave_28(), direction="downlink"), snr_target_db=20.0
        ).cef_bpj
        curves = (
            sweep(_bandwidth_spec(points=16)),
            sweep(_bandwidth_spec(snr=None, points=16)),
            sweep(SweepSpec(scenario=scenario, parameter="pa_efficiency", lo=0.02, hi=0.6,
                            points=16)),
        )
        crossover = find_crossover(curves[0], target)
        assert crossover.found and crossover.x > curves[0].samples[0].x  # it bisects

        def refuse(*args, **kwargs):
            raise AssertionError("a warm sweep point rebuilt its geometry or a stage")

        for name in (
            "ci_path_loss_db", "aperture_gain_db", "make_directive", "make_passive", "Component",
            "build_chain", "Cascade",
        ):
            monkeypatch.setattr(transceiver, name, refuse)
        for curve in curves:
            assert [curve.evaluator(s.x) for s in curve.samples] == list(curve.samples)
        assert find_crossover(curves[0], target) == crossover
        monkeypatch.undo()

        # a warm point makes one cache lookup, a hit on its transmit side,
        # for the stages' checks and the slope alike
        caches = [f for f in vars(transceiver).values() if hasattr(f, "cache_info")]

        def lookups():
            return sum(c.cache_info().hits + c.cache_info().misses for c in caches)

        for curve in curves:
            hits, total = transceiver._transmit_side.cache_info().hits, lookups()
            curve.evaluator(curve.samples[-1].x)
            assert transceiver._transmit_side.cache_info().hits == hits + 1
            assert lookups() == total + 1

        # a matching-efficiency search computes the path loss once, however
        # many points its bisection takes
        calls = []
        path_loss = transceiver.ci_path_loss_db
        monkeypatch.setattr(
            transceiver, "ci_path_loss_db", lambda *args: calls.append(args) or path_loss(*args)
        )
        counts = []
        for tol in (1e-2, 1e-6):
            calls.clear()
            assert min_matching_efficiency(_MATCH_TARGET_GBPJ * 1e9, scenario, tol=tol).found
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_pa_efficiency_sweep_looks_up_its_points_only(self):
        # the link's one walk reads the first point's transmit entry, so a
        # sweep adds one entry per point and none for the gain check
        transceiver._transmit_side.cache_clear()
        spec = SweepSpec(scenario=mmwave_28(), parameter="pa_efficiency", lo=0.1, hi=0.7, points=4)
        sweep(spec)
        assert transceiver._transmit_side.cache_info().currsize == 4
