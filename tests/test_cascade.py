"""Tests for cascade.py — waste-factor composition and power bookkeeping."""
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from wastefactor.cascade import (
    Cascade,
    Component,
    bookkeeping_oracle,
    cascade_gain,
    cascade_waste_factor,
    consumed_power,
    consumption_view,
    make_amplifier,
    make_directive,
    make_fixed_overhead,
    make_passive,
    waste_figure_db,
)
from wastefactor.linkbudget import db_to_linear


def _chain(*components: Component, source_power: float = 1.0) -> Cascade:
    return Cascade(components=tuple(components), source_power=source_power)


@st.composite
def _random_cascade(draw, max_size: int = 10):
    n = draw(st.integers(min_value=1, max_value=max_size))
    components = []
    for i in range(n):
        gain = draw(st.floats(min_value=0.01, max_value=100.0,
                              allow_nan=False, allow_infinity=False))
        floor = max(1.0, 1.0 / gain)
        waste = draw(st.floats(min_value=floor, max_value=100.0,
                               allow_nan=False, allow_infinity=False))
        components.append(Component(label=f"c{i}", gain=gain, waste_factor=waste))
    return _chain(*components)


class TestComponentValidation:
    def test_waste_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            Component(label="x", gain=2.0, waste_factor=0.5)

    def test_nonpositive_gain_rejected(self):
        for gain in (0.0, -1.0):
            with pytest.raises(ValueError):
                Component(label="x", gain=gain, waste_factor=2.0)

    def test_energy_conservation_floor(self):
        # delivered power cannot exceed consumed signal-path power: W >= 1/G
        with pytest.raises(ValueError):
            Component(label="x", gain=0.1, waste_factor=1.0)
        Component(label="x", gain=0.1, waste_factor=10.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Component(label="x", gain=math.inf, waste_factor=2.0)
        with pytest.raises(ValueError):
            Component(label="x", gain=1.0, waste_factor=math.nan)

    def test_negative_non_path_power_rejected(self):
        with pytest.raises(ValueError):
            Component(label="x", gain=1.0, waste_factor=1.0, non_path_power=-1e-3)

    def test_empty_cascade_rejected(self):
        with pytest.raises(ValueError):
            cascade_waste_factor(_chain())

    @pytest.mark.parametrize("source_power", [0.0, -1.0, math.inf])
    def test_nonpositive_source_rejected(self, source_power):
        with pytest.raises(ValueError) as info:
            _chain(make_passive("pad", 2.0), source_power=source_power)
        assert str(info.value) == f"source power must be positive, got {source_power!r}"


class TestConstructors:
    def test_passive(self):
        pad = make_passive("pad", 4.0)
        assert pad.gain == pytest.approx(0.25)
        assert pad.waste_factor == 4.0
        assert pad.non_path_power == 0.0

    def test_passive_rejects_gain_loss(self):
        with pytest.raises(ValueError):
            make_passive("pad", 0.5)

    def test_amplifier(self):
        # W = 1/eta + 1/G
        amp = make_amplifier("pa", gain=10.0, efficiency=0.5)
        assert amp.waste_factor == pytest.approx(2.1)
        assert amp.gain == 10.0

    def test_amplifier_rejects_bad_efficiency(self):
        for eta in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                make_amplifier("pa", gain=10.0, efficiency=eta)

    def test_fixed_overhead_is_consumption_free_on_path(self):
        lna = make_fixed_overhead("lna", gain=100.0, dc_draw=0.02)
        assert lna.waste_factor == 1.0
        assert lna.non_path_power == 0.02

    def test_directive(self):
        antenna = make_directive("horn", gain=50.0)
        assert antenna.directive
        assert antenna.waste_factor == 1.0
        assert antenna.non_path_power == 0.0

    def test_directive_rejects_zero_gain(self):
        # a dB gain that underflows to a 0 ratio, checked before 1 / gain
        with pytest.raises(ValueError, match="horn: gain must be positive and finite, got 0.0"):
            make_directive("horn", gain=0.0)


class TestCascadeFormula:
    def test_single_component(self):
        assert cascade_waste_factor(_chain(make_passive("pad", 7.0))) == 7.0

    def test_two_stage_closed_form(self):
        # W = W2 + (W1 - 1) / G2
        first = Component(label="a", gain=5.0, waste_factor=3.0)
        second = Component(label="b", gain=0.5, waste_factor=4.0)
        expected = 4.0 + (3.0 - 1.0) / 0.5
        assert cascade_waste_factor(_chain(first, second)) == pytest.approx(expected, rel=1e-15)

    def test_order_sensitivity(self):
        amp = make_amplifier("amp", gain=10.0, efficiency=0.5)
        pad = make_passive("pad", 10.0)
        amp_first = cascade_waste_factor(_chain(amp, pad))
        pad_first = cascade_waste_factor(_chain(pad, amp))
        assert amp_first == pytest.approx(21.0, rel=1e-12)
        assert pad_first == pytest.approx(3.0, rel=1e-12)

    def test_passive_identity_dyadic_exact(self):
        # integer powers of two keep every intermediate exact, so the cascade
        # waste factor must equal the total loss bit for bit
        import random

        rng = random.Random(11)
        for _ in range(200):
            losses = [float(2 ** rng.randint(0, 4)) for _ in range(rng.randint(1, 8))]
            chain = _chain(*(make_passive(f"p{i}", l) for i, l in enumerate(losses)))
            total = math.prod(losses)
            assert cascade_waste_factor(chain) == total

    def test_passive_identity_general(self):
        import random

        rng = random.Random(12)
        for _ in range(200):
            losses = [rng.uniform(1.0, 30.0) for _ in range(rng.randint(1, 8))]
            chain = _chain(*(make_passive(f"p{i}", l) for i, l in enumerate(losses)))
            assert cascade_waste_factor(chain) == pytest.approx(math.prod(losses), rel=1e-12)

    def test_unity_wire_is_neutral(self):
        base = [
            make_amplifier("a", gain=20.0, efficiency=0.3),
            make_passive("p", 5.0),
            make_amplifier("b", gain=4.0, efficiency=0.6),
        ]
        reference = cascade_waste_factor(_chain(*base))
        wire = Component(label="wire", gain=1.0, waste_factor=1.0)
        for position in range(len(base) + 1):
            padded = base[:position] + [wire] + base[position:]
            assert cascade_waste_factor(_chain(*padded)) == pytest.approx(reference, rel=1e-12)

    def test_monotone_in_component_waste(self):
        import dataclasses

        base = [
            Component(label="a", gain=3.0, waste_factor=2.0),
            Component(label="b", gain=0.2, waste_factor=6.0),
            Component(label="c", gain=8.0, waste_factor=1.5),
        ]
        reference = cascade_waste_factor(_chain(*base))
        for index in range(len(base)):
            bumped = list(base)
            bumped[index] = dataclasses.replace(bumped[index], waste_factor=bumped[index].waste_factor + 1.0)
            assert cascade_waste_factor(_chain(*bumped)) > reference

    def test_waste_figure_db(self):
        chain = _chain(make_passive("pad", 100.0))
        assert waste_figure_db(chain) == pytest.approx(20.0, abs=1e-12)

    @given(_random_cascade())
    @settings(max_examples=200, deadline=None)
    def test_waste_factor_at_least_one(self, cascade):
        assert cascade_waste_factor(cascade) >= 1.0 - 1e-12


class TestBookkeepingOracle:
    @given(_random_cascade())
    @settings(max_examples=300, deadline=None)
    def test_matches_closed_form(self, cascade):
        # forward power walk vs the backward accumulation formula
        ledger = bookkeeping_oracle(cascade)
        delivered = cascade.source_power * cascade_gain(cascade)
        oracle = ledger.total_signal_path / delivered
        assert cascade_waste_factor(cascade) == pytest.approx(oracle, rel=1e-9)

    def test_ledger_shape(self):
        chain = _chain(
            make_amplifier("pa", gain=10.0, efficiency=0.5),
            make_passive("pad", 2.0),
            source_power=0.001,
        )
        ledger = bookkeeping_oracle(chain)
        assert len(ledger.per_stage_output) == 2
        assert len(ledger.per_stage_dc) == 2
        assert ledger.per_stage_output[-1] == pytest.approx(0.001 * 10.0 * 0.5)
        # the attenuator only dissipates power already injected upstream, so
        # it adds no draw of its own; the amplifier's draw is P_out / eta
        assert ledger.per_stage_dc == (pytest.approx(0.01 / 0.5), 0.0)
        assert ledger.total_signal_path == pytest.approx(0.001 + 0.02, rel=1e-12)

    def test_total_includes_non_path(self):
        chain = _chain(make_fixed_overhead("lna", gain=100.0, dc_draw=0.25))
        ledger = bookkeeping_oracle(chain)
        assert ledger.total_non_path == pytest.approx(0.25)
        assert ledger.total_consumed == pytest.approx(ledger.total_signal_path + 0.25)

    def test_total_is_a_left_to_right_fold(self):
        # Python 3.12's compensated sum gives 49.650425541051995 here
        chain = _chain(
            make_passive("in", db_to_linear(5.0)),
            make_amplifier("amp", gain=db_to_linear(20.0), efficiency=0.65),
            make_passive("out", db_to_linear(3.0)),
        )
        assert bookkeeping_oracle(chain).total_consumed == 49.65042554105199

    def test_directive_draws_nothing(self):
        chain = _chain(make_directive("horn", gain=1000.0))
        ledger = bookkeeping_oracle(chain)
        assert ledger.per_stage_dc == (0.0,)

    @given(_random_cascade(max_size=6),
           st.floats(min_value=10.0, max_value=1e6),
           st.floats(min_value=1.5, max_value=100.0))
    @settings(max_examples=150, deadline=None)
    def test_directive_span_equivalence(self, cascade, antenna_gain, extra_loss):
        """A directive stage inside a net-lossy span behaves like an ideal
        attenuator of the combined span loss."""
        # force the span lossy: channel loss strictly exceeds the antenna gain
        span_loss = antenna_gain * extra_loss
        with_antenna = _chain(
            *cascade.components,
            make_directive("ant", antenna_gain),
            make_passive("channel", span_loss),
        )
        folded = _chain(
            *cascade.components,
            make_passive("equivalent", span_loss / antenna_gain),
        )
        assert consumed_power(with_antenna) == pytest.approx(consumed_power(folded), rel=1e-9)


class TestConsumptionView:
    def test_folds_antenna_channel_antenna(self):
        chain = _chain(
            make_amplifier("pa", gain=10.0, efficiency=0.25),
            make_directive("tx-ant", gain=100.0),
            make_passive("channel", 1e6),
            make_directive("rx-ant", gain=10.0),
            make_fixed_overhead("lna", gain=100.0, dc_draw=0.01),
        )
        view = consumption_view(chain)
        labels = [c.label for c in view.components]
        assert labels == ["pa", "tx-ant+channel+rx-ant", "lna"]
        folded = view.components[1]
        assert folded.gain == pytest.approx(100.0 * 1e-6 * 10.0, rel=1e-12)
        assert folded.waste_factor == pytest.approx(1e6 / (100.0 * 10.0), rel=1e-12)

    def test_gain_preserved(self):
        chain = _chain(
            make_amplifier("pa", gain=10.0, efficiency=0.25),
            make_directive("ant", gain=100.0),
            make_passive("channel", 1e4),
        )
        assert cascade_gain(consumption_view(chain)) == pytest.approx(cascade_gain(chain), rel=1e-12)

    def test_net_gain_span_clamps_to_unity_waste(self):
        # antenna gain exceeding span loss folds to W = 1: consumption-free
        chain = _chain(make_directive("ant", gain=100.0), make_passive("pad", 2.0))
        folded = consumption_view(chain).components[0]
        assert folded.waste_factor == 1.0
        assert folded.gain == pytest.approx(50.0)

    def test_no_directive_no_fold(self):
        chain = _chain(make_passive("a", 2.0), make_passive("b", 3.0))
        assert consumption_view(chain) == chain


class TestConsumedPower:
    def test_amplifier_only(self):
        # source 1 mW, G = 10, eta = 0.5: output 10 mW, DC draw 20 mW,
        # consumed signal path = source + DC
        chain = _chain(make_amplifier("pa", gain=10.0, efficiency=0.5), source_power=1e-3)
        assert consumed_power(chain) == pytest.approx(0.021, rel=1e-12)

    def test_attenuator_only(self):
        # everything entering a pure attenuator is eventually consumed
        chain = _chain(make_passive("pad", 8.0), source_power=0.004)
        assert consumed_power(chain) == pytest.approx(0.004, rel=1e-12)

    def test_antenna_gain_never_charged(self):
        # consumed power must not scale with directive gain
        def consumed(gain):
            chain = _chain(
                make_amplifier("pa", gain=10.0, efficiency=0.5),
                make_directive("ant", gain=gain),
                make_passive("channel", 1e9),
                source_power=1e-3,
            )
            return consumed_power(chain)

        assert consumed(10.0) == pytest.approx(consumed(1e4), rel=1e-12)

    def test_non_path_power_added(self):
        # identical signal path, only the supply draw differs
        def with_draw(dc):
            return _chain(
                make_passive("pad", 2.0),
                make_fixed_overhead("lna", gain=100.0, dc_draw=dc),
                source_power=1e-3,
            )

        assert consumed_power(with_draw(0.5)) == pytest.approx(
            consumed_power(with_draw(0.0)) + 0.5, rel=1e-12
        )

    def test_matches_oracle_total(self):
        chain = _chain(
            make_amplifier("pa", gain=31.6, efficiency=0.28),
            make_passive("filter", 1.6),
            make_fixed_overhead("lna", gain=100.0, dc_draw=0.004),
            source_power=2e-3,
        )
        assert consumed_power(chain) == pytest.approx(bookkeeping_oracle(chain).total_consumed, rel=1e-9)


def _reference_fault(components):
    """The message for a chain the walk cannot finish, or None, with the
    products formed by plain loops: a gain product that reaches 0, source
    to sink, then sink back to the second stage; then a gain product, source
    to sink, that reaches inf; then a waste factor whose running total from
    the sink does."""
    for order in (components, components[:0:-1]):
        product = 1.0
        for component in order:
            product *= component.gain
            if product == 0.0:
                return f"the gain product underflows to 0 at component {component.label!r}"
    product = 1.0
    for component in components:
        product *= component.gain
        if product == math.inf:
            return f"the gain product overflows at component {component.label!r}"
    waste, downstream = components[-1].waste_factor, 1.0
    for i in range(len(components) - 2, -1, -1):
        downstream *= components[i + 1].gain
        waste += (components[i].waste_factor - 1.0) / downstream
        if waste == math.inf:
            return f"the waste factor overflows at component {components[i].label!r}"
    return None


def _fits_a_float(loss_db):
    try:
        db_to_linear(loss_db)
    except ValueError:
        return False
    return True


@st.composite
def _extreme_chain(draw):
    """Passive losses of 0-4000 dB (those whose ratio fits a float) and
    amplifier gains of -3000 to 3000 dB, so gain products under- and
    overflow, fed a source power of -3000 to 3000 dBW."""
    components = []
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        if draw(st.booleans()):
            loss_db = draw(st.floats(0.0, 4000.0).filter(_fits_a_float))
            components.append(make_passive(f"s{i}", db_to_linear(loss_db)))
        else:
            gain_db = draw(st.floats(-3000.0, 3000.0))
            efficiency = draw(st.floats(0.05, 1.0))
            components.append(make_amplifier(f"s{i}", db_to_linear(gain_db), efficiency))
    source_power = db_to_linear(draw(st.just(0.0) | st.floats(-3000.0, 3000.0)))
    return _chain(*components, source_power=source_power)


_WALKING = (cascade_waste_factor, cascade_gain, waste_figure_db, consumed_power)


class TestWalkContract:
    """Each public function that walks a chain returns a number or raises
    naming the component where a gain product underflows to 0, or where the
    gain product or the waste factor overflows to inf."""

    @given(_extreme_chain())
    @example(
        # 1e-10 W at the sink underflows to 0 W, and the waste factor, the
        # first loss over a downstream gain of 1e-23, overflows at a
        _chain(
            make_passive("a", db_to_linear(3000.0)),
            make_passive("b", db_to_linear(80.0)),
            make_amplifier("c", db_to_linear(-150.0), 1.0),
            source_power=1e-10,
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_returns_a_number_or_names_the_component(self, chain):
        message = _reference_fault(chain.components)
        for fn in _WALKING:
            if message is None:
                value = fn(chain)
                assert isinstance(value, float)
                # the source power times the sink's gain may under- or overflow
                assert math.isfinite(value) or (fn is consumed_power and value == math.inf)
            else:
                # a ZeroDivisionError is no ValueError, so it fails here too
                with pytest.raises(ValueError) as info:
                    fn(chain)
                assert str(info.value) == message

    @pytest.mark.parametrize(
        "components, label",
        [
            # the walk would divide by a downstream gain of 0
            ([make_passive("x", 1e200)] * 3, "x"),
            # only the whole chain's gain reaches 0
            ([make_passive("x", 1e200)] * 2 + [make_passive("pad", db_to_linear(1.0))], "x"),
            # source to sink the product recovers; sink back it reaches 0 at b
            (
                [
                    make_amplifier("a", 1e300, 0.5),
                    make_passive("b", 1e300),
                    make_passive("c", 1e300),
                ],
                "b",
            ),
        ],
        ids=["walk", "total", "downstream"],
    )
    def test_underflowing_chain_names_the_component(self, components, label):
        chain = _chain(*components)
        for fn in _WALKING:
            with pytest.raises(ValueError) as info:
                fn(chain)
            assert str(info.value) == f"the gain product underflows to 0 at component {label!r}"

    @pytest.mark.parametrize(
        "components, message",
        [
            # 1e300 x 1e300 is inf at b
            ([make_amplifier("a", 1e300, 1.0), make_amplifier("b", 1e300, 1.0)],
             "the gain product overflows at component 'b'"),
            # a's excess waste over b's gain of 1e-10 is inf
            ([make_passive("a", 1e300), make_passive("b", 1e10)],
             "the waste factor overflows at component 'a'"),
            # the gain product overflows at b, and sink back it reaches 0 at c:
            # the underflow is named
            ([make_amplifier("a", 1e300, 1.0), make_amplifier("b", 1e300, 1.0),
              make_passive("c", 1e300), make_passive("d", 1e300)],
             "the gain product underflows to 0 at component 'c'"),
            # the gain product overflows at b and the waste factor at c: the
            # gain is named
            ([make_amplifier("a", 1e300, 1.0), make_amplifier("b", 1e300, 1.0),
              make_passive("c", 1e300), make_passive("d", 1e10)],
             "the gain product overflows at component 'b'"),
        ],
        ids=["gain", "waste", "underflow-first", "gain-first"],
    )
    def test_overflowing_chain_names_the_component(self, components, message):
        chain = _chain(*components)
        assert _reference_fault(chain.components) == message
        for fn in _WALKING:
            with pytest.raises(ValueError) as info:
                fn(chain)
            assert str(info.value) == message

    def test_empty_cascade_rejected_at_construction(self):
        with pytest.raises(ValueError, match="^cascade has no components to evaluate$"):
            Cascade(components=())
