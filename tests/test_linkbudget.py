"""Tests for linkbudget.py — dB arithmetic, path loss, noise, Shannon rate."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wastefactor.linkbudget import (
    BOLTZMANN,
    REFERENCE_TEMP_K,
    SPEED_OF_LIGHT,
    aperture_gain_db,
    ci_path_loss_db,
    db_to_linear,
    dbm_to_watts,
    free_space_path_loss_db,
    linear_to_db,
    received_power_dbm,
    shannon_rate_bps,
    thermal_noise_dbm,
    tx_power_for_snr_dbm,
    watts_to_dbm,
)

_FINITE = dict(allow_nan=False, allow_infinity=False)


class TestConstants:
    def test_values(self):
        assert SPEED_OF_LIGHT == 2.998e8
        assert BOLTZMANN == 1.380649e-23
        assert REFERENCE_TEMP_K == 290.0


class TestDbConversions:
    def test_anchors(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
        assert db_to_linear(3.0) == pytest.approx(1.9952623149688795, rel=1e-15)
        assert linear_to_db(100.0) == pytest.approx(20.0, abs=1e-12)

    def test_dbm_watt_anchors(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
        assert watts_to_dbm(1e-3) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_overflow_names_the_value(self):
        with pytest.raises(ValueError, match="4000.0 dBm"):
            dbm_to_watts(4000.0)
        with pytest.raises(ValueError, match="4000.0 dB"):
            db_to_linear(4000.0)

    def test_array_overflow_is_inf(self):
        # numpy does not raise on arrays; their behaviour is unchanged
        with np.errstate(over="ignore"):
            assert dbm_to_watts(np.array([4000.0]))[0] == np.inf
            assert db_to_linear(np.array([4000.0]))[0] == np.inf

    @given(st.floats(min_value=-120.0, max_value=120.0, **_FINITE))
    @settings(max_examples=200, deadline=None)
    def test_db_round_trip(self, value_db):
        assert linear_to_db(db_to_linear(value_db)) == pytest.approx(value_db, abs=1e-10)

    @given(st.floats(min_value=-90.0, max_value=90.0, **_FINITE))
    @settings(max_examples=200, deadline=None)
    def test_dbm_round_trip(self, value_dbm):
        assert watts_to_dbm(dbm_to_watts(value_dbm)) == pytest.approx(value_dbm, abs=1e-10)


class TestFreeSpacePathLoss:
    def test_reference_values(self):
        # 20 log10(4 pi d f / c) recomputed with the module's own constant
        def fspl(f, d=1.0):
            return 20.0 * math.log10(4.0 * math.pi * d * f / SPEED_OF_LIGHT)

        assert free_space_path_loss_db(28e9) == pytest.approx(fspl(28e9), rel=1e-14)
        assert free_space_path_loss_db(28e9) == pytest.approx(61.3907253370411, rel=1e-12)
        assert free_space_path_loss_db(140e9) == pytest.approx(75.37012542376148, rel=1e-12)

    def test_distance_scaling(self):
        base = free_space_path_loss_db(28e9, 1.0)
        assert free_space_path_loss_db(28e9, 10.0) == pytest.approx(base + 20.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            free_space_path_loss_db(0.0)
        with pytest.raises(ValueError):
            free_space_path_loss_db(28e9, -1.0)

    @pytest.mark.parametrize(
        "frequency, distance", [(1e-320, 1.0), (1e308, 1e10)], ids=["underflow", "overflow"]
    )
    def test_ratio_out_of_range_names_frequency_and_distance(self, frequency, distance):
        # 4 pi d f / c underflows to 0 or overflows to inf before the log
        message = (
            f"free-space path loss over {distance!r} m at frequency {frequency!r} Hz"
            " is out of range"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            free_space_path_loss_db(frequency, distance)


class TestCiPathLoss:
    def test_equals_fspl_at_reference(self):
        assert ci_path_loss_db(28e9, 1.0, 2.0) == pytest.approx(
            free_space_path_loss_db(28e9), rel=1e-14
        )

    def test_exponent_slope(self):
        # 10 n dB per decade beyond the reference distance
        for exponent in (2.0, 3.2):
            d10 = ci_path_loss_db(140e9, 10.0, exponent)
            d100 = ci_path_loss_db(140e9, 100.0, exponent)
            assert d100 - d10 == pytest.approx(10.0 * exponent, abs=1e-12)

    def test_table_values(self):
        # LoS at 100 m: FSPL(1 m) + 20 log10(100)
        assert ci_path_loss_db(28e9, 100.0, 2.0) == pytest.approx(101.3907, abs=1e-3)
        assert ci_path_loss_db(28e9, 100.0, 3.2) == pytest.approx(125.3907, abs=1e-3)
        assert ci_path_loss_db(140e9, 100.0, 2.0) == pytest.approx(115.3701, abs=1e-3)
        assert ci_path_loss_db(140e9, 100.0, 3.2) == pytest.approx(139.3701, abs=1e-3)

    def test_rejects_closer_than_reference(self):
        with pytest.raises(ValueError, match=r"^distance 0\.5 m is inside the 1\.0 m reference$"):
            ci_path_loss_db(28e9, 0.5, 2.0)

    @pytest.mark.parametrize("distance", [100.0, 1.0], ids=["inf", "nan"])
    def test_loss_that_is_not_finite_names_distance_frequency_and_exponent(self, distance):
        # 10 n overflows: times log10(100) the loss is inf, times log10(1) = 0 nan
        message = (
            f"path loss over {distance:g} m at frequency 2.8e+10 Hz with exponent 1e+308"
            " is not finite"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ci_path_loss_db(28e9, distance, 1e308)


class TestApertureGain:
    def test_formula(self):
        # G = eta 4 pi A / lambda^2
        wavelength = SPEED_OF_LIGHT / 28e9
        expected = 10.0 * math.log10(0.6 * 4.0 * math.pi * 0.5 / wavelength**2)
        assert aperture_gain_db(0.5, 28e9, efficiency=0.6) == pytest.approx(expected, rel=1e-14)

    def test_known_gains(self):
        assert aperture_gain_db(0.5, 28e9, efficiency=0.6) == pytest.approx(45.1698, abs=1e-3)
        assert aperture_gain_db(5e-4, 28e9, efficiency=0.6) == pytest.approx(15.1698, abs=1e-3)
        assert aperture_gain_db(0.5, 140e9, efficiency=0.6) == pytest.approx(59.1492, abs=1e-3)
        assert aperture_gain_db(5e-4, 140e9, efficiency=0.6) == pytest.approx(29.1492, abs=1e-3)

    def test_area_scaling(self):
        small = aperture_gain_db(0.05, 140e9)
        large = aperture_gain_db(0.5, 140e9)
        assert large - small == pytest.approx(10.0, abs=1e-12)

    def test_efficiency_range(self):
        with pytest.raises(ValueError):
            aperture_gain_db(0.5, 28e9, efficiency=0.0)
        with pytest.raises(ValueError):
            aperture_gain_db(0.5, 28e9, efficiency=1.2)

    @pytest.mark.parametrize("frequency", [1e209, 1e-291, 0.0])
    def test_gain_out_of_range_names_the_frequency(self, frequency):
        # the wavelength squared underflows to 0, overflows, or divides by zero
        with pytest.raises(ValueError, match=re.escape(f"frequency {frequency:g} Hz")):
            aperture_gain_db(0.5, frequency)


class TestThermalNoise:
    def test_noise_density(self):
        # kT at 290 K is -173.97 dBm/Hz
        expected = 10.0 * math.log10(BOLTZMANN * REFERENCE_TEMP_K * 1e3)
        assert thermal_noise_dbm(1.0) == pytest.approx(expected, rel=1e-14)
        assert thermal_noise_dbm(1.0) == pytest.approx(-173.9747, abs=1e-3)

    def test_bandwidth_and_figure(self):
        floor = thermal_noise_dbm(400e6, noise_figure_db=10.0)
        assert floor == pytest.approx(-173.9747 + 10.0 * math.log10(400e6) + 10.0, abs=1e-3)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            thermal_noise_dbm(0.0)


class TestShannonRate:
    def test_zero_db_snr(self):
        # log2(2) = 1 bit/s/Hz
        assert shannon_rate_bps(1e6, 0.0) == pytest.approx(1e6, rel=1e-14)

    def test_reference_point(self):
        assert shannon_rate_bps(400e6, 36.904) == pytest.approx(4.9037e9, rel=1e-3)

    @given(st.floats(min_value=-30.0, max_value=60.0, **_FINITE),
           st.floats(min_value=1.0, max_value=1e10, **_FINITE))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_snr(self, snr_db, bandwidth):
        assert shannon_rate_bps(bandwidth, snr_db + 1.0) > shannon_rate_bps(bandwidth, snr_db)


    def test_overflowing_snr_names_snr_and_bandwidth(self):
        with pytest.raises(ValueError) as info:
            shannon_rate_bps(1e6, 4000.0)
        assert str(info.value) == (
            "SNR 4000.0 dB over 1000000.0 Hz is too large to express as a ratio"
        )

    def test_overflowing_rate_names_bandwidth_and_snr(self):
        # the SNR is a finite ratio, but B log2(1 + SNR) is inf
        with pytest.raises(ValueError) as info:
            shannon_rate_bps(1e308, 20.0)
        assert str(info.value) == (
            "rate over 1e+308 Hz at SNR 20.0 dB is too large to express in b/s"
        )

class TestReceivedPowerAndSolver:
    def test_additive_identity(self):
        assert received_power_dbm(10.0, 30.0, 20.0, 100.0) == pytest.approx(-40.0, abs=1e-12)

    @given(st.floats(min_value=-10.0, max_value=40.0, **_FINITE),
           st.floats(min_value=60.0, max_value=160.0, **_FINITE),
           st.floats(min_value=0.0, max_value=60.0, **_FINITE),
           st.floats(min_value=0.0, max_value=60.0, **_FINITE),
           st.floats(min_value=1e6, max_value=1e10, **_FINITE))
    @settings(max_examples=200, deadline=None)
    def test_solver_inverts_link_equation(self, target_snr, path_loss, gt, gr, bandwidth):
        solved = tx_power_for_snr_dbm(target_snr, bandwidth, 10.0, path_loss, gt, gr)
        achieved = received_power_dbm(solved, gt, gr, path_loss) - thermal_noise_dbm(bandwidth, 10.0)
        assert achieved == pytest.approx(target_snr, abs=1e-9)

    def test_power_rises_3db_per_bandwidth_doubling(self):
        base = tx_power_for_snr_dbm(20.0, 1e9, 10.0, 115.0, 30.0, 30.0)
        doubled = tx_power_for_snr_dbm(20.0, 2e9, 10.0, 115.0, 30.0, 30.0)
        assert doubled - base == pytest.approx(10.0 * math.log10(2.0), abs=1e-12)


class TestNonPositiveInputs:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: linear_to_db(0.0), "ratio must be positive to express in dB, got 0.0"),
            (lambda: watts_to_dbm(-1.0), "power must be positive, got -1.0 W"),
            (lambda: ci_path_loss_db(28e9, 100.0, 0.0),
             "path-loss exponent must be positive, got 0.0"),
            (lambda: aperture_gain_db(0.0, 28e9), "aperture must be positive, got 0.0"),
            (lambda: shannon_rate_bps(0.0, 20.0), "bandwidth must be positive, got 0.0"),
        ],
        ids=["linear-to-db", "watts-to-dbm", "exponent", "aperture", "rate-bandwidth"],
    )
    def test_names_the_value(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
