"""Link-budget arithmetic: path loss, antenna gain, noise, and channel rate."""

from __future__ import annotations

import math

__all__ = [
    "SPEED_OF_LIGHT",
    "BOLTZMANN",
    "REFERENCE_TEMP_K",
    "db_to_linear",
    "linear_to_db",
    "watts_to_dbm",
    "dbm_to_watts",
    "free_space_path_loss_db",
    "ci_path_loss_db",
    "aperture_gain_db",
    "thermal_noise_dbm",
    "received_power_dbm",
    "shannon_rate_bps",
    "tx_power_for_snr_dbm",
]

SPEED_OF_LIGHT = 2.998e8  # m/s
BOLTZMANN = 1.380649e-23  # J/K
REFERENCE_TEMP_K = 290.0


def db_to_linear(value_db: float) -> float:
    """Scalars or arrays; a scalar too large for a float raises ValueError."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise ValueError(f"{value_db!r} dB is too large to express as a ratio") from None


def linear_to_db(value: float) -> float:
    if value <= 0.0:
        raise ValueError(f"ratio must be positive to express in dB, got {value!r}")
    return 10.0 * math.log10(value)


def watts_to_dbm(power_w: float) -> float:
    if power_w <= 0.0:
        raise ValueError(f"power must be positive, got {power_w!r} W")
    return 10.0 * math.log10(power_w * 1e3)


def dbm_to_watts(power_dbm: float) -> float:
    """Scalars or arrays; a scalar too large for a float raises ValueError."""
    try:
        return 10.0 ** (power_dbm / 10.0) * 1e-3
    except OverflowError:
        raise ValueError(f"power {power_dbm!r} dBm is too large to express in watts") from None


def free_space_path_loss_db(frequency_hz: float, distance_m: float = 1.0) -> float:
    """Free-space loss 20*log10(4*pi*d*f/c) between isotropic antennas."""
    if frequency_hz <= 0.0:
        raise ValueError(f"frequency must be positive, got {frequency_hz!r}")
    if distance_m <= 0.0:
        raise ValueError(f"distance must be positive, got {distance_m!r}")
    return 20.0 * math.log10(4.0 * math.pi * distance_m * frequency_hz / SPEED_OF_LIGHT)


def ci_path_loss_db(
    frequency_hz: float,
    distance_m: float,
    exponent: float,
    reference_m: float = 1.0,
) -> float:
    """Close-in reference path loss: free-space to the reference distance,
    then a single distance exponent beyond it."""
    if exponent <= 0.0:
        raise ValueError(f"path-loss exponent must be positive, got {exponent!r}")
    if distance_m < reference_m:
        raise ValueError(
            f"distance {distance_m!r} m is inside the {reference_m!r} m reference"
        )
    anchor = free_space_path_loss_db(frequency_hz, reference_m)
    return anchor + 10.0 * exponent * math.log10(distance_m / reference_m)


def aperture_gain_db(
    aperture_m2: float,
    frequency_hz: float,
    efficiency: float = 1.0,
) -> float:
    """Boresight gain of an aperture: eta * 4*pi*A/lambda^2.

    Holding the physical aperture fixed, gain rises with the square of the
    carrier frequency, which is what lets higher bands recover their larger
    free-space spreading loss.
    """
    if aperture_m2 <= 0.0:
        raise ValueError(f"aperture must be positive, got {aperture_m2!r}")
    if not (0.0 < efficiency <= 1.0):
        raise ValueError(f"antenna efficiency must be in (0, 1], got {efficiency!r}")
    try:
        wavelength = SPEED_OF_LIGHT / frequency_hz
        gain = efficiency * 4.0 * math.pi * aperture_m2 / wavelength**2
    except (OverflowError, ZeroDivisionError):
        gain = math.nan
    if not 0.0 < gain < math.inf:
        raise ValueError(
            f"aperture gain of {aperture_m2:g} m2 at frequency {frequency_hz:g} Hz is out of range"
        )
    return linear_to_db(gain)


def thermal_noise_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Noise floor k*T0*B at 290 K plus receiver noise figure."""
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz!r}")
    return watts_to_dbm(BOLTZMANN * REFERENCE_TEMP_K * bandwidth_hz) + noise_figure_db


def received_power_dbm(
    tx_power_dbm: float,
    tx_gain_db: float,
    rx_gain_db: float,
    path_loss_db: float,
) -> float:
    return tx_power_dbm + tx_gain_db + rx_gain_db - path_loss_db


def shannon_rate_bps(bandwidth_hz: float, snr_db: float) -> float:
    """Capacity bound B*log2(1 + SNR)."""
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz!r}")
    try:
        snr = db_to_linear(snr_db)
    except ValueError:
        raise ValueError(
            f"SNR {snr_db!r} dB over {bandwidth_hz!r} Hz is too large to express as a ratio"
        ) from None
    return bandwidth_hz * math.log2(1.0 + snr)


def tx_power_for_snr_dbm(
    target_snr_db: float,
    bandwidth_hz: float,
    noise_figure_db: float,
    path_loss_db: float,
    tx_gain_db: float,
    rx_gain_db: float,
) -> float:
    """Transmit power that lands the link exactly on the target SNR."""
    noise = thermal_noise_dbm(bandwidth_hz, noise_figure_db)
    return target_snr_db + noise + path_loss_db - tx_gain_db - rx_gain_db
