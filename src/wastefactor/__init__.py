"""Waste-factor analysis of cascaded wireless transceiver chains.

The package models how much power a radio chain consumes per unit of signal
power it delivers (the waste factor), folds that into full link budgets,
and compares bands, sweeps, and network layouts by consumption efficiency
(bits per joule).

The network Monte Carlo names other than `NetworkScenario` are loaded from
`netsim` on first use, so `import wastefactor` and the link-level tools do
not import numpy.
"""

from .cascade import (
    Cascade,
    Component,
    PowerLedger,
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
from .linkbudget import (
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
from .scenario_io import (
    PRESET_DIR_ENV,
    ScenarioParseError,
    apply_overrides,
    load_scenario_file,
    parse_chain,
    parse_scenario,
    resolve_preset,
    serialize_scenario,
)
from .sweeps import (
    CURVE_CSV_HEADER,
    CrossoverResult,
    Curve,
    EfficiencyMatch,
    SweepSample,
    SweepSpec,
    find_crossover,
    find_curve_crossing,
    min_matching_efficiency,
    reference_cef,
    snr_matched_sample,
    sweep,
    write_curve_csv,
)
from .transceiver import (
    BandComparison,
    BandProfile,
    LinkReport,
    LinkScenario,
    NetworkScenario,
    TerminalProfile,
    band_comparison,
    build_chain,
    evaluate_link,
    mmwave_28,
    preset_scenario,
    rx_power_coefficients,
    subthz_140,
    tx_power_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "Cascade",
    "Component",
    "PowerLedger",
    "bookkeeping_oracle",
    "cascade_gain",
    "cascade_waste_factor",
    "consumed_power",
    "consumption_view",
    "make_amplifier",
    "make_directive",
    "make_fixed_overhead",
    "make_passive",
    "waste_figure_db",
    "BOLTZMANN",
    "REFERENCE_TEMP_K",
    "SPEED_OF_LIGHT",
    "aperture_gain_db",
    "ci_path_loss_db",
    "db_to_linear",
    "dbm_to_watts",
    "free_space_path_loss_db",
    "linear_to_db",
    "received_power_dbm",
    "shannon_rate_bps",
    "thermal_noise_dbm",
    "tx_power_for_snr_dbm",
    "watts_to_dbm",
    "DEFAULT_RADII",
    "NETSIM_CSV_HEADER",
    "CellLayout",
    "NetworkReport",
    "NetworkScenario",
    "default_network",
    "drop_ues",
    "hex_layout",
    "network_csv_rows",
    "optimal_radius",
    "p_los",
    "point_in_hex",
    "power_control",
    "simulate_network",
    "sweep_radius",
    "PRESET_DIR_ENV",
    "ScenarioParseError",
    "apply_overrides",
    "load_scenario_file",
    "parse_chain",
    "parse_scenario",
    "resolve_preset",
    "serialize_scenario",
    "CURVE_CSV_HEADER",
    "CrossoverResult",
    "Curve",
    "EfficiencyMatch",
    "SweepSample",
    "SweepSpec",
    "find_crossover",
    "find_curve_crossing",
    "min_matching_efficiency",
    "reference_cef",
    "snr_matched_sample",
    "sweep",
    "write_curve_csv",
    "BandComparison",
    "BandProfile",
    "LinkReport",
    "LinkScenario",
    "TerminalProfile",
    "band_comparison",
    "build_chain",
    "evaluate_link",
    "mmwave_28",
    "preset_scenario",
    "rx_power_coefficients",
    "subthz_140",
    "tx_power_coefficients",
    "__version__",
]

# Resolved by __getattr__ (PEP 562): importing netsim imports numpy.
_NETSIM_NAMES = frozenset(
    {
        "DEFAULT_RADII",
        "NETSIM_CSV_HEADER",
        "CellLayout",
        "NetworkReport",
        "default_network",
        "drop_ues",
        "hex_layout",
        "network_csv_rows",
        "optimal_radius",
        "p_los",
        "point_in_hex",
        "power_control",
        "simulate_network",
        "sweep_radius",
    }
)


def __getattr__(name: str):
    if name in _NETSIM_NAMES:
        from . import netsim

        return getattr(netsim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _NETSIM_NAMES)
