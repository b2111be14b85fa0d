"""Waste-factor analysis of cascaded wireless transceiver chains.

The package models how much power a radio chain consumes per unit of signal
power it delivers (the waste factor), folds that into full link budgets,
and compares bands, sweeps, and network layouts by consumption efficiency
(bits per joule).

The names of `sweeps`, and those of `netsim` other than `NetworkScenario`,
are loaded from their module on first use, so `import wastefactor` and the
link-level tools do not import numpy, and only the sweep tools load
`sweeps`.
"""

import importlib

from . import cascade, linkbudget, scenario_io, transceiver
from .cascade import *
from .linkbudget import *
from .scenario_io import *
from .transceiver import *

__version__ = "0.1.0"

# The one list of each lazy module's names, resolved by __getattr__ (PEP 562):
# sweeps.__all__, and netsim.__all__ after NetworkScenario.  Kept here, because
# reading a module's __all__ would import it, and netsim imports numpy.
_SWEEPS_NAMES = (
    "SweepSpec",
    "SweepSample",
    "Curve",
    "CrossoverResult",
    "EfficiencyMatch",
    "sweep",
    "find_crossover",
    "find_curve_crossing",
    "min_matching_efficiency",
    "reference_cef",
    "snr_matched_sample",
    "curve_csv_rows",
    "CURVE_CSV_HEADER",
)
_NETSIM_NAMES = (
    "CellLayout",
    "NetworkReport",
    "DEFAULT_RADII",
    "default_network",
    "hex_layout",
    "drop_ues",
    "p_los",
    "power_control",
    "simulate_network",
    "sweep_radius",
    "optimal_radius",
    "network_csv_rows",
    "NETSIM_CSV_HEADER",
)
_LAZY_NAMES = {
    **dict.fromkeys(_SWEEPS_NAMES, "sweeps"),
    **dict.fromkeys(_NETSIM_NAMES, "netsim"),
}

__all__ = [
    *cascade.__all__,
    *linkbudget.__all__,
    *scenario_io.__all__,
    *transceiver.__all__,
    *_LAZY_NAMES,
    "__version__",
]


def __getattr__(name: str):
    # importlib, not `from . import`: that looks the module up as an
    # attribute of this package, which would come back here.
    module = _LAZY_NAMES.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in _LAZY_NAMES.values():
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_NAMES) | set(_LAZY_NAMES.values()))
