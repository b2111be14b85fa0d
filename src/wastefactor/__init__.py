"""Waste-factor analysis of cascaded wireless transceiver chains.

The package models how much power a radio chain consumes per unit of signal
power it delivers (the waste factor), folds that into full link budgets,
and compares bands, sweeps, and network layouts by consumption efficiency
(bits per joule).

The network Monte Carlo names other than `NetworkScenario` are loaded from
`netsim` on first use, so `import wastefactor` and the link-level tools do
not import numpy.
"""

from . import cascade, linkbudget, scenario_io, sweeps, transceiver
from .cascade import *
from .linkbudget import *
from .scenario_io import *
from .sweeps import *
from .transceiver import *

__version__ = "0.1.0"

# Resolved by __getattr__ (PEP 562): importing netsim imports numpy, so this
# is netsim.__all__ less the names transceiver already exports, written out.
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
        "power_control",
        "simulate_network",
        "sweep_radius",
    }
)

__all__ = [
    *cascade.__all__,
    *linkbudget.__all__,
    *scenario_io.__all__,
    *sweeps.__all__,
    *transceiver.__all__,
    *sorted(_NETSIM_NAMES),
    "__version__",
]


def __getattr__(name: str):
    if name in _NETSIM_NAMES:
        from . import netsim

        return getattr(netsim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _NETSIM_NAMES)
