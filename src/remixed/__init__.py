"""Exact arithmetic for remixed Eulerian numbers and their relatives.

The package computes the polynomials A_c(q) attached to ball configurations
by three independent routes (an exact probabilistic oracle, a memoized
recursion, and per-family closed formulas), together with q-hit numbers,
a q-analog of the Carlitz-Scoville triangle, and a seeded Monte Carlo
simulator for the underlying drop dynamics.
"""

__version__ = "0.1.0"

from .qcalc import (
    QPoly,
    DegreeTooHigh,
    InvariantViolation,
    q_int,
    q_factorial,
    q_binomial,
    q_pochhammer,
)
from .config import (
    Configuration,
    CoreDecomposition,
    ConfigFlags,
    parse_config,
    heights,
    left_to_right_order,
    core,
    reverse,
    classify,
    max_weakly_shift,
)
from .engine import (
    success_probability,
    remixed_exact,
    remixed_induction,
    drop_order_check,
    exact_sweep,
)
from .formulas import (
    a_lukasiewicz,
    a_connected,
    core_series,
    a_almost_lukasiewicz,
    a_weakly_lukasiewicz,
    corrective_series,
    a_one_hole,
    q_hits,
    hit_to_connected,
    carlitz_scoville_q,
    dispatch,
    EvalReport,
)
from .simulate import estimate_success, SimResult

__all__ = [
    "QPoly",
    "DegreeTooHigh",
    "InvariantViolation",
    "q_int",
    "q_factorial",
    "q_binomial",
    "q_pochhammer",
    "Configuration",
    "CoreDecomposition",
    "ConfigFlags",
    "parse_config",
    "heights",
    "left_to_right_order",
    "core",
    "reverse",
    "classify",
    "max_weakly_shift",
    "success_probability",
    "remixed_exact",
    "remixed_induction",
    "drop_order_check",
    "exact_sweep",
    "a_lukasiewicz",
    "a_connected",
    "core_series",
    "a_almost_lukasiewicz",
    "a_weakly_lukasiewicz",
    "corrective_series",
    "a_one_hole",
    "q_hits",
    "hit_to_connected",
    "carlitz_scoville_q",
    "dispatch",
    "EvalReport",
    "estimate_success",
    "SimResult",
]
