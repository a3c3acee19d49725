"""Nonlinear Bell inequalities for multi-source quantum networks.

Build an inequality from a network graph and per-leaf bipartite Bell
coefficient matrices, evaluate separable qubit strategies on product
states, and probe classical/quantum/mixed-state bounds numerically.
"""

from .analysis import (
    ViolationReport,
    critical_visibility_uniform,
    mahler_check,
    report,
    visibility_window,
    werner_violation_threshold,
)
from .builder import (
    NetworkInequality,
    build_inequality,
    mixed_state_bound,
)
from .errors import NetbellError
from .evaluator import (
    MeasurementStrategy,
    QubitObservable,
    check_conditions,
    evaluate_S,
    optimal_strategy,
)
from .fcbi import (
    CoefficientMatrix,
    custom_matrix,
    make_catalog,
    quantum_opt_numeric,
    sos_witness,
    state_max,
)
from .optimizer import (
    LocalModel,
    SearchReport,
    classical_oracle,
    discriminate,
    seesaw_network,
)
from .qstate import (
    TwoQubitState,
    WernerSpec,
    bloch_decompose,
    classical_zz,
    max_entangled,
    product_00,
    pure_schmidt,
    werner,
)
from .topology import LeafAnalysis, NetworkTopology, build_topology, find_leaves

__all__ = [
    "CoefficientMatrix",
    "LeafAnalysis",
    "LocalModel",
    "MeasurementStrategy",
    "NetbellError",
    "NetworkInequality",
    "NetworkTopology",
    "QubitObservable",
    "SearchReport",
    "TwoQubitState",
    "ViolationReport",
    "WernerSpec",
    "bloch_decompose",
    "build_inequality",
    "build_topology",
    "check_conditions",
    "classical_oracle",
    "classical_zz",
    "critical_visibility_uniform",
    "custom_matrix",
    "discriminate",
    "evaluate_S",
    "find_leaves",
    "mahler_check",
    "make_catalog",
    "max_entangled",
    "mixed_state_bound",
    "optimal_strategy",
    "product_00",
    "pure_schmidt",
    "quantum_opt_numeric",
    "report",
    "seesaw_network",
    "sos_witness",
    "state_max",
    "visibility_window",
    "werner",
    "werner_violation_threshold",
]

__version__ = "0.1.0"
