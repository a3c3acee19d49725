"""Noise-robustness thresholds, the product-form matrix inequality, and
consolidated violation reports.

Every Werner-noise number comes from one formula. A |Phi+> Werner source of
visibility v has T = v diag(1, -1, 1), so |T^T d| = v |d| for every vector:
its state maximum is v q_s under any FCBI map, and its largest correlation
singular value is t0 = v (Horodecki^3, Phys. Lett. A 200, 340, 1995).
`fcbi.state_max` is the home of that v q_s: it returns it in closed form
for the catalog maps, so `mixed_state_bound` on such sources agrees with
the formulas here. With such a source everywhere the mixed-state bound is
quantum_bound * v^(M/l), which crosses the classical bound at
v = (beta/q)^(l/M); on the peripheral sources alone the product of the
visibilities must exceed (beta/q)^l.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .builder import NetworkInequality, _geomean, mixed_state_bound
from .errors import NegativeEntryError, UnsupportedFcbiError
from .evaluator import (
    MeasurementStrategy,
    _product_form,
    check_conditions,
    evaluate_S,
    optimal_strategy,
)
from .fcbi import state_max
from .networks import chsh_inequality
from .qstate import MAX_SCHMIDT, TwoQubitState, pure_schmidt
from .topology import NetworkTopology


def format_sig(x: float) -> float:
    """Round to 12 significant digits for stable reports."""
    return float(f"{x:.12g}")


@dataclass
class ViolationReport:
    """Everything a run produces: value, per-column correlators, bounds, flags.

    provenance records where the strategy came from, the seeds, and the
    tolerances, so a report is reproducible from its own contents.
    """

    S: float
    I: list[float]
    classical_bound: float
    quantum_bound: float
    mixed_bound: float
    flags: dict[str, bool]
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "S": format_sig(self.S),
            "I": [format_sig(v) for v in self.I],
            "classical_bound": format_sig(self.classical_bound),
            "quantum_bound": format_sig(self.quantum_bound),
            "mixed_bound": format_sig(self.mixed_bound),
            "flags": dict(self.flags),
            "provenance": self.provenance,
        }


def _bound_ratio(ineq: NetworkInequality) -> float:
    """beta/q, the ratio of the classical and the quantum bound."""
    if ineq.quantum_bound <= 0.0:
        raise UnsupportedFcbiError(
            "a zero coefficient matrix is never violated, so it has no "
            "visibility threshold"
        )
    return ineq.classical_bound / ineq.quantum_bound


def uniform_werner_bound(ineq: NetworkInequality, v: float) -> float:
    """Mixed-state bound with a |Phi+> Werner state of visibility v on every
    source: quantum_bound * v^(M/l)."""
    return ineq.quantum_bound * v ** (ineq.topology.n_sources / ineq.l)


def critical_visibility_uniform(
    ineq: NetworkInequality, n_sources: int | None = None
) -> float:
    """Per-source visibility at which uniform |Phi+> Werner sources reach the
    classical bound: (beta/q)^(l/M), where uniform_werner_bound crosses it.

    Args:
        n_sources: M, the network's own source count unless given; reports
            also quote the value at M + 1 to show how sensitive it is.
    """
    m = ineq.topology.n_sources if n_sources is None else n_sources
    return float(_bound_ratio(ineq) ** (ineq.l / m))


def werner_violation_threshold(
    ineq: NetworkInequality, schmidt: dict[int, float] | float = MAX_SCHMIDT
) -> float:
    """Threshold on the product of the peripheral sources' visibilities, with
    noiseless intermediate sources: (beta/q)^l on maximally entangled states.

    A source whose Werner state mixes a|00> + b|11> with another Schmidt
    coefficient a scales its factor by q_s / state_max on that pure state;
    for CHSH this gives 1 / prod_s sqrt(1 + 4 a_s^2 b_s^2).

    Args:
        schmidt: Schmidt coefficient per peripheral source, or one value
            shared by all of them.
    """
    threshold = _bound_ratio(ineq) ** ineq.l
    for s in ineq.map_sources.tolist():
        a = schmidt[s] if isinstance(schmidt, dict) else schmidt
        if abs(a - MAX_SCHMIDT) > 1e-12:
            m = ineq.fcbi_map[s]
            threshold *= m.quantum_opt / state_max(m, pure_schmidt(a))
    return float(threshold)


def visibility_window(
    topology_a: NetworkTopology, topology_b: NetworkTopology
) -> dict:
    """Uniform-Werner visibility thresholds of two same-size networks, each
    from its own CHSH inequality.

    States with per-source visibility strictly inside the window violate
    only the inequality of the network with the larger leaf count.

    Raises:
        TooFewLeavesError: a network has fewer than two leaves.
    """
    results = {}
    for name, topology in (("a", topology_a), ("b", topology_b)):
        ineq = chsh_inequality(topology)
        results[name] = {
            "l": ineq.l,
            "m": topology.n_sources,
            "threshold": critical_visibility_uniform(ineq),
        }
    results["window"] = tuple(sorted(results[n]["threshold"] for n in "ab"))
    return results


def mahler_check(X) -> dict:
    """Check the product-form inequality for a non-negative matrix.

    lhs = sum_j (prod_i x_ji)^(1/q) and rhs = prod_i (sum_j x_ji)^(1/q)
    with q the number of columns, rooted in log space (`builder._geomean`);
    lhs never exceeds rhs, with equality exactly when X has rank one or a
    zero column (`evaluator._product_form`, which `check_conditions` asks too).

    Returns:
        dict with keys holds, lhs, rhs, equality.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise NegativeEntryError("expected a non-empty 2-d matrix")
    if np.any(X < 0):
        raise NegativeEntryError("matrix entries must be non-negative")
    q = X.shape[1]
    lhs = float(_geomean(X, q, axis=1).sum())
    rhs = float(_geomean(X.sum(axis=0), q))
    _, rank1, zero_column = _product_form(X)
    return {
        "holds": lhs <= rhs + 1e-12,
        "lhs": lhs,
        "rhs": rhs,
        "equality": rank1 or zero_column,
    }


def report(
    ineq: NetworkInequality,
    states: dict[int, TwoQubitState],
    strategy: MeasurementStrategy | str = "auto",
    seed: int = 0,
    restarts: int = 32,
    tol: float = 1e-9,
) -> ViolationReport:
    """Evaluate a strategy and assemble the full violation report."""
    source = "explicit"
    if isinstance(strategy, str):
        if strategy != "auto":
            raise ValueError(f"unknown strategy spec {strategy!r}")
        strategy = optimal_strategy(ineq, states)
        source = "auto"
    result = evaluate_S(ineq, states, strategy, tol=tol)
    mixed = mixed_state_bound(ineq, states, restarts=restarts, seed=seed)
    conditions = check_conditions(ineq, states, strategy)
    return ViolationReport(
        S=result.S,
        I=[float(v) for v in result.I],
        classical_bound=ineq.classical_bound,
        quantum_bound=ineq.quantum_bound,
        mixed_bound=mixed,
        flags={
            "violates_classical": bool(result.classical_violation),
            "saturates_quantum": bool(result.quantum_saturation),
            "conditions_met": bool(conditions.saturated),
        },
        provenance={
            "strategy": source,
            "seed": seed,
            "restarts": restarts,
            "tol": tol,
        },
    )
