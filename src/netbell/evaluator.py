"""Measurement strategies and network correlator evaluation.

Two evaluation paths are provided. The factorized path contracts each
source separately: for traceless qubit observables the correlator of a
product state is the product of u^T T v terms, one per source. The
full-tensor path builds the explicit 2^(2M)-dimensional operators and
traces against the global state; it exists as an independent cross-check
and additionally accepts joint (possibly entangled) party observables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .builder import NetworkInequality
from .errors import IncompleteStrategyError, UnsupportedFcbiError
from .fcbi import CHAINED, CHSH, EBI
from .qstate import TwoQubitState, bloch_matrix
from .topology import NetworkTopology


@dataclass(frozen=True)
class QubitObservable:
    """Traceless dichotomic qubit observable n . sigma with unit Bloch vector."""

    n: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.n, dtype=float)
        if n.shape != (3,):
            raise ValueError("Bloch vector must have three components")
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("Bloch vector must have unit norm")
        object.__setattr__(self, "n", n)

    @classmethod
    def from_direction(cls, v) -> "QubitObservable":
        v = np.asarray(v, dtype=float)
        norm = np.linalg.norm(v)
        if norm < 1e-14:
            raise ValueError("cannot normalize a zero direction")
        return cls(v / norm)

    @property
    def matrix(self) -> np.ndarray:
        return bloch_matrix(self.n)


SIGMA_X = QubitObservable(np.array([1.0, 0.0, 0.0]))
SIGMA_Y = QubitObservable(np.array([0.0, 1.0, 0.0]))
SIGMA_Z = QubitObservable(np.array([0.0, 0.0, 1.0]))


@dataclass
class MeasurementStrategy:
    """Per (party, input, incident source) qubit observables.

    slots maps (party, input, source) -> QubitObservable. For research use
    the full-tensor path also honors joint_observables, mapping
    (party, input) -> an explicit Hermitian +/-1-eigenvalue matrix on all of
    that party's qubits (ordered by ascending source index); parties with a
    joint override must not appear in slots.
    """

    slots: dict[tuple[int, int, int], QubitObservable] = field(default_factory=dict)
    joint_observables: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def bloch(self, party: int, inp: int, source: int) -> np.ndarray:
        try:
            return self.slots[(party, inp, source)].n
        except KeyError:
            raise IncompleteStrategyError(
                f"no observable for party {party}, input {inp}, source {source}"
            ) from None

    def set(self, party: int, inp: int, source: int, obs) -> None:
        if not isinstance(obs, QubitObservable):
            obs = QubitObservable.from_direction(obs)
        self.slots[(party, inp, source)] = obs

    def validate(self, topology: NetworkTopology, input_counts: dict[int, int]) -> None:
        """Check every (party, input, incident source) slot is present."""
        joint_parties = {party for party, _ in self.joint_observables}
        for party in range(1, topology.n_parties + 1):
            if party in joint_parties:
                continue
            for inp in range(1, input_counts[party] + 1):
                for source in topology.incident_sources(party):
                    if (party, inp, source) not in self.slots:
                        raise IncompleteStrategyError(
                            f"missing observable for party {party}, "
                            f"input {inp}, source {source}"
                        )


@dataclass(frozen=True)
class EvaluationResult:
    """Evaluated correlators and the nonlinear combination S."""

    I: np.ndarray
    S: float
    classical_violation: bool
    quantum_saturation: bool


@dataclass(frozen=True)
class ConditionReport:
    """Saturation diagnostics for a strategy on given states.

    X holds the per-column Delta norms of each peripheral source; the bound
    is tight when X is rank one (or has a zero column) and every
    intermediate source is measured aligned with its top correlation
    direction.
    """

    X: np.ndarray
    x_singvals: np.ndarray
    rank1: bool
    zero_column: bool
    intermediate_residuals: dict[int, np.ndarray]
    saturated: bool


def input_counts_for(ineq: NetworkInequality) -> dict[int, int]:
    """Input count per party: FCBI rows for leaves, k for intermediates."""
    counts = {}
    for party in ineq.leaves.intermediate_set:
        counts[int(party)] = ineq.k
    for leaf in ineq.leaves.leaf_set:
        counts[int(leaf)] = ineq.leaf_fcbi(int(leaf)).rows
    return counts


def correlator(
    topology: NetworkTopology,
    states: dict[int, TwoQubitState],
    strategy: MeasurementStrategy,
    x: dict[int, int],
) -> float:
    """Factorized full-correlation expectation for one input assignment.

    E = prod_j u_j^T T_j v_j, with u_j, v_j the Bloch vectors of the two
    endpoint observables of source j. Valid for traceless observables on a
    product of bipartite states.
    """
    value = 1.0
    for j in range(1, topology.n_sources + 1):
        a, b = topology.endpoints(j)
        u = strategy.bloch(a, x[a], j)
        v = strategy.bloch(b, x[b], j)
        value *= float(u @ states[j].corr @ v)
    return value


def _apply_operator(
    rho_t: np.ndarray, op: np.ndarray, positions: list[int], n_qubits: int
) -> np.ndarray:
    """Left-multiply an operator on `positions` into a (2,)*2n state tensor."""
    m = len(positions)
    op_t = op.reshape((2,) * (2 * m))
    out = np.tensordot(op_t, rho_t, axes=(list(range(m, 2 * m)), positions))
    return np.moveaxis(out, range(m), positions)


def correlator_full_tensor(
    topology: NetworkTopology,
    states: dict[int, TwoQubitState],
    strategy: MeasurementStrategy,
    x: dict[int, int],
) -> float:
    """Explicit-trace correlator over the 2^(2M)-dimensional network state.

    Qubit order: (source 1 side A, source 1 side B, source 2 side A, ...),
    where side A belongs to the first party of the edge pair. Supports
    joint party observables; intended for M <= 6.
    """
    m = topology.n_sources
    n_qubits = 2 * m
    rho = np.array([[1.0 + 0j]])
    for j in range(1, m + 1):
        rho = np.kron(rho, states[j].matrix)
    rho_t = rho.reshape((2,) * (2 * n_qubits))

    # Party operators act on disjoint qubit sets, so applying them one by
    # one to the state tensor realizes Tr[rho (O_1 O_2 ... O_N)].
    for party in range(1, topology.n_parties + 1):
        sources = sorted(topology.incident_sources(party))
        positions = []
        for s in sources:
            a, _ = topology.endpoints(s)
            positions.append(2 * (s - 1) + (0 if a == party else 1))
        if (party, x[party]) in strategy.joint_observables:
            op = np.asarray(strategy.joint_observables[(party, x[party])], dtype=complex)
            if op.shape != (2 ** len(sources), 2 ** len(sources)):
                raise IncompleteStrategyError(
                    f"joint observable for party {party} has wrong dimension"
                )
        else:
            op = np.array([[1.0 + 0j]])
            for s in sources:
                op = np.kron(op, bloch_matrix(strategy.bloch(party, x[party], s)))
        rho_t = _apply_operator(rho_t, op, positions, n_qubits)
    full = rho_t.reshape(2**n_qubits, 2**n_qubits)
    return float(np.trace(full).real)


def _column_factors(
    ineq: NetworkInequality,
    states: dict[int, TwoQubitState],
    strategy: MeasurementStrategy,
    j: int,
) -> dict[int, float]:
    """Per-source contraction factors of the column-j correlator."""
    topology = ineq.topology
    leaf_set = {int(p) for p in ineq.leaves.leaf_set}
    factors = {}
    for s in range(1, topology.n_sources + 1):
        a, b = topology.endpoints(s)
        if a in leaf_set or b in leaf_set:
            leaf, partner = (a, b) if a in leaf_set else (b, a)
            m = ineq.fcbi_map[s]
            d = sum(
                m.entries[x - 1, j - 1] * strategy.bloch(leaf, x, s)
                for x in range(1, m.rows + 1)
            )
            v = strategy.bloch(partner, j, s)
            corr = states[s].corr
            factors[s] = float(d @ corr @ v) if leaf == a else float(v @ corr @ d)
        else:
            u = strategy.bloch(a, j, s)
            v = strategy.bloch(b, j, s)
            factors[s] = float(u @ states[s].corr @ v)
    return factors


def column_correlator(
    ineq: NetworkInequality,
    states: dict[int, TwoQubitState],
    strategy: MeasurementStrategy,
    j: int,
) -> float:
    """I_j via the per-source factorization."""
    value = 1.0
    for f in _column_factors(ineq, states, strategy, j).values():
        value *= f
    return value


def column_correlator_tensor(
    ineq: NetworkInequality,
    states: dict[int, TwoQubitState],
    strategy: MeasurementStrategy,
    j: int,
) -> float:
    """I_j by expanding the Delta sums and tracing the full tensor (oracle)."""
    leaf_list = [int(p) for p in ineq.leaves.leaf_set]
    matrices = [ineq.leaf_fcbi(p) for p in leaf_list]
    base = {int(p): j for p in ineq.leaves.intermediate_set}
    total = 0.0
    shape = [m.rows for m in matrices]
    for combo in np.ndindex(*shape):
        coeff = 1.0
        x = dict(base)
        for leaf, m, c in zip(leaf_list, matrices, combo):
            coeff *= m.entries[c, j - 1]
            x[leaf] = c + 1
        if coeff == 0.0:
            continue
        total += coeff * correlator_full_tensor(ineq.topology, states, strategy, x)
    return total


def evaluate_S(
    ineq: NetworkInequality,
    states: dict[int, TwoQubitState],
    strategy: MeasurementStrategy,
    tol: float = 1e-9,
    method: str = "factorized",
) -> EvaluationResult:
    """Evaluate all columns and assemble S = sum_j |I_j|^(1/l)."""
    strategy.validate(ineq.topology, input_counts_for(ineq))
    if method == "factorized":
        column = column_correlator
    elif method == "tensor":
        column = column_correlator_tensor
    else:
        raise ValueError(f"unknown evaluation method {method!r}")
    I = np.array([column(ineq, states, strategy, j) for j in range(1, ineq.k + 1)])
    S = float(np.abs(I) ** (1.0 / ineq.l) @ np.ones(ineq.k))
    return EvaluationResult(
        I=I,
        S=S,
        classical_violation=S > ineq.classical_bound + tol,
        quantum_saturation=abs(S - ineq.quantum_bound) <= tol,
    )


def _catalog_leaf_vectors(m) -> np.ndarray:
    """Catalog-optimal leaf Bloch vectors, one row per input."""
    if m.tag == CHSH:
        return np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    if m.tag == CHAINED:
        k = m.k_param
        angles = (np.arange(k)) * np.pi / k
        return np.stack([np.sin(angles), np.zeros(k), np.cos(angles)], axis=1)
    if m.tag == EBI:
        return np.eye(3)
    raise UnsupportedFcbiError(
        "optimal strategies are defined for catalog inequalities only; "
        "use the see-saw optimizer for custom matrices"
    )


def optimal_strategy(
    ineq: NetworkInequality, states: dict[int, TwoQubitState]
) -> MeasurementStrategy:
    """Bound-saturating strategy for catalog FCBIs.

    Leaves get the catalog-optimal observables; the partner qubit of each
    peripheral source is aligned with the correlation-contracted Delta
    direction (orientation already non-negative); intermediate sources are
    measured along sigma_z for every input.
    """
    strategy = MeasurementStrategy()
    leaf_set = {int(p) for p in ineq.leaves.leaf_set}
    for leaf in sorted(leaf_set):
        source = ineq.leaves.peripheral_map[leaf]
        m = ineq.fcbi_map[source]
        vectors = _catalog_leaf_vectors(m)
        for x in range(1, m.rows + 1):
            strategy.set(leaf, x, source, QubitObservable(vectors[x - 1]))
        a, b = ineq.topology.endpoints(source)
        partner = b if a == leaf else a
        corr = states[source].corr
        for j, d in enumerate(m.delta_vectors(vectors), start=1):
            contracted = corr.T @ d if leaf == a else corr @ d
            norm = np.linalg.norm(contracted)
            obs = (
                QubitObservable(contracted / norm) if norm > 1e-14 else SIGMA_Z
            )
            strategy.set(partner, j, source, obs)
    for u in ineq.intermediate_sources():
        a, b = ineq.topology.endpoints(u)
        for j in range(1, ineq.k + 1):
            strategy.set(a, j, u, SIGMA_Z)
            strategy.set(b, j, u, SIGMA_Z)
    return strategy


def check_conditions(
    ineq: NetworkInequality,
    states: dict[int, TwoQubitState],
    strategy: MeasurementStrategy,
    rank_tol: float = 1e-8,
    residual_tol: float = 1e-9,
) -> ConditionReport:
    """Verify the two saturation conditions for a strategy.

    Condition one: the matrix of per-column Delta norms across peripheral
    sources is rank one (or has a zero column). Condition two: every
    intermediate source contraction reaches its top singular value.
    """
    strategy.validate(ineq.topology, input_counts_for(ineq))
    peripheral = sorted(ineq.leaves.peripheral_set)
    leaf_of = {s: leaf for leaf, s in ineq.leaves.peripheral_map.items()}
    X = np.zeros((ineq.k, len(peripheral)))
    for col, s in enumerate(peripheral):
        leaf = leaf_of[s]
        m = ineq.fcbi_map[s]
        rows = [strategy.bloch(leaf, x, s) for x in range(1, m.rows + 1)]
        # Delta_j = (d_j . sigma) x 1 squares to |d_j|^2 times the identity,
        # so its norm on any state is |d_j|.
        X[:, col] = np.linalg.norm(m.delta_vectors(rows), axis=1)
    svals = np.linalg.svd(X, compute_uv=False)
    rank1 = bool(svals[0] > 0 and (len(svals) < 2 or svals[1] <= rank_tol * svals[0]))
    zero_column = bool(np.any(np.all(X <= residual_tol, axis=0)))

    residuals = {}
    ok = True
    for u in ineq.intermediate_sources():
        a, b = ineq.topology.endpoints(u)
        t0 = states[u].t0
        res = np.zeros(ineq.k)
        for j in range(1, ineq.k + 1):
            val = float(
                strategy.bloch(a, j, u) @ states[u].corr @ strategy.bloch(b, j, u)
            )
            res[j - 1] = abs(val - t0)
        residuals[u] = res
        ok = ok and bool(np.all(res <= residual_tol))

    return ConditionReport(
        X=X,
        x_singvals=svals,
        rank1=rank1,
        zero_column=zero_column,
        intermediate_residuals=residuals,
        saturated=(rank1 or zero_column) and ok,
    )
