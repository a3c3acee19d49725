"""Measurement strategies and the network contraction.

For traceless qubit observables on a product of two-qubit states, every
column correlator I_j is a tensor-network contraction of the per-source
correlation matrices. `contract` runs every contraction in the package,
the local-model oracle's too, as a greedy path planned once per labels and
shapes. In `_CrossObjective` each source enters as its factor
F_s = U_a T_s U_b^T, one row of Bloch vectors per endpoint input.

A `_CrossObjective` holds only what depends on its (target, host) pair:
endpoints, roles, folds, labels, leaf weights, input counts, the slot keys
in the order its arrays read them, and the plan of its contraction. States
enter every call as their correlation matrices, and a strategy is read in
one pass over the slot keys: `evaluate_S`, `check_conditions` and the
see-saw's random starts all take their rows in that order. An inequality
keeps the objective on its own network (`_own_objective`), built on first
use; `evaluate_S`, `check_conditions`, `input_counts_for` and
`optimizer.seesaw_network` reuse it, while `optimizer.discriminate` and
`optimizer.cross_evaluate` build one per call.

`check_conditions` decides rank one or a zero column by `_product_form`,
as `analysis.mahler_check` does, to one relative tolerance; it compares
|a^T T b| with t0, as a pair's sign only flips the sign of I_j.

`evaluate_S(method="tensor")` is the independent oracle for up to
MAX_ORACLE_SOURCES = 13 sources. One contraction traces the 4x4 source
density matrices against the party operators, each leaf measuring its Delta
operator, without forming either tensor product. It reads density matrices
and operators only, none of the Bloch data the engine contracts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .builder import NetworkInequality
from .errors import (
    IncompleteStrategyError,
    PartyCountMismatchError,
    TooLargeForExhaustiveError,
    UnsupportedFcbiError,
)
from .fcbi import CHAINED, CHSH, EBI, _normalize_rows
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
        if not abs(np.linalg.norm(n) - 1.0) <= 1e-12:  # NaN and inf fail too
            raise ValueError("Bloch vector must have unit norm")
        object.__setattr__(self, "n", n)

    @classmethod
    def from_direction(cls, v) -> "QubitObservable":
        v = np.asarray(v, dtype=float)
        norm = np.linalg.norm(v)
        if norm < 1e-14:
            raise ValueError("cannot normalize a zero direction")
        # A non-finite direction reaches the constructor undivided, which
        # refuses it without a floating-point warning.
        return cls(v / norm if np.isfinite(norm) else v)

    @property
    def matrix(self) -> np.ndarray:
        return bloch_matrix(self.n)


SIGMA_X = QubitObservable(np.array([1.0, 0.0, 0.0]))
SIGMA_Z = QubitObservable(np.array([0.0, 0.0, 1.0]))


@dataclass
class MeasurementStrategy:
    """Per (party, input, incident source) qubit observables: slots maps
    (party, input, source) -> QubitObservable."""

    slots: dict[tuple[int, int, int], QubitObservable] = field(default_factory=dict)

    def set(self, party: int, inp: int, source: int, obs) -> None:
        if not isinstance(obs, QubitObservable):
            obs = QubitObservable.from_direction(obs)
        self.slots[(party, inp, source)] = obs


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

    X holds the per-column Delta norms of each peripheral source, one column
    per source in ascending order; the bound is tight when X is rank one (or
    has a zero column), up to the relative tolerance _PRODUCT_FORM_RTOL, and
    every intermediate source is measured along its top correlation
    direction up to sign: intermediate_residuals[u][j] = ||a_j^T T_u b_j| - t0|.
    """

    X: np.ndarray
    x_singvals: np.ndarray
    rank1: bool
    zero_column: bool
    intermediate_residuals: dict[int, np.ndarray]
    saturated: bool


def input_counts_for(ineq: NetworkInequality) -> dict[int, int]:
    """Input count per party: FCBI rows for leaves, k for intermediates.

    Built once per inequality and shared by every call: read it, never
    change it.
    """
    return _own_objective(ineq).input_counts


# Operands of one einsum call: numpy 1.x takes fewer than 32, numpy 2 fewer
# than 64 (the output takes one more of the iterator's slots).
EINSUM_OPERANDS = 31

# Plan of `contract` by output, then each operand's labels and non-batch shape.
_PLANS: dict[tuple, list] = {}


def contract(operands, out) -> np.ndarray:
    """The einsum of (array, labels) pairs into the labels `out`.

    Labels are ints below 52; Ellipsis stands for broadcast batch axes,
    which lead or trail in an operand as they do in `out`. The plan is made
    once per output, labels and non-batch shapes, so a batch of any size
    reuses it. A call runs only C einsums, and it empties `operands` so
    that each input is freed once its step has run.
    """
    plan = _planned(operands, out)
    arrays = [a for a, _ in operands]
    operands.clear()
    return _run(plan, arrays)


def _planned(operands, out) -> list:
    """The plan `contract` runs for these (array, labels) pairs and `out`."""
    key = [tuple(out)]
    for a, ls in operands:
        ls = tuple(ls)
        n = len(ls) - (... in ls)
        key += ls, (a.shape[a.ndim - n:] if ls[:1] == (...,) else a.shape[:n])
    key = tuple(key)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _plan(key[1::2], key[2::2], list(out))
    return plan


def _run(plan, arrays) -> np.ndarray:
    """The result of a plan on its operand arrays; the list is consumed."""
    for pops, calls in plan:
        group = [arrays.pop(i) for i in pops]
        for subs, result in calls:
            product = np.einsum(*[x for op in zip(group, subs) for x in op], result)
            group = group[len(subs):] + [product]
        arrays += group
    return arrays[0]


def _plan(labels, cores, out) -> list:
    """Per step of numpy's greedy path, the operand positions it pops, in
    descending order, and its einsum calls over at most EINSUM_OPERANDS
    operands each. A call's product keeps, in ascending order, the labels
    the output, a later step or the rest of its step needs, batch axes
    leading or trailing as in `out`, and joins the rest of its step."""
    live, plan = [list(ls) for ls in labels], []
    bare = [[x for x in ls if x is not ...] for ls in [*live, out]]
    shapes = [np.broadcast_to(0.0, c) for c in cores]
    path = np.einsum_path(*(x for op in zip(shapes, bare) for x in op), bare[-1],
                          optimize="greedy")[0][1:]
    for step in path:
        pops = sorted(step, reverse=True)
        group = [live.pop(i) for i in pops]
        needed, calls = set(out).union(*live), []
        while True:
            subs, group = group[:EINSUM_OPERANDS], group[EINSUM_OPERANDS:]
            held = set().union(*subs)
            result = out
            if group or live:
                result = sorted(held & needed.union(*group) - {...})
                if ... in held:
                    result = [..., *result] if out[:1] == [...] else [*result, ...]
            calls.append((subs, result))
            if not group:
                break
            group.append(result)
        live.append(result)
        plan.append((pops, calls))
    return plan


# Labels of target leaves with several host sources; label 0 is the column j.
_LEAF_LABELS = 51

# Operand of a source by the roles of its endpoints (a, b): "j" for an
# intermediate, "l" for a leaf with its own label, "f" for a leaf whose
# only host source this is. Each entry is the einsum that reduces
# F[x_a, x_b] and the folded leaves' weights to R (None: R = F), and the
# axes of R, with a and b standing for the endpoints' leaf labels.
_OPERANDS = {
    ("j", "j"): ("...jj->...j", "j"),
    ("j", "l"): (None, "jb"),
    ("j", "f"): ("...jy,yj->...j", "j"),
    ("l", "j"): (None, "aj"),
    ("l", "l"): (None, "ab"),
    ("l", "f"): ("...ay,yj->...aj", "aj"),
    ("f", "j"): ("...xj,xj->...j", "j"),
    ("f", "l"): ("...xb,xj->...bj", "bj"),
    ("f", "f"): ("...xy,xj,yj->...j", "j"),
}


class _CrossObjective:
    """S of a target inequality evaluated on strategies of a host network.

    The target supplies the leaf set, Delta coefficients, column count, and
    exponent 1/l; the host supplies the sources and endpoints. When host and
    target coincide this is the plain network objective, which
    `_own_objective` builds once per inequality and keeps on it.

    Everything held here depends on (target, host) alone and is built once:
    endpoints, roles, folds, labels, leaf weights, input counts, slot keys
    and, on the first `columns` call, the contraction plan. No state is
    held: states enter each call as corrs, the list of their correlation
    matrices T_i in host source order (`corrs`).

    A strategy is held as one (inputs, 3) array of Bloch rows per source
    endpoint: vecs[i] = [U_a, U_b] for host source i + 1 with endpoints
    (a, b), the rows of the slot keys (party, input, source) in endpoint
    order. Source i enters the contraction as its operand R_i: the factor
    F_i = U_a T_i U_b^T with the weights M_p[:, j] of every target leaf p
    whose only host source it is summed in, and the diagonal taken where
    both axes carry the column index j. `columns` contracts the R_i and
    the weights of the leaves with several host sources (a host other than
    the target can have them; each takes a label) along a planned path.
    Every I_j is linear in each endpoint's rows, so the block coefficients
    of an endpoint are the same contraction evaluated at unit rows.

    Every array may carry leading batch axes, one strategy per leading
    index: endpoint rows of shape (..., inputs, 3) give operands and
    columns of shape (..., *) and one value per leading index. The Delta
    weights and correlation matrices are shared by the batch.
    """

    def __init__(self, target: NetworkInequality, host: NetworkTopology):
        if host.n_parties != target.topology.n_parties:
            raise PartyCountMismatchError(
                "host and target networks must have the same party count"
            )
        self.k = target.k
        self.l = target.l
        self.intermediate = set(target.leaves.intermediate_set.tolist())
        peripheral = target.leaves.peripheral_map
        # Input count per party in the host strategy space: FCBI rows for
        # leaves, k for intermediates.
        self.input_counts = dict.fromkeys(target.leaves.intermediate_set.tolist(), self.k)
        self.input_counts.update(
            (p, target.fcbi_map[s].rows) for p, s in peripheral.items()
        )
        leaf_weights = {p: target.fcbi_map[s].entries for p, s in peripheral.items()}
        lettered = [p for p in leaf_weights if host.degrees[p - 1] > 1]
        if len(lettered) > _LEAF_LABELS:
            raise TooLargeForExhaustiveError(
                f"{len(lettered)} leaves with several host sources exceed the "
                f"{_LEAF_LABELS} einsum indices"
            )
        index = {p: n for n, p in enumerate(lettered, start=1)}
        role = dict.fromkeys(self.intermediate, "j")
        role.update(dict.fromkeys(lettered, "l"))
        self._weights = [(leaf_weights[p], [index[p], 0]) for p in lettered]
        self._path = None  # contract's plan for `columns`, taken on its first call

        self.ends = [tuple(e) for e in host.edges.tolist()]
        self._folds, self._labels = [], []
        for i, (a, b) in enumerate(self.ends):
            roles = role.get(a, "f"), role.get(b, "f")
            spec, axes = _OPERANDS[roles]
            folded = [leaf_weights[p] for p, r in zip((a, b), roles) if r == "f"]
            self._folds.append(None if spec is None else (spec, folded))
            labels = {"a": index.get(a), "b": index.get(b), "j": 0}
            self._labels.append([..., *(labels[c] for c in axes)])

        # Endpoint (i, side) owns the slot keys, and so the rows on axis -2,
        # that _spans[i][side] selects.
        self.slot_keys = [
            (p, inp, i + 1)
            for i, ends in enumerate(self.ends)
            for p in ends
            for inp in range(1, self.input_counts[p] + 1)
        ]
        self._slot_set = frozenset(self.slot_keys)
        sizes = [self.input_counts[p] for ends in self.ends for p in ends]
        b = list(itertools.accumulate(sizes, initial=0))
        spans = [np.s_[..., lo:hi, :] for lo, hi in zip(b, b[1:])]
        self._spans = list(zip(spans[::2], spans[1::2]))

    def corrs(self, states: dict[int, TwoQubitState]) -> list[np.ndarray]:
        """The correlation matrices of the host's sources, in source order."""
        return [states[s].corr for s in range(1, len(self.ends) + 1)]

    def check(self, strategy: MeasurementStrategy) -> None:
        """Raise IncompleteStrategyError unless the strategy has every slot
        of the host, naming the first missing (party, input, source)."""
        if not strategy.slots.keys() >= self._slot_set:
            p, x, s = min(self._slot_set - strategy.slots.keys())
            raise IncompleteStrategyError(
                f"missing observable for party {p}, input {x}, source {s}"
            )

    def gather(self, strategy: MeasurementStrategy) -> list[list[np.ndarray]]:
        """The strategy's endpoint arrays in slot-key order; `check` has found them all."""
        slots = strategy.slots
        return self._split(np.array([slots[key].n for key in self.slot_keys]))

    def _split(self, rows: np.ndarray) -> list[list[np.ndarray]]:
        """Endpoint arrays, as views, of rows (..., slots, 3) in slot-key order."""
        return [[rows[a], rows[b]] for a, b in self._spans]

    def strategy(self, vecs) -> MeasurementStrategy:
        """The strategy of the endpoint arrays; a zero row becomes sigma_z."""
        strategy = MeasurementStrategy()
        for i, ends in enumerate(self.ends):
            for p, rows in zip(ends, vecs[i]):
                for inp, vec in enumerate(_normalize_rows(rows), start=1):
                    strategy.slots[(p, inp, i + 1)] = (
                        QubitObservable(vec) if vec @ vec > 0.5 else SIGMA_Z
                    )
        return strategy

    def factor(self, vecs, corrs, i: int) -> np.ndarray:
        """The operand R_i of source i."""
        a_rows, b_rows = vecs[i]
        return self._fold(a_rows @ corrs[i] @ b_rows.swapaxes(-1, -2), i)

    def _fold(self, f: np.ndarray, i: int) -> np.ndarray:
        """R_i from the factor F_i: the folded leaves summed in, diagonal taken."""
        if self._folds[i] is None:
            return f
        spec, folded = self._folds[i]
        return np.einsum(spec, f, *folded)

    def factors(self, vecs, corrs) -> list[np.ndarray]:
        return [self.factor(vecs, corrs, i) for i in range(len(self.ends))]

    def columns(self, factors) -> np.ndarray:
        """All k column correlators I_j.

        The operands' non-batch shapes are fixed by (target, host), so the
        plan `contract` would look up is taken once, on the first call.
        """
        if self._path is None:
            self._path = _planned([*zip(factors, self._labels), *self._weights], [..., 0])
        return _run(self._path, [*factors, *(w for w, _ in self._weights)])

    def value(self, factors) -> np.ndarray:
        """S = sum_j |I_j|^(1/l), one value per leading index."""
        return np.sum(np.abs(self.columns(factors)) ** (1.0 / self.l), axis=-1)

    def block_coeffs(self, vecs, corrs, factors, i: int, side: int) -> np.ndarray:
        """H with I_j = sum_x H[..., x, j] . U[..., x] for the endpoint rows
        U = vecs[i][side], of shape (..., inputs, k, 3).

        Every I_j is linear in U, so H[x, j, c] is I_j with U replaced by the
        unit rows e_(x, c). The 3 * inputs unit rows ride on a new axis ahead
        of the batch axes, and `columns` contracts them all at once; H does
        not depend on U or on factors[i].
        """
        rows = vecs[i][side]
        n = rows.shape[-2]
        ends = list(vecs[i])
        ends[side] = np.eye(3 * n).reshape((3 * n,) + (1,) * (rows.ndim - 2) + (n, 3))
        unit = self._fold(ends[0] @ corrs[i] @ ends[1].swapaxes(-1, -2), i)
        cols = self.columns([unit if t == i else f for t, f in enumerate(factors)])
        h = np.moveaxis(cols, 0, -2).reshape(cols.shape[1:-1] + (n, 3, self.k))
        return h.swapaxes(-1, -2)


def _own_objective(ineq: NetworkInequality) -> _CrossObjective:
    """The inequality's objective on its own network, built on first use and
    kept on the inequality."""
    if ineq._objective is None:
        object.__setattr__(ineq, "_objective", _CrossObjective(ineq, ineq.topology))
    return ineq._objective


# Four labels per source, a row and a column per qubit, planned at once: 52.
MAX_ORACLE_SOURCES = 13


def _party_operator(topology, strategy, party: int, inp: int) -> np.ndarray:
    """The party's operator for one input, on its qubits in ascending source order."""
    op = np.array([[1.0 + 0j]])
    for s in topology.incident_sources(party):
        op = np.kron(op, strategy.slots[(party, inp, s)].matrix)
    return op


def column_correlator_tensor(
    ineq: NetworkInequality,
    states: dict[int, TwoQubitState],
    strategy: MeasurementStrategy,
    j: int,
) -> float:
    """I_j as one trace (oracle): by linearity each leaf measures its Delta
    operator sum_x M[x, j] A_x and each intermediate party measures input j.

    Tr[(rho_1 x ... x rho_M)(O_1 x ... x O_N)] is one contraction. Qubit
    q = 2(s - 1) + side of source s (side 0 is its first party) has row
    index 2q and column index 2q + 1; operator rows meet state columns."""
    topo, leaves = ineq.topology, ineq.leaves.peripheral_map
    m = topo.n_sources
    if m > MAX_ORACLE_SOURCES:
        raise TooLargeForExhaustiveError(
            f"{m} sources exceed the operator-level oracle's limit of "
            f"{MAX_ORACLE_SOURCES}"
        )
    operands = []
    for s in range(1, m + 1):
        r = 4 * (s - 1)
        operands.append((states[s].matrix.reshape(2, 2, 2, 2), [r, r + 2, r + 1, r + 3]))
    for p in range(1, topo.n_parties + 1):
        if p in leaves:
            fcbi = ineq.leaf_fcbi(p)
            ops = [_party_operator(topo, strategy, p, x) for x in range(1, fcbi.rows + 1)]
            op = np.tensordot(fcbi.entries[:, j - 1], ops, axes=1)
        else:
            op = _party_operator(topo, strategy, p, j)
        qubits = [2 * s - 2 + (topo.endpoints(s)[0] != p) for s in topo.incident_sources(p)]
        op = op.reshape((2,) * (2 * len(qubits)))
        operands.append((op, [2 * q + 1 for q in qubits] + [2 * q for q in qubits]))
    return float(contract(operands, []).real)


def evaluate_S(
    ineq: NetworkInequality,
    states: dict[int, TwoQubitState],
    strategy: MeasurementStrategy,
    tol: float = 1e-9,
    method: str = "factorized",
) -> EvaluationResult:
    """Evaluate all columns and assemble S = sum_j |I_j|^(1/l)."""
    obj = _own_objective(ineq)
    obj.check(strategy)
    if method == "factorized":
        I = obj.columns(obj.factors(obj.gather(strategy), obj.corrs(states)))
    elif method == "tensor":
        I = np.array([
            column_correlator_tensor(ineq, states, strategy, j)
            for j in range(1, ineq.k + 1)
        ])
    else:
        raise ValueError(f"unknown evaluation method {method!r}")
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
        leaf_rows = _catalog_leaf_vectors(m)
        for x in range(1, m.rows + 1):
            strategy.set(leaf, x, source, QubitObservable(leaf_rows[x - 1]))
        a, b = ineq.topology.endpoints(source)
        partner = b if a == leaf else a
        corr = states[source].corr
        for j, d in enumerate(m.delta_vectors(leaf_rows), start=1):
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


# Tolerance of the product-form equality, relative to X's top singular value.
# S moves only to second order in sigma2 / sigma1, so 1e-6 moves it by about
# 1e-12 relative.
_PRODUCT_FORM_RTOL = 1e-6


def _product_form(X: np.ndarray) -> tuple[np.ndarray, bool, bool]:
    """X's singular values; whether sigma2 <= r sigma1 (rank one), r being
    _PRODUCT_FORM_RTOL; and whether a column is below r^(2q) sigma1 for q
    columns (a zero column: a column of size e sigma1 moves either side of
    the product form by about e^(1/q))."""
    svals = np.linalg.svd(X, compute_uv=False)
    top, *rest = svals.tolist()
    rank1 = top > 0 and (not rest or rest[0] <= _PRODUCT_FORM_RTOL * top)
    zero_floor = top * _PRODUCT_FORM_RTOL ** (2 * X.shape[1])
    zero_column = min(X.max(axis=0).tolist()) <= zero_floor
    return svals, rank1, zero_column


def check_conditions(
    ineq: NetworkInequality,
    states: dict[int, TwoQubitState],
    strategy: MeasurementStrategy,
) -> ConditionReport:
    """Verify the two saturation conditions for a strategy.

    Condition one: X, the per-column Delta norms of the peripheral sources
    in ascending order, is rank one or has a zero column (`_product_form`).
    Condition two: every intermediate pair has |a_j^T T b_j| = t0; at -t0 it
    only flips the sign of I_j. The rows are read once, in slot-key order.
    """
    obj = _own_objective(ineq)
    obj.check(strategy)
    vecs = obj.gather(strategy)
    # Delta_j = (d_j . sigma) x 1 squares to |d_j|^2 times the identity, so
    # its norm on any state is |d_j|; d = M^T U for the leaf's rows U.
    d = [
        ineq.fcbi_map[s].entries.T @ vecs[s - 1][obj.ends[s - 1].index(p)]
        for s, p in sorted((s, p) for p, s in ineq.leaves.peripheral_map.items())
    ]
    X = np.sqrt(np.einsum("sjc,sjc->js", d, d))
    svals, rank1, zero_column = _product_form(X)

    residuals, worst = {}, 0.0
    for u in ineq.intermediate_sources():
        a_rows, b_rows = vecs[u - 1]
        state = states[u]
        residuals[u] = abs(abs((a_rows @ state.corr * b_rows).sum(axis=1)) - state.t0)
        worst = max(worst, residuals[u].max().item())

    return ConditionReport(
        X=X,
        x_singvals=svals,
        rank1=rank1,
        zero_column=zero_column,
        intermediate_residuals=residuals,
        saturated=(rank1 or zero_column) and worst <= 1e-9,
    )
