"""Search machinery: network see-saw, local-hidden-variable oracle, and
topology discrimination.

The network objective is one tensor-network contraction. Each host source s
holds a factor matrix F_s = U_a T_s U_b^T, with one row of Bloch vectors per
input of each endpoint. Every target leaf gets its own einsum index, summed
against its weights M_leaf[:, j]; every intermediate party's input is the
column index j. So all k column correlators I_j come from one np.einsum.

The see-saw is a coordinate ascent over all Bloch-vector slots. I_j is
affine in one slot's vector, I_j = c_j + g_j . n, and (c, g) come from the
environment of F_s: the same contraction with F_s left out. Slots whose
input is only used in a single column admit an exact closed-form update
(the objective is linear in them); leaf slots enter every column and are
polished by projected gradient on the sphere. After a slot update only F_s
is recomputed. Restarts use sub-seeds derived from the master seed, so
results do not depend on execution order.

The exhaustive oracle enumerates the deterministic leaf response tables;
intermediate parties answer +1, since their sign cannot change |I_j|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from .builder import NetworkInequality
from .errors import (
    BadRestartsError,
    PartyCountMismatchError,
    TooFewLeavesError,
    TooLargeForExhaustiveError,
    UnsupportedFcbiError,
)
from .evaluator import (
    MeasurementStrategy,
    QubitObservable,
    evaluate_S,
    input_counts_for,
)
from .fcbi import CHSH, sign_table
from .qstate import TwoQubitState
from .topology import NetworkTopology, find_leaves

EXHAUSTIVE_CAP_BITS = 24
HIDDEN_SPACE_CAP = 2**12

VIOLATED = "VIOLATED"
BOUNDARY = "BOUNDARY"
NOT_FOUND = "NOT_FOUND"


@dataclass
class SearchReport:
    """Outcome of a randomized search."""

    best_value: float | None  # None when the search drew nothing (zero budget)
    best_config: object
    restarts_used: int
    seed: int
    converged: bool
    history: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@dataclass
class LocalModel:
    """Source-local hidden-variable model.

    weights[s] is a distribution over the alphabet of source s;
    responses[p] has shape (inputs_p, prod of incident alphabet sizes) with
    +/-1 entries, incident sources ordered by ascending index.
    """

    cardinalities: dict[int, int]
    weights: dict[int, np.ndarray]
    responses: dict[int, np.ndarray]


def _normalize(v: np.ndarray) -> np.ndarray:
    n = math.sqrt(v @ v)
    return v / n if n > 1e-14 else v


# ---------------------------------------------------------------------------
# The contraction engine. A strategy is held as one (inputs, 3) array of Bloch
# rows per source endpoint: vecs[i] = [U_a, U_b] for host source i + 1 with
# endpoints (a, b), and each source enters as its factor F_i = U_a T_i U_b^T.
# _to_strategy normalizes the rows and maps a zero row to sigma_z.
# ---------------------------------------------------------------------------

# einsum index of each target leaf; "j" is the column index that every
# intermediate party's input is tied to.
_LEAF_INDICES = "abcdefghiklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _to_strategy(raw: dict) -> MeasurementStrategy:
    strategy = MeasurementStrategy()
    for (party, inp, source), vec in raw.items():
        n = np.linalg.norm(vec)
        vec = vec / n if n > 1e-14 else np.array([0.0, 0.0, 1.0])
        strategy.slots[(party, inp, source)] = QubitObservable(vec)
    return strategy


class _CrossObjective:
    """S of a target inequality evaluated on strategies of a host network.

    The target supplies the leaf set, Delta coefficients, column count, and
    exponent 1/l; the host supplies the sources, states, and slot layout.
    When host and target coincide this is the plain network objective.

    A source joining two intermediates only enters through its diagonal
    F_i[j, j]; the product of those diagonals is a single einsum operand, so
    the operand count grows with the leaf-side sources only.
    """

    def __init__(
        self,
        target: NetworkInequality,
        host: NetworkTopology,
        states: dict[int, TwoQubitState],
    ):
        if host.n_parties != target.topology.n_parties:
            raise PartyCountMismatchError(
                "host and target networks must have the same party count"
            )
        if target.l > len(_LEAF_INDICES):
            raise TooLargeForExhaustiveError(
                f"{target.l} leaves exceed the {len(_LEAF_INDICES)} einsum indices"
            )
        self.k = target.k
        self.l = target.l
        self.intermediate = {int(p) for p in target.leaves.intermediate_set}
        index = dict.fromkeys(self.intermediate, "j")
        # Input count per party in the host strategy space.
        self.input_counts = dict.fromkeys(self.intermediate, self.k)
        self.weights = []
        weight_subs = []
        for p, letter in zip(target.leaves.leaf_set, _LEAF_INDICES):
            m = target.leaf_fcbi(int(p)).entries
            index[int(p)] = letter
            self.input_counts[int(p)] = m.shape[0]
            self.weights.append(m)
            weight_subs.append(letter + "j")

        sources = range(1, host.n_sources + 1)
        self.ends = [host.endpoints(s) for s in sources]
        self.corrs = [states[s].corr for s in sources]
        self.inner, self.outer = [], []
        for i, (a, b) in enumerate(self.ends):
            both = a in self.intermediate and b in self.intermediate
            (self.inner if both else self.outer).append(i)
        subs = [index[a] + index[b] for a, b in self.ends]
        self._value_spec = ",".join(
            ["j"] + [subs[i] for i in self.outer] + weight_subs
        ) + "->j"

        # Environment of F_i: the same contraction with F_i left out, expanded
        # to G_i[x_a, x_b, j] = dI_j / dF_i[x_a, x_b]. An intermediate endpoint
        # has input j in column j, hence the delta(x, j) mask.
        eye = np.eye(self.k)
        self._env_specs, self._env_shapes, self._env_masks = [], [], []
        for i, (a, b) in enumerate(self.ends):
            kept = [subs[t] for t in self.outer if t != i]
            out = "".join(index[p] for p in (a, b) if p not in self.intermediate)
            self._env_specs.append(",".join(["j"] + kept + weight_subs) + "->" + out + "j")
            shape, mask = [], np.ones((self.input_counts[a], self.input_counts[b], self.k))
            for axis, p in enumerate((a, b)):
                if p in self.intermediate:
                    shape.append(1)
                    mask *= np.expand_dims(eye, 1 - axis)
                else:
                    shape.append(self.input_counts[p])
            self._env_shapes.append((*shape, self.k))
            self._env_masks.append(mask)

        # Slot order: party, then input, then incident source.
        self.slots = [
            (p, inp, s)
            for p in range(1, host.n_parties + 1)
            for inp in range(1, self.input_counts[p] + 1)
            for s in host.incident_sources(p)
        ]

    def _side(self, party: int, i: int) -> int:
        return 0 if self.ends[i][0] == party else 1

    def vectors(self, row) -> list[list[np.ndarray]]:
        """Endpoint arrays with row(party, input, source) filled in slot order."""
        vecs = [
            [np.zeros((self.input_counts[a], 3)), np.zeros((self.input_counts[b], 3))]
            for a, b in self.ends
        ]
        for party, inp, s in self.slots:
            vecs[s - 1][self._side(party, s - 1)][inp - 1] = row(party, inp, s)
        return vecs

    def raw_slots(self, vecs) -> dict:
        return {
            (party, inp, s): vecs[s - 1][self._side(party, s - 1)][inp - 1]
            for party, inp, s in self.slots
        }

    def factor(self, vecs, i: int) -> np.ndarray:
        a_rows, b_rows = vecs[i]
        return a_rows @ self.corrs[i] @ b_rows.T

    def factors(self, vecs) -> list[np.ndarray]:
        return [self.factor(vecs, i) for i in range(len(self.ends))]

    def _diagonals(self, factors, skip: int | None = None) -> np.ndarray:
        d = np.ones(self.k)
        for i in self.inner:
            if i != skip:
                d = d * np.diagonal(factors[i])
        return d

    def columns(self, factors) -> np.ndarray:
        """All k column correlators I_j."""
        return np.einsum(
            self._value_spec,
            self._diagonals(factors),
            *[factors[i] for i in self.outer],
            *self.weights,
        )

    def value(self, factors) -> float:
        return float(np.sum(np.abs(self.columns(factors)) ** (1.0 / self.l)))

    def environment(self, factors, i: int) -> np.ndarray:
        """G_i with shape (inputs of a, inputs of b, k); it does not depend on F_i."""
        env = np.einsum(
            self._env_specs[i],
            self._diagonals(factors, skip=i),
            *[factors[t] for t in self.outer if t != i],
            *self.weights,
        )
        return env.reshape(self._env_shapes[i]) * self._env_masks[i]

    def affected_columns(self, party: int, inp: int) -> list[int]:
        """0-based columns whose correlator depends on the party's input."""
        if party in self.intermediate:
            return [inp - 1]
        return list(range(self.k))

    def affine_coeffs(
        self, factors, vecs, env: np.ndarray, slot: tuple[int, int, int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """I_j = c_j + g_j . n for every column j, with n the slot's vector.

        c_j sums the entries of F_i * G_i whose input at the slot's party is
        not the slot's input; g_j contracts the remaining environment row
        with T_i and the other endpoint's vectors.
        """
        party, inp, source = slot
        i = source - 1
        corr = self.corrs[i]
        if self._side(party, i) == 0:
            f, other = factors[i], vecs[i][1] @ corr.T
        else:
            f, env, other = factors[i].T, env.transpose(1, 0, 2), vecs[i][0] @ corr
        rows = np.einsum("po,poj->pj", f, env)
        c = np.delete(rows, inp - 1, axis=0).sum(axis=0)
        g = env[inp - 1].T @ other
        return c, g


def _max_abs_powersum(
    cs: np.ndarray, gs: np.ndarray, l: int, start: np.ndarray
) -> np.ndarray:
    """Maximize sum_j |c_j + g_j . n|^(1/l) over the unit sphere.

    Candidate directions plus projected-gradient polish with backtracking;
    the returned vector never scores below `start`.
    """
    p = 1.0 / l

    def h(n):
        return float(np.add.reduce(np.abs(cs + gs @ n) ** p))

    candidates = [start]
    for g in gs:
        norm = math.sqrt(g @ g)
        if norm > 1e-14:
            candidates.append(g / norm)
            candidates.append(-g / norm)
    best = max(candidates, key=h)
    best_val = h(best)

    n, val, step = best, best_val, 0.5
    for _ in range(60):
        v = cs + gs @ n
        mags = np.maximum(np.abs(v), 1e-12)
        grad = (p * mags ** (p - 1.0) * np.sign(v)) @ gs
        improved = False
        while step > 1e-12:
            cand = _normalize(n + step * grad)
            cand_val = h(cand)
            if cand_val > val:
                gain = cand_val - val
                n, val = cand, cand_val
                step = min(step * 1.5, 2.0)
                improved = True
                break
            step *= 0.5
        if not improved or gain < 1e-13:
            break
    return n if val >= best_val else best


def _seesaw_once(obj: _CrossObjective, rng, sweeps: int = 120, tol: float = 1e-11):
    vecs = obj.vectors(lambda *slot: _normalize(rng.normal(size=3)))
    factors = obj.factors(vecs)
    value = obj.value(factors)
    converged = False
    # Updating a slot of source i changes F_i only, so G_i stays valid until
    # a slot of another source is visited.
    env_source, env = None, None
    for _ in range(sweeps):
        for slot in obj.slots:
            party, inp, source = slot
            i = source - 1
            if i != env_source:
                env_source, env = i, obj.environment(factors, i)
            cols = obj.affected_columns(party, inp)
            cs, gs = obj.affine_coeffs(factors, vecs, env, slot)
            rows = vecs[i][obj._side(party, i)]
            if len(cols) == 1:
                c, g = cs[cols[0]], gs[cols[0]]
                norm = np.linalg.norm(g)
                if norm > 1e-14:
                    rows[inp - 1] = np.sign(c) * g / norm if c != 0.0 else g / norm
            else:
                rows[inp - 1] = _max_abs_powersum(
                    cs[cols], gs[cols], obj.l, rows[inp - 1]
                )
            factors[i] = obj.factor(vecs, i)
        new_value = obj.value(factors)
        if new_value - value < tol:
            value = max(value, new_value)
            converged = True
            break
        value = new_value
    return value, vecs, converged


def _run_restarts(obj: _CrossObjective, restarts: int, seed: int) -> SearchReport:
    if restarts < 1:
        raise BadRestartsError(f"restarts must be at least 1, got {restarts}")
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    best_value, best_vecs = -np.inf, None
    history = []
    any_converged = False
    for child in seeds:
        rng = np.random.default_rng(child)
        value, vecs, conv = _seesaw_once(obj, rng)
        history.append(value)
        any_converged = any_converged or conv
        if value > best_value:
            best_value, best_vecs = value, vecs
    return SearchReport(
        best_value=best_value,
        best_config=_to_strategy(obj.raw_slots(best_vecs)),
        restarts_used=restarts,
        seed=seed,
        converged=any_converged,
        history=history,
    )


def seesaw_network(
    ineq: NetworkInequality,
    states: dict[int, TwoQubitState],
    restarts: int = 32,
    seed: int = 0,
) -> SearchReport:
    """Maximize S over separable strategies on the inequality's own network."""
    obj = _CrossObjective(ineq, ineq.topology, states)
    report = _run_restarts(obj, restarts, seed)
    # Round-trip through the public evaluator so the reported value is the
    # one any caller would recompute.
    result = evaluate_S(ineq, states, report.best_config)
    report.best_value = max(report.best_value, result.S)
    return report


def discriminate(
    ineq_target: NetworkInequality,
    topology_source: NetworkTopology,
    states: dict[int, TwoQubitState],
    restarts: int = 64,
    seed: int = 0,
    tol: float = 1e-6,
) -> SearchReport:
    """Maximize the target inequality over strategies realizable in another
    network of the same size.

    The verdict is three-valued: VIOLATED if the search exceeded sqrt(2) by
    more than tol, BOUNDARY within tol of sqrt(2), NOT_FOUND otherwise. A
    NOT_FOUND is a search outcome, not a proof of impossibility.
    """
    for m in ineq_target.fcbi_map.values():
        if m.tag != CHSH:
            raise UnsupportedFcbiError(
                "topology discrimination is defined for the two-input CHSH map"
            )
    obj = _CrossObjective(ineq_target, topology_source, states)
    report = _run_restarts(obj, restarts, seed)
    bound = np.sqrt(2.0)
    if report.best_value > bound + tol:
        verdict = VIOLATED
    elif report.best_value >= bound - tol:
        verdict = BOUNDARY
    else:
        verdict = NOT_FOUND
    report.extra["verdict"] = verdict
    report.extra["quantum_bound"] = bound
    return report


def cross_evaluate(
    ineq_target: NetworkInequality,
    topology_source: NetworkTopology,
    states: dict[int, TwoQubitState],
    strategy: MeasurementStrategy,
) -> float:
    """Evaluate the target S for an explicit strategy on the host network."""
    obj = _CrossObjective(ineq_target, topology_source, states)
    return obj.value(obj.factors(obj.vectors(strategy.bloch)))


# ---------------------------------------------------------------------------
# Local-hidden-variable oracle
# ---------------------------------------------------------------------------


def classical_oracle(
    ineq: NetworkInequality,
    cardinalities: dict[int, int] | None = None,
    mode: str = "exhaustive",
    budget: int = 10_000,
    seed: int = 0,
) -> SearchReport:
    """Max S over source-local classical models.

    exhaustive: all deterministic response tables with point-mass hidden
    variables (complete for the deterministic extreme points).
    random: budgeted random mixtures - Dirichlet weights over each source
    alphabet and random +/-1 response tables, averaged over the hidden
    product alphabet.
    """
    if mode == "exhaustive":
        return _oracle_exhaustive(ineq)
    if mode == "random":
        return _oracle_random(ineq, cardinalities, budget, seed)
    raise ValueError(f"unknown oracle mode {mode!r}")


def _oracle_exhaustive(ineq: NetworkInequality) -> SearchReport:
    # An intermediate party's +/-1 output only flips the sign of I_j, which
    # |I_j| ignores, so intermediates stay at +1 and only the leaf tables are
    # enumerated. In the full enumeration the first maximum has every
    # intermediate at +1 too, so the reported model is the same.
    counts = input_counts_for(ineq)
    leaves = [int(p) for p in ineq.leaves.leaf_set]
    leaf_bits = sum(counts[p] for p in leaves)
    if leaf_bits > EXHAUSTIVE_CAP_BITS:
        raise TooLargeForExhaustiveError(
            f"2^{leaf_bits} deterministic leaf assignments exceed the cap"
        )
    # One row per deterministic leaf assignment; each leaf contributes its
    # Delta row.
    prod = np.ones((1, ineq.k))
    for p in leaves:
        signs = sign_table(counts[p], np.arange(2 ** counts[p]))
        table = signs @ ineq.leaf_fcbi(p).entries  # (2^r, k)
        prod = (prod[:, None, :] * table[None, :, :]).reshape(-1, ineq.k)
    s_all = (np.abs(prod) ** (1.0 / ineq.l)).sum(axis=1)
    best_idx = int(np.argmax(s_all))

    codes = np.unravel_index(best_idx, [2 ** counts[p] for p in leaves])
    leaf_code = dict(zip(leaves, codes))
    responses = {}
    for p in sorted(counts):
        if p in leaf_code:
            signs = sign_table(counts[p], leaf_code[p])
        else:
            signs = np.ones(counts[p])
        responses[p] = signs[:, None].astype(float)
    model = LocalModel(
        cardinalities={s: 1 for s in range(1, ineq.topology.n_sources + 1)},
        weights={s: np.array([1.0]) for s in range(1, ineq.topology.n_sources + 1)},
        responses=responses,
    )
    return SearchReport(
        best_value=float(s_all[best_idx]),
        best_config=model,
        restarts_used=len(s_all),
        seed=0,
        converged=True,
    )


def _incident_sorted(topology: NetworkTopology, party: int) -> list[int]:
    return sorted(topology.incident_sources(party))


def evaluate_local_model(ineq: NetworkInequality, model: LocalModel) -> float:
    """S of a local model, averaging over the hidden product alphabet."""
    counts = input_counts_for(ineq)
    parties = sorted(counts)
    leaf_set = {int(p) for p in ineq.leaves.leaf_set}
    topology = ineq.topology
    sources = list(range(1, topology.n_sources + 1))
    alphabets = [range(model.cardinalities[s]) for s in sources]

    I = np.zeros(ineq.k)
    for lam in iter_product(*alphabets):
        lam_of = dict(zip(sources, lam))
        weight = 1.0
        for s in sources:
            weight *= float(model.weights[s][lam_of[s]])
        for j in range(1, ineq.k + 1):
            term = weight
            for p in parties:
                inc = _incident_sorted(topology, p)
                idx = 0
                for s in inc:
                    idx = idx * model.cardinalities[s] + lam_of[s]
                if p in leaf_set:
                    m = ineq.leaf_fcbi(p)
                    term *= float(
                        m.entries[:, j - 1] @ model.responses[p][:, idx]
                    )
                else:
                    term *= float(model.responses[p][j - 1, idx])
            I[j - 1] += term
    return float(np.sum(np.abs(I) ** (1.0 / ineq.l)))


def _oracle_random(
    ineq: NetworkInequality,
    cardinalities: dict[int, int] | None,
    budget: int,
    seed: int,
) -> SearchReport:
    topology = ineq.topology
    sources = list(range(1, topology.n_sources + 1))
    cards = {s: 2 for s in sources}
    if cardinalities:
        cards.update({int(s): int(c) for s, c in cardinalities.items()})
    space = int(np.prod([cards[s] for s in sources]))
    if space > HIDDEN_SPACE_CAP:
        raise TooLargeForExhaustiveError(
            f"hidden product alphabet of size {space} exceeds the cap"
        )
    counts = input_counts_for(ineq)
    parties = sorted(counts)
    leaf_set = {int(p) for p in ineq.leaves.leaf_set}
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    best_value, best_model = -np.inf, None
    chunk = 4096
    done = 0
    while done < budget:
        n = min(chunk, budget - done)
        weights = {
            s: rng.dirichlet(np.ones(cards[s]), size=n) for s in sources
        }
        responses = {}
        for p in parties:
            size = int(np.prod([cards[s] for s in _incident_sorted(topology, p)]))
            responses[p] = rng.choice(
                [-1.0, 1.0], size=(n, counts[p], size)
            )
        I = np.zeros((n, ineq.k))
        for lam in iter_product(*[range(cards[s]) for s in sources]):
            lam_of = dict(zip(sources, lam))
            w = np.ones(n)
            for s in sources:
                w = w * weights[s][:, lam_of[s]]
            for j in range(1, ineq.k + 1):
                term = w.copy()
                for p in parties:
                    inc = _incident_sorted(topology, p)
                    idx = 0
                    for s in inc:
                        idx = idx * cards[s] + lam_of[s]
                    if p in leaf_set:
                        m = ineq.leaf_fcbi(p)
                        term = term * (responses[p][:, :, idx] @ m.entries[:, j - 1])
                    else:
                        term = term * responses[p][:, j - 1, idx]
                I[:, j - 1] += term
        s_all = (np.abs(I) ** (1.0 / ineq.l)).sum(axis=1)
        idx = int(np.argmax(s_all))
        if s_all[idx] > best_value:
            best_value = float(s_all[idx])
            best_model = LocalModel(
                cardinalities=dict(cards),
                weights={s: weights[s][idx] for s in sources},
                responses={p: responses[p][idx] for p in parties},
            )
        done += n
    # A zero budget draws no model, so there is no value to report.
    return SearchReport(
        best_value=best_value if best_model is not None else None,
        best_config=best_model,
        restarts_used=budget,
        seed=seed,
        converged=best_model is not None,
    )


# ---------------------------------------------------------------------------
# Visibility windows
# ---------------------------------------------------------------------------


def uniform_visibility_threshold(l: int, m: int) -> float:
    """Per-source critical visibility (1/sqrt(2))^(l/m) for the CHSH map."""
    return float(2.0 ** (-l / (2.0 * m)))


def visibility_window(
    topology_a: NetworkTopology, topology_b: NetworkTopology
) -> dict:
    """Uniform-Werner visibility thresholds for two same-size networks.

    States with per-source visibility strictly inside the window violate
    only the inequality of the network with the larger leaf count.
    """
    results = {}
    for name, topology in (("a", topology_a), ("b", topology_b)):
        leaves = find_leaves(topology)
        if leaves.l < 2:
            raise TooFewLeavesError(
                f"topology {name} has {leaves.l} leaf nodes; need at least 2"
            )
        results[name] = {
            "l": leaves.l,
            "m": topology.n_sources,
            "threshold": uniform_visibility_threshold(leaves.l, topology.n_sources),
        }
    lo = min(results["a"]["threshold"], results["b"]["threshold"])
    hi = max(results["a"]["threshold"], results["b"]["threshold"])
    results["window"] = (lo, hi)
    return results
