"""Search machinery: network see-saw, local-hidden-variable oracle, and
topology discrimination.

The see-saw is a block coordinate ascent over the source endpoints of the
contraction engine `evaluator._CrossObjective`. With everything else fixed,
I_j = sum_x H[x, j] . U[x] is linear in an endpoint's Bloch rows U, so H
is read off the engine's one contraction, `columns`, evaluated with U
replaced by the unit rows e_(x, c). An intermediate party's input x enters
column x only, so its whole block has the closed-form update
U[x] = H[x, x] / |H[x, x]|; a leaf's input enters every column, and each of
its rows is polished by the modified-Newton ascent `fcbi._sphere_ascent`
with r = 1, which the bipartite see-saw's finish shares. Each H is first
divided by its largest entry: the best block does not depend on that scale,
and on networks with tens of leaves the raw entries fall below the updates'
absolute floors (1e-14 on norms, 1e-12 on magnitudes). A source's operand is
recomputed once both its endpoints are updated: neither block's H depends
on it.

The restarts run through `fcbi.best_of_restarts`, which the bipartite
see-saw uses too: a chunk of restarts is one array of the engine's rows,
(restarts, slots, 3) in slot-key order, and an endpoint's block is the view
the engine's `spans` select. `_sweep` updates every block of the live
restarts once, recomputing the source operands from their rows, and a
leaf's rows are polished for every live restart at once.

The exhaustive oracle enumerates the deterministic leaf response tables;
intermediate parties answer +1, since their sign cannot change |I_j|.
Local models are the classical twin: `_local_columns` contracts source
weights and party response tables over the hidden variables, models as
batch axes. `_draw_models` draws each chunk with the values of numpy's
dirichlet and integers(0, 2) calls, in fewer passes over the same stream.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .builder import NetworkInequality
from .errors import TooLargeForExhaustiveError, UnsupportedFcbiError
from .evaluator import (
    MeasurementStrategy, _CrossObjective, _own_objective, contract, input_counts_for,
)
from .fcbi import (
    CHSH, SIGN_BLOCK_BITS, _normalize_rows, _sphere_ascent, best_of_restarts,
    sign_table,
)
from .qstate import TwoQubitState
from .topology import NetworkTopology

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


def _powersum(cs: np.ndarray, gs: np.ndarray, l: int):
    """sum_j |c_j + g_j . n|^(1/l) at rows n (B, 1, 3), and its Euclidean
    derivatives with |.| floored at 1e-12; cs (B, k), gs (B, k, 3)."""
    p = 1.0 / l

    def value(n):
        return (np.abs(cs + np.einsum("bjc,bc->bj", gs, n[:, 0])) ** p).sum(axis=-1)

    def derivs(n):
        v = cs + np.einsum("bjc,bc->bj", gs, n[:, 0])
        mags = np.maximum(np.abs(v), 1e-12)
        slope = p * mags ** (p - 1.0)
        g = (slope * np.sign(v))[:, None] @ gs
        h = (gs * ((p - 1.0) * slope / mags)[..., None]).transpose(0, 2, 1) @ gs
        return g, h[:, None, :, None]

    return value, derivs


def _draw(obj: _CrossObjective, rngs) -> np.ndarray:
    """Starting rows (restarts, slots, 3); restart r draws its rows from
    rngs[r] in slot-key order."""
    rows = np.stack([rng.normal(size=(len(obj.slot_keys), 3)) for rng in rngs])
    return _normalize_rows(rows)


def _sweep(obj: _CrossObjective, corrs, rows: np.ndarray):
    """Update every endpoint block of the batch of rows in place; returns
    the new values and which restarts had a block with a nonzero H."""
    factors = obj.factors(rows, corrs)
    moved = np.zeros(len(rows), dtype=bool)
    for i, ends in enumerate(obj.ends):
        for side, party in enumerate(ends):
            span = obj.spans[i][side]
            h = obj.block_coeffs(rows, corrs, factors, i, side)
            scale = np.abs(h).max(axis=(1, 2, 3))
            # A restart whose H is all zero has nothing to move here.
            ok = scale > 0.0
            moved |= ok
            h = h[ok] / scale[ok, None, None, None]
            u = rows[span][ok]
            if party in obj.intermediate:
                # Input x enters column x only: I_x = H[x, x] . U[x].
                u = _normalize_rows(np.einsum("bxxc->bxc", h), fallback=u)
            else:
                for x in range(u.shape[1]):
                    c = np.einsum("byjc,byc->bj", h, u) - np.einsum(
                        "bjc,bc->bj", h[:, x], u[:, x]
                    )
                    u[:, x] = _sphere_ascent(
                        u[:, x, None], *_powersum(c, h[:, x], obj.l)
                    )[0][:, 0]
            rows[span][ok] = u
        factors[i] = obj.factor(rows, corrs, i)
    return obj.value(factors), moved


def _run_restarts(obj: _CrossObjective, states, restarts: int, seed: int) -> SearchReport:
    corrs = obj.corrs(states)
    value, rows, history, converged = best_of_restarts(
        lambda rngs: _draw(obj, rngs),
        lambda rows: obj.value(obj.factors(rows, corrs)),
        lambda rows: _sweep(obj, corrs, rows),
        restarts, seed, sweeps=120, tol=1e-11,
    )
    return SearchReport(
        best_value=value,
        best_config=obj.strategy(rows),
        restarts_used=restarts,
        seed=seed,
        converged=converged,
        history=history,
    )


def seesaw_network(
    ineq: NetworkInequality,
    states: dict[int, TwoQubitState],
    restarts: int = 32,
    seed: int = 0,
) -> SearchReport:
    """Maximize S over separable strategies on the inequality's own network."""
    return _run_restarts(_own_objective(ineq), states, restarts, seed)


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
    for m in ineq_target.maps:
        if m.tag != CHSH:
            raise UnsupportedFcbiError(
                "topology discrimination is defined for the two-input CHSH map"
            )
    obj = _CrossObjective(ineq_target, topology_source)
    report = _run_restarts(obj, states, restarts, seed)
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
    obj = _CrossObjective(ineq_target, topology_source)
    return float(obj.value(obj.factors(obj.gather(strategy), obj.corrs(states))))


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

    Raises ValueError for an unknown mode and, in random mode, for a budget
    that is not a non-negative integer or a cardinality that is not a
    positive integer for one of the network's sources.
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
    # Each leaf's Delta row for each of its codes; a leaf assignment's
    # columns are their product. Codes run in blocks of 2^SIGN_BLOCK_BITS,
    # the last leaf's fastest, and the first maximum in that order is kept.
    def blocks(n):
        step = 2**SIGN_BLOCK_BITS
        return (np.arange(lo, min(lo + step, n)) for lo in range(0, n, step))

    tables = [
        np.concatenate([sign_table(counts[p], c) @ ineq.leaf_fcbi(p).entries
                        for c in blocks(2 ** counts[p])])
        for p in leaves
    ]
    shape = [len(t) for t in tables]
    best_value, best_idx = -np.inf, 0
    for c in blocks(2**leaf_bits):
        prod = np.ones((len(c), ineq.k))
        for table, code in zip(tables, np.unravel_index(c, shape)):
            prod *= table[code]
        s_block = (np.abs(prod) ** (1.0 / ineq.l)).sum(axis=1)
        i = int(np.argmax(s_block))
        if s_block[i] > best_value:
            best_value, best_idx = float(s_block[i]), int(c[i])

    codes = np.unravel_index(best_idx, shape)
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
        best_value=best_value,
        best_config=model,
        restarts_used=2**leaf_bits,
        seed=0,
        converged=True,
    )


def _local_columns(
    ineq: NetworkInequality,
    cards: dict[int, int],
    weights: dict[int, np.ndarray],
    responses: dict[int, np.ndarray],
) -> np.ndarray:
    """Column correlators I, shape (k, models), of a batch of local models.

    The model axis is last: weights[s] has shape (cards[s], models) and
    responses[p] shape (inputs_p, prod of incident alphabet sizes, models).
    Each operand is held that way and contiguous: a source's weights as
    (c_s, models), or (models,) for an alphabet of 1; a party's table split
    row-major over its incident sources of alphabet above 1, in ascending
    order, as (inputs, c_s1, c_s2, ..., models). A leaf's inputs are first
    summed against its Delta weights M[:, j]; an intermediate's inputs are
    the k columns. `contract` sums them, models as trailing batch axes, with
    label 0 for the column j and 1, 2, ... for the sources of alphabet above
    1 in ascending order (HIDDEN_SPACE_CAP allows 12 of them).
    """
    leaf_set = {int(p) for p in ineq.leaves.leaf_set}
    labelled = [s for s in sorted(cards) if cards[s] > 1]
    label = {s: i for i, s in enumerate(labelled, start=1)}
    operands: list = []
    for s, w in weights.items():
        operands.append((np.ascontiguousarray(w), [label[s], ...]) if s in label
                        else (np.ascontiguousarray(w[0]), [...]))
    for p in range(1, ineq.topology.n_parties + 1):
        inc = [s for s in ineq.topology.incident_sources(p) if s in label]
        r = responses[p]
        table = r.reshape(r.shape[:1] + tuple(cards[s] for s in inc) + r.shape[-1:])
        if p in leaf_set:
            table = np.tensordot(ineq.leaf_fcbi(p).entries, table, ([0], [0]))
        operands.append((np.ascontiguousarray(table), [0, *[label[s] for s in inc], ...]))
    return contract(operands, [0, ...])


def evaluate_local_model(ineq: NetworkInequality, model: LocalModel) -> float:
    """S of a local model, averaging over the hidden product alphabet."""
    I = _local_columns(
        ineq,
        model.cardinalities,
        {s: np.asarray(w)[:, None] for s, w in model.weights.items()},
        {p: np.asarray(r)[..., None] for p, r in model.responses.items()},
    )
    return float(np.sum(np.abs(I[:, 0]) ** (1.0 / ineq.l)))


def _draw_models(rng, n, cards, shapes):
    """Source weights and party response tables of n random local models,
    model axis last, drawn from the stream of

        {s: rng.dirichlet(np.ones(c), n) for s, c in cards.items()}
        {p: rng.integers(0, 2, (n, *shape), dtype=np.int64) * 2 - 1
         for p, shape in shapes.items()}

    with the same values. numpy's dirichlet with every alpha 1 draws
    standard_gamma(1), which is standard_exponential, row by row, and
    multiplies each row by 1 / (its sequential sum); a sum over the outer
    axis of a contiguous (c, n) array is sequential too, where a sum along
    a row would be pairwise. integers(0, 2) takes one 32-bit draw per value
    and returns its top bit (Lemire's method never rejects for a range of
    2). PCG64 hands out its 32-bit draws two to a 64-bit word, low half
    first, and keeps an odd one's other half for the next 32-bit draw, so
    ceil(signs / 2) raw words give every table's signs in the same order
    as long as no half is left over from an earlier call: the caller draws
    an even number of signs in every chunk but the last.
    """
    weights = {}
    for s, c in cards.items():
        e = np.ascontiguousarray(rng.standard_exponential((n, c)).T)
        e *= 1.0 / e.sum(axis=0)
        weights[s] = e
    sizes = [int(np.prod(shape)) for shape in shapes.values()]
    total = n * sum(sizes)
    # Little-endian words read as int32 give the low half first on any
    # machine; ~x >> 31 | 1 is +1 where x's top bit is set and -1 elsewhere.
    signs = rng.bit_generator.random_raw(-(-total // 2)).astype("<u8", copy=False).view("<i4")
    np.invert(signs, out=signs)
    signs >>= 31
    signs |= 1
    responses = {}
    start = 0
    for (p, shape), size in zip(shapes.items(), sizes):
        table = np.empty((size, n))
        table[...] = signs[start:start + n * size].reshape(n, size).T
        responses[p] = table.reshape(*shape, n)
        start += n * size
    return weights, responses


def _whole(value, what: str, least: int) -> int:
    """value as an int, if it is an integer (not a float) of at least `least`."""
    try:
        out = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if out < least:
        raise ValueError(f"{what} must be at least {least}, got {out}")
    return out


def _oracle_random(
    ineq: NetworkInequality,
    cardinalities: dict[int, int] | None,
    budget: int,
    seed: int,
) -> SearchReport:
    topology = ineq.topology
    sources = list(range(1, topology.n_sources + 1))
    budget = _whole(budget, "budget", 0)
    cards = {s: 2 for s in sources}
    for s, c in (cardinalities or {}).items():
        source = _whole(s, "cardinality source", 1)
        if source > topology.n_sources:
            raise ValueError(
                f"cardinality given for source {source}; the network has "
                f"{topology.n_sources} sources"
            )
        cards[source] = _whole(c, f"cardinality of source {source}", 1)
    space = int(np.prod([cards[s] for s in sources]))
    if space > HIDDEN_SPACE_CAP:
        raise TooLargeForExhaustiveError(
            f"hidden product alphabet of size {space} exceeds the cap"
        )
    counts = input_counts_for(ineq)
    parties = sorted(counts)
    alphabets = {s: cards[s] for s in sources}
    shapes = {
        p: (counts[p], int(np.prod([cards[s] for s in topology.incident_sources(p)])))
        for p in parties
    }
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    best_value, best_model = -np.inf, None
    # An even chunk draws an even number of signs (see `_draw_models`).
    chunk = 4096
    done = 0
    while done < budget:
        n = min(chunk, budget - done)
        weights, responses = _draw_models(rng, n, alphabets, shapes)
        I = _local_columns(ineq, cards, weights, responses)
        s_all = (np.abs(I) ** (1.0 / ineq.l)).sum(axis=0)
        idx = int(np.argmax(s_all))
        if s_all[idx] > best_value:
            best_value = float(s_all[idx])
            best_model = LocalModel(
                cardinalities=dict(cards),
                weights={s: weights[s][:, idx].copy() for s in sources},
                responses={p: responses[p][..., idx].copy() for p in parties},
            )
        # Freed before the next draw, so that only one chunk is ever alive.
        del weights, responses, I, s_all
        done += n
    # A zero budget draws no model, so there is no value to report.
    return SearchReport(
        best_value=best_value if best_model is not None else None,
        best_config=best_model,
        restarts_used=budget,
        seed=seed,
        converged=best_model is not None,
    )
