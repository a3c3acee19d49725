import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netbell import evaluator, fcbi, optimizer
from netbell.analysis import critical_visibility_uniform
from netbell.builder import build_inequality, mixed_state_bound
from netbell.errors import (
    BadRestartsError,
    PartyCountMismatchError,
    TooLargeForExhaustiveError,
    UnsupportedFcbiError,
)
from netbell.evaluator import (
    MeasurementStrategy,
    check_conditions,
    evaluate_S,
    input_counts_for,
    optimal_strategy,
)
from netbell.fcbi import (
    CHAINED,
    CHSH,
    EBI,
    _ascend,
    _normalize_rows,
    _sphere_ascent,
    best_of_restarts,
    custom_matrix,
    make_catalog,
)
from netbell.networks import (
    chain5_strategy_for_tree5,
    chain_topology,
    chsh_inequality,
    six_party_topology,
    tree5_topology,
)
from netbell.optimizer import (
    LocalModel,
    _CrossObjective,
    _draw,
    _local_columns,
    _powersum,
    _run_restarts,
    _sweep,
    classical_oracle,
    cross_evaluate,
    discriminate,
    evaluate_local_model,
    seesaw_network,
)
from netbell.qstate import WernerSpec, max_entangled, random_mixed, werner
from netbell.topology import build_topology, find_leaves
from scalar_reference import (
    local_model_S, max_abs_powersum, reference_columns, reference_S, seesaw_restart,
)


@pytest.fixture(scope="module")
def bilocal():
    topo = chain_topology(3)
    return chsh_inequality(topo)


def test_seesaw_bilocal_werner(bilocal):
    v = 0.9
    states = {1: werner(WernerSpec(v)), 2: werner(WernerSpec(v))}
    rep = seesaw_network(bilocal, states, restarts=8, seed=0)
    assert rep.converged
    assert rep.best_value == pytest.approx(np.sqrt(2.0) * v, abs=1e-6)


def test_seesaw_deterministic(bilocal):
    states = {1: max_entangled(), 2: max_entangled()}
    a = seesaw_network(bilocal, states, restarts=4, seed=7)
    b = seesaw_network(bilocal, states, restarts=4, seed=7)
    assert a.best_value == b.best_value
    assert a.history == b.history


def test_seesaw_without_correlations_is_not_converged(bilocal):
    """With white noise on every source no block can move: no restart
    searched anything, so none counts as converged."""
    states = {1: werner(WernerSpec(0.0)), 2: werner(WernerSpec(0.0))}
    rep = seesaw_network(bilocal, states, restarts=2, seed=0)
    assert rep.best_value == 0.0
    assert not rep.converged


def test_oracle_exhaustive_bilocal(bilocal):
    rep = classical_oracle(bilocal, mode="exhaustive")
    assert rep.best_value == 1.0
    # the reported model reproduces the reported value
    assert evaluate_local_model(bilocal, rep.best_config) == pytest.approx(1.0)


def test_oracle_random_below_exhaustive(bilocal):
    rep = classical_oracle(bilocal, mode="random", budget=3000, seed=2)
    assert rep.best_value <= 1.0 + 1e-9
    audited = evaluate_local_model(bilocal, rep.best_config)
    assert audited == pytest.approx(rep.best_value, abs=1e-12)


def test_oracle_exhaustive_cap():
    topo = chain_topology(3)
    ineq = build_inequality(
        topo, 13, {s: make_catalog(CHAINED, 13) for s in (1, 2)}
    )
    with pytest.raises(TooLargeForExhaustiveError):
        classical_oracle(ineq, mode="exhaustive")


def _chained_11_pair():
    return build_inequality(
        chain_topology(3), 11, {s: make_catalog(CHAINED, 11) for s in (1, 2)}
    )


def _custom_20_row_leaf():
    entries = np.random.default_rng(0).choice([-0.5, 0.5], size=(20, 2))
    return build_inequality(
        chain_topology(3), 2, {1: custom_matrix(entries, restarts=2), 2: make_catalog(CHSH)}
    )


# A CHSH leaf's Delta row has one nonzero column, so next to it the best is
# the root of the custom leaf's largest column sum, 10.
@pytest.mark.memory
@pytest.mark.parametrize(
    "make, best", [(_chained_11_pair, 10.0), (_custom_20_row_leaf, np.sqrt(10.0))]
)
def test_oracle_exhaustive_memory(make, best):
    """2^22 leaf assignments run in blocks: the whole (2^22, k) product table
    of two chained-11 leaves would take 369 MB, and the (2^20, 20) sign
    table of one 20-row leaf 168 MB."""
    ineq = make()
    tracemalloc.start()
    try:
        rep = classical_oracle(ineq, mode="exhaustive")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.restarts_used == 2**22
    assert rep.best_value == pytest.approx(best, abs=1e-12)
    # The geometric-mean bound holds, and is loose next to the custom leaf:
    # sqrt(10) against sqrt(11).
    assert rep.best_value <= ineq.classical_bound + 1e-12
    assert evaluate_local_model(ineq, rep.best_config) == pytest.approx(
        rep.best_value, abs=1e-12
    )
    assert peak < 64 * 2**20, peak


def test_oracle_random_alphabet_cap(bilocal):
    with pytest.raises(TooLargeForExhaustiveError):
        classical_oracle(
            bilocal, cardinalities={1: 100, 2: 100}, mode="random", budget=10
        )


def test_oracle_unknown_mode(bilocal):
    with pytest.raises(ValueError):
        classical_oracle(bilocal, mode="annealing")


def test_explicit_cross_strategy(tree5, chain5):
    ineq = chsh_inequality(tree5)
    states = {s: max_entangled() for s in range(1, 5)}
    value = cross_evaluate(ineq, chain5, states, chain5_strategy_for_tree5())
    assert value == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_discriminate_tree_on_chain(tree5, chain5):
    ineq = chsh_inequality(tree5)
    states = {s: max_entangled() for s in range(1, 5)}
    rep = discriminate(ineq, chain5, states, restarts=8, seed=0)
    assert rep.best_value >= np.sqrt(2.0) - 1e-6
    assert rep.extra["verdict"] in ("BOUNDARY", "VIOLATED")


def test_discriminate_party_count_mismatch(tree5):
    ineq = chsh_inequality(tree5)
    with pytest.raises(PartyCountMismatchError):
        discriminate(ineq, chain_topology(4), {})


def test_discriminate_requires_two_input_map(six_party, tree5):
    ineq = build_inequality(
        six_party, 3, {s: make_catalog(CHAINED, 3) for s in (1, 3, 5)}
    )
    with pytest.raises(UnsupportedFcbiError):
        discriminate(ineq, six_party, {})


def test_uniform_threshold_values(bilocal, tree5):
    # CHSH on (l, M) = (2, 2) and (3, 4): uniform Werner threshold 2^(-l/2M).
    tree = chsh_inequality(tree5)
    assert (bilocal.l, bilocal.topology.n_sources) == (2, 2)
    assert (tree.l, tree.topology.n_sources) == (3, 4)
    assert critical_visibility_uniform(bilocal) == pytest.approx(1 / np.sqrt(2))
    assert critical_visibility_uniform(tree) == pytest.approx(2.0 ** -0.375)


# -- contraction engine -------------------------------------------------------


def _asymmetric():
    return build_inequality(
        six_party_topology(),
        4,
        {1: make_catalog(EBI), 3: make_catalog(EBI), 5: make_catalog(CHAINED, 4)},
    )


def _random_strategy(ineq, host, rng):
    """Random unit Bloch vectors on every slot of the host network."""
    counts = {int(p): ineq.k for p in ineq.leaves.intermediate_set}
    counts.update({int(p): ineq.leaf_fcbi(int(p)).rows for p in ineq.leaves.leaf_set})
    strategy = MeasurementStrategy()
    for p in range(1, host.n_parties + 1):
        for x in range(1, counts[p] + 1):
            for s in host.incident_sources(p):
                strategy.set(p, x, s, rng.normal(size=3))
    return strategy


def _case(name):
    if name == "tree5_on_chain5":
        return chsh_inequality(tree5_topology()), chain_topology(5)
    if name == "tree5_on_ring5":
        return chsh_inequality(tree5_topology()), build_topology(
            5, [(p, p % 5 + 1) for p in range(1, 6)]
        )
    ineq = _asymmetric()
    return ineq, ineq.topology


@pytest.mark.parametrize("name", ["tree5_on_chain5", "six_party_asymmetric"])
def test_cross_evaluate_matches_correlator_sum(name):
    """Source 4 of the chain5 host joins the tree leaves 4 and 5."""
    ineq, host = _case(name)
    rng = np.random.default_rng(3)
    states = {s: random_mixed(10 + s) for s in range(1, host.n_sources + 1)}
    for _ in range(3):
        strategy = _random_strategy(ineq, host, rng)
        assert cross_evaluate(ineq, host, states, strategy) == pytest.approx(
            reference_S(ineq, host, states, strategy), abs=1e-12
        )


def _random_tree(n, rng):
    return [(int(rng.integers(1, i)), i) for i in range(2, n + 1)]


@given(
    st.integers(min_value=3, max_value=6),
    st.sampled_from([2, 3, 4]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_cross_evaluate_random_trees(n, k, host_cycle, seed):
    """Random target tree and random host on the same parties; the host may
    close one cycle."""
    rng = np.random.default_rng(seed)
    target = build_topology(n, _random_tree(n, rng))
    catalog = {2: [make_catalog(CHSH)], 3: [make_catalog(CHAINED, 3)],
               4: [make_catalog(EBI), make_catalog(CHAINED, 4)]}[k]
    peripheral = sorted(find_leaves(target).peripheral_set)
    ineq = build_inequality(
        target, k, {s: catalog[int(rng.integers(len(catalog)))] for s in peripheral}
    )
    host_edges = _random_tree(n, rng)
    missing = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
               if (a, b) not in host_edges and (b, a) not in host_edges]
    if host_cycle:
        host_edges.append(missing[int(rng.integers(len(missing)))])
    host = build_topology(n, host_edges)
    states = {s: random_mixed(int(rng.integers(1000))) for s in range(1, host.n_sources + 1)}
    strategy = _random_strategy(ineq, host, rng)
    assert cross_evaluate(ineq, host, states, strategy) == pytest.approx(
        reference_S(ineq, host, states, strategy), abs=1e-12
    )


def test_cross_evaluate_reaches_every_endpoint_kind_pair():
    """80 generated pairs: a random 4- to 7-party target tree with chained-3
    on its peripheral sources, and a host that is another random tree on
    the same parties with up to two extra sources and every source's
    endpoints in random order. A host endpoint is an intermediate of the
    target ("column"), a target leaf with one host source ("delta") or one
    with several ("lettered"); every ordered pair of kinds that a connected
    host allows occurs, and S equals the scalar reference to 1e-12."""
    rng = np.random.default_rng(28)
    seen = set()
    for _ in range(80):
        n = int(rng.integers(4, 8))
        target = build_topology(n, _random_tree(n, rng))
        ineq = build_inequality(
            target, 3, dict.fromkeys(find_leaves(target).peripheral_set, make_catalog(CHAINED, 3))
        )
        edges = _random_tree(n, rng)
        missing = [(a, b) for a, b in combinations(range(1, n + 1), 2)
                   if (a, b) not in edges and (b, a) not in edges]
        edges += [missing[i] for i in rng.permutation(len(missing))[:rng.integers(0, 3)]]
        host = build_topology(n, [e[::-1] if rng.random() < 0.5 else e for e in edges])

        def kind(p):
            if p in ineq.leaves.intermediate_set:
                return "column"
            return "delta" if host.degrees[p - 1] == 1 else "lettered"

        seen.update((kind(a), kind(b)) for a, b in host.edges.tolist())
        states = {s: random_mixed(int(rng.integers(2**31))) for s in range(1, host.n_sources + 1)}
        strategy = _random_strategy(ineq, host, rng)
        np.testing.assert_allclose(
            cross_evaluate(ineq, host, states, strategy),
            reference_S(ineq, host, states, strategy), rtol=1e-12, atol=0,
        )
    kinds = ("column", "delta", "lettered")
    assert seen == {(a, b) for a in kinds for b in kinds} - {("delta", "delta")}


@pytest.mark.parametrize(
    "name", ["tree5_on_chain5", "tree5_on_ring5", "six_party_asymmetric"]
)
def test_block_coeffs_reproduce_columns(name):
    """For every source endpoint, sum_x H[x, j] . U[x] is the scalar
    correlator sum I_j whatever the endpoint's rows U. The unit rows ride
    ahead of the batch axes, so H of a batch of 3 strategies is, entry by
    entry, the H of each strategy alone. On the ring host every tree5 leaf
    has two host sources."""
    ineq, host = _case(name)
    rng = np.random.default_rng(5)
    states = {s: random_mixed(20 + s) for s in range(1, host.n_sources + 1)}
    obj = _CrossObjective(ineq, host)
    corrs = obj.corrs(states)
    batch = _starts(obj, np.random.SeedSequence(5).spawn(3))
    for i in range(len(obj.ends)):
        for side in (0, 1):
            span = obj.spans[i][side]
            h_batch = obj.block_coeffs(batch, corrs, obj.factors(batch, corrs), i, side)
            for b in range(3):
                rows = batch[b].copy()
                h = obj.block_coeffs(rows, corrs, obj.factors(rows, corrs), i, side)
                np.testing.assert_allclose(h_batch[b], h, rtol=0, atol=1e-15)
            for _ in range(2):
                u = rng.normal(size=rows[span].shape)
                rows[span] = u / np.linalg.norm(u, axis=1, keepdims=True)
                expected = reference_columns(ineq, host, states, obj.strategy(rows))
                np.testing.assert_allclose(
                    np.einsum("xjc,xc->j", h, rows[span]), expected, rtol=0, atol=1e-12
                )


def test_oracle_exhaustive_asymmetric():
    """Leaf-only enumeration: 2^(3+3+4) rows, intermediates answer +1."""
    ineq = _asymmetric()
    rep = classical_oracle(ineq, mode="exhaustive")
    assert rep.best_value == pytest.approx(4.080083823052, abs=1e-12)
    assert rep.restarts_used == 2**10
    assert evaluate_local_model(ineq, rep.best_config) == pytest.approx(
        rep.best_value, abs=1e-12
    )
    for p in ineq.leaves.intermediate_set:
        assert np.all(rep.best_config.responses[int(p)] == 1.0)


def test_search_refuses_zero_restarts(bilocal, tree5):
    states = {1: max_entangled(), 2: max_entangled()}
    with pytest.raises(BadRestartsError):
        seesaw_network(bilocal, states, restarts=0)
    tree_states = {s: max_entangled() for s in range(1, 5)}
    with pytest.raises(BadRestartsError):
        discriminate(chsh_inequality(tree5), tree5, tree_states, restarts=0)


def test_oracle_random_zero_budget(bilocal):
    rep = classical_oracle(bilocal, mode="random", budget=0)
    assert rep.best_value is None
    assert rep.best_config is None
    assert not rep.converged


def test_contraction_leaf_cap():
    """Only leaves with several host sources need their own einsum index; a
    52-leaf star target on a ring host has too many."""
    star = chsh_inequality(build_topology(53, [(1, p) for p in range(2, 54)]))
    ring = build_topology(53, [(p, p % 53 + 1) for p in range(1, 54)])
    states = {s: max_entangled() for s in range(1, 54)}
    with pytest.raises(TooLargeForExhaustiveError):
        discriminate(star, ring, states, restarts=1)


@pytest.mark.parametrize("n", [14, 51])
def test_star_on_ring_matches_transfer_matrices(n):
    """The n-leaf star target on the (n + 1)-party ring host: same size,
    different leaf counts, and every leaf with two host sources, so each
    takes a label of its own; n = 51 is the most the engine takes. Around
    the ring, I_j is the (j, j) entry of F_1 D_2 F_2 ... D_N F_N, with
    F_s = U_s T_s U_(s+1)^T and D_p = diag(M_p[:, j]) at each leaf."""
    size = n + 1
    star = chsh_inequality(build_topology(size, [(1, p) for p in range(2, size + 1)]))
    ring = build_topology(size, [(p, p % size + 1) for p in range(1, size + 1)])
    states = {s: random_mixed(100 + s) for s in range(1, size + 1)}
    strategy = _random_strategy(star, ring, np.random.default_rng(n))
    counts = input_counts_for(star)

    def factor(s):
        a, b = s, s % size + 1
        rows = [[strategy.slots[(p, x, s)].n for x in range(1, counts[p] + 1)] for p in (a, b)]
        f = np.array(rows[0]) @ states[s].corr @ np.array(rows[1]).T
        return f if ring.endpoints(s) == (a, b) else f.T

    expected = 0.0
    for j in range(star.k):
        chain = factor(1)
        for p in range(2, size + 1):
            chain = chain @ np.diag(star.leaf_fcbi(p).entries[:, j]) @ factor(p)
        expected += abs(chain[j, j]) ** (1.0 / star.l)
    assert cross_evaluate(star, ring, states, strategy) == pytest.approx(expected, rel=1e-12)



@pytest.mark.parametrize("name", ["tree5", "six_party_asymmetric"])
def test_local_columns_match_scalar_loop(name, monkeypatch):
    """The batched local-model contraction against the scalar loop, with
    hidden alphabets of sizes 1, 2 and 3 mixed over the sources, and with
    every alphabet 1, where no label is summed and the one planned step
    names every operand. One plan, made for 5 models, serves 2 and 1."""
    ineq = chsh_inequality(tree5_topology()) if name == "tree5" else _asymmetric()
    topo = ineq.topology
    counts = input_counts_for(ineq)
    rng = np.random.default_rng(6)
    n = 5
    sources = range(1, topo.n_sources + 1)
    alphabets = [
        dict(zip(sources, rng.permutation([1 + i % 3 for i in sources]).tolist()))
        for _ in range(3)
    ] + [dict.fromkeys(sources, 1)]
    einsum_path = np.einsum_path
    paths = []

    def planned(*args, **kwargs):
        result = einsum_path(*args, **kwargs)
        paths.append(result[0][1:])
        return result

    monkeypatch.setattr(np, "einsum_path", planned)
    monkeypatch.setattr(evaluator, "_PLANS", {})
    for cards in alphabets:
        evaluator._PLANS.clear()
        paths.clear()
        weights = {s: rng.dirichlet(np.ones(c), size=n) for s, c in cards.items()}
        responses = {
            p: rng.choice([-1.0, 1.0], size=(
                n, counts[p], int(np.prod([cards[s] for s in topo.incident_sources(p)]))
            ))
            for p in counts
        }
        I = _local_columns(
            ineq, cards, {s: w.T for s, w in weights.items()},
            {p: np.moveaxis(r, 0, -1) for p, r in responses.items()},
        )
        tail = _local_columns(
            ineq, cards, {s: w[3:].T for s, w in weights.items()},
            {p: np.moveaxis(r[3:], 0, -1) for p, r in responses.items()},
        )
        batched = (np.abs(np.hstack([I, tail])) ** (1.0 / ineq.l)).sum(axis=0)
        for i, b in zip([*range(n), 3, 4], batched):
            model = LocalModel(
                cardinalities=cards,
                weights={s: w[i] for s, w in weights.items()},
                responses={p: r[i] for p, r in responses.items()},
            )
            expected = local_model_S(ineq, model)
            assert b == pytest.approx(expected, abs=1e-12)
            assert evaluate_local_model(ineq, model) == pytest.approx(expected, abs=1e-12)
        assert len(paths) == 1
        if max(cards.values()) == 1:
            assert paths[0] == [tuple(range(topo.n_sources + topo.n_parties))]


def test_local_models_on_long_chains():
    """Random local models on an 80-party chain whose sources of alphabet
    above 1 are indexed past numpy's 52 einsum labels, against the scalar
    loop."""
    ineq = chsh_inequality(chain_topology(80))
    cards = {**dict.fromkeys(range(1, 80), 1), 60: 2, 75: 3}
    rep = classical_oracle(ineq, cards, mode="random", budget=50, seed=1)
    expected = local_model_S(ineq, rep.best_config)
    assert rep.best_value == pytest.approx(expected, abs=1e-12)
    assert evaluate_local_model(ineq, rep.best_config) == pytest.approx(expected, abs=1e-12)
    assert rep.best_value <= 1.0 + 1e-12


@pytest.mark.parametrize("n", [33, 40, 80])
def test_local_models_past_the_einsum_operand_limit(n, monkeypatch):
    """Chains whose one-step contraction names 2n - 1 operands, more than
    one einsum call takes: the exhaustive oracle's model, and random models
    whose sources of alphabet above 1 have their weights and their parties'
    tables in different parts of the step, against the scalar loop. No
    einsum call gets 32 operands or more, which numpy 1.x rejects."""
    einsum = np.einsum
    sizes = []

    def counted(*args, **kwargs):
        sizes.append(sum(isinstance(a, np.ndarray) for a in args))
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    # Every contraction runs as one path step over all 2n - 1 operands.
    monkeypatch.setattr(evaluator, "_PLANS", {})
    monkeypatch.setattr(
        np, "einsum_path",
        lambda *operands, **kwargs: (["einsum_path", tuple(range(len(operands) // 2))], ""),
    )
    ineq = chsh_inequality(chain_topology(n))
    best = classical_oracle(ineq, mode="exhaustive").best_config
    assert evaluate_local_model(ineq, best) == pytest.approx(local_model_S(ineq, best), abs=1e-12)

    topo = ineq.topology
    counts = input_counts_for(ineq)
    cards = {**dict.fromkeys(range(1, n), 1), 2: 2, n // 2: 3, n - 1: 2}
    rng = np.random.default_rng(n)
    models = 3
    weights = {s: rng.dirichlet(np.ones(c), size=models) for s, c in cards.items()}
    responses = {
        p: rng.choice([-1.0, 1.0], size=(
            models, counts[p], int(np.prod([cards[s] for s in topo.incident_sources(p)]))
        ))
        for p in counts
    }
    I = _local_columns(
        ineq, cards, {s: w.T for s, w in weights.items()},
        {p: np.moveaxis(r, 0, -1) for p, r in responses.items()},
    )
    batched = (np.abs(I) ** (1.0 / ineq.l)).sum(axis=0)
    for i, b in enumerate(batched):
        model = LocalModel(
            cardinalities=cards,
            weights={s: w[i] for s, w in weights.items()},
            responses={p: r[i] for p, r in responses.items()},
        )
        assert b == pytest.approx(local_model_S(ineq, model), abs=1e-12)
    assert max(sizes) == evaluator.EINSUM_OPERANDS < 32


def test_model_draws_follow_numpy_streams(monkeypatch):
    """Every chunk the random oracle draws equals, bit for bit, numpy's own
    draws from the same stream: rng.dirichlet(np.ones(c), n) per source,
    then rng.integers(0, 2, shape, dtype=np.int64) * 2 - 1 per party.
    Hidden alphabets 1, 2, 3, 9 and 17 come in through cardinalities=, and
    the last chunk is 17 models long."""
    cards = {1: 17, 2: 1, 3: 9, 4: 3, 5: 2, 6: 1}
    drawn = []
    draw = optimizer._draw_models

    def record(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(optimizer, "_draw_models", record)
    classical_oracle(_asymmetric(), cards, mode="random", budget=4096 + 17, seed=11)
    assert [next(iter(w.values())).shape[-1] for w, _ in drawn] == [4096, 17]

    rng = np.random.default_rng(np.random.SeedSequence(11))
    for weights, responses in drawn:
        n = weights[1].shape[-1]
        assert sorted(weights) == sorted(cards)
        for s in sorted(cards):
            assert np.array_equal(weights[s], rng.dirichlet(np.ones(cards[s]), n).T)
        for p in sorted(responses):
            signs = rng.integers(0, 2, (n, *responses[p].shape[:-1]), dtype=np.int64) * 2 - 1
            assert np.array_equal(responses[p], np.moveaxis(signs, 0, -1))
            assert responses[p].dtype == np.float64 and responses[p].flags.c_contiguous


def test_random_oracle_draws_are_pinned():
    """Three chunks of models on six_party_asymmetric, the last one 17
    models long and contracted by the first chunk's path: the best value and
    the best model are the ones this seed has always drawn. The maximum does
    not tie, so the model is exact."""
    rep = classical_oracle(_asymmetric(), mode="random", budget=2 * 4096 + 17, seed=3)
    assert rep.best_value == pytest.approx(4.184799755580896, abs=1e-12)
    model = rep.best_config
    assert model.cardinalities == dict.fromkeys(range(1, 7), 2)
    assert {s: w.tolist() for s, w in model.weights.items()} == {
        1: [0.9821499305262541, 0.017850069473745893],
        2: [0.8199804782571901, 0.18001952174280988],
        3: [0.04460931647928948, 0.9553906835207105],
        4: [0.8952183768747625, 0.10478162312523748],
        5: [0.26967320049557864, 0.7303267995044213],
        6: [0.7540845717101369, 0.2459154282898632],
    }
    assert {p: r.astype(int).tolist() for p, r in model.responses.items()} == {
        1: [[1, 1], [1, -1], [1, -1]],
        2: [[1, -1, -1, 1, 1, -1, -1, 1], [-1, 1, -1, 1, 1, -1, 1, 1],
            [-1, 1, 1, -1, 1, -1, -1, -1], [1, -1, -1, 1, 1, -1, 1, -1]],
        3: [[1, 1], [1, 1], [-1, 1]],
        4: [[-1, -1, 1, 1, -1, -1, -1, 1, 1, -1, -1, -1, 1, 1, 1, -1],
            [1, -1, 1, -1, -1, -1, -1, -1, -1, -1, 1, -1, -1, -1, 1, 1],
            [-1, 1, 1, 1, 1, -1, 1, -1, -1, -1, -1, 1, 1, 1, -1, 1],
            [1, -1, 1, -1, -1, -1, 1, 1, 1, -1, 1, -1, -1, 1, 1, 1]],
        5: [[-1, -1], [-1, -1], [-1, 1], [1, 1]],
        6: [[-1, 1, 1, 1], [-1, -1, 1, 1], [1, -1, 1, 1], [1, -1, 1, -1]],
    }


def _generated_inequality(n, k, extra, rng):
    """A random tree on n parties plus up to `extra` sources between
    intermediate parties, with CHSH (k = 2) or chained-k on every
    peripheral source."""
    edges = _random_tree(n, rng)
    inner = find_leaves(build_topology(n, edges)).intermediate_set.tolist()
    spare = [e for e in combinations(inner, 2) if e not in edges and e[::-1] not in edges]
    edges += [spare[i] for i in rng.permutation(len(spare))[:extra]]
    topo = build_topology(n, edges)
    fcbi = make_catalog(CHSH) if k == 2 else make_catalog(CHAINED, k)
    return build_inequality(topo, k, {s: fcbi for s in find_leaves(topo).peripheral_set})


_GENERATED = (
    st.integers(min_value=3, max_value=8),
    st.sampled_from([2, 3, 4]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**31),
)


@given(*_GENERATED)
@settings(max_examples=50, deadline=None)
def test_local_models_on_generated_networks(n, k, extra, seed):
    """A random tree plus up to two sources between intermediate parties: the
    exhaustive oracle attains the classical bound with a model that
    re-evaluates to its value, and random models with hidden alphabets of
    sizes 1 to 3 match the scalar loop."""
    rng = np.random.default_rng(seed)
    ineq = _generated_inequality(n, k, extra, rng)
    topo, fcbi = ineq.topology, ineq.fcbi_map[min(ineq.fcbi_map)]
    # The oracle's cap is 24 leaf bits, but 2^24 assignments take seconds;
    # 16 bits keep each example quick.
    assume(ineq.l * fcbi.rows <= 16)

    rep = classical_oracle(ineq, mode="exhaustive")
    assert rep.best_value == pytest.approx(ineq.classical_bound, abs=1e-12)
    assert evaluate_local_model(ineq, rep.best_config) == pytest.approx(
        rep.best_value, abs=1e-12
    )

    counts = input_counts_for(ineq)
    sources = range(1, topo.n_sources + 1)
    for _ in range(3):
        cards = {s: int(rng.integers(1, 4)) for s in sources}
        # Keep the scalar loop's hidden product alphabet small.
        while math.prod(cards.values()) > 64:
            cards[int(rng.choice([s for s in sources if cards[s] > 1]))] -= 1
        model = LocalModel(
            cardinalities=cards,
            weights={s: rng.dirichlet(np.ones(c)) for s, c in cards.items()},
            responses={
                p: rng.choice([-1.0, 1.0], size=(
                    counts[p], math.prod(cards[s] for s in topo.incident_sources(p))
                ))
                for p in counts
            },
        )
        assert evaluate_local_model(ineq, model) == pytest.approx(
            local_model_S(ineq, model), abs=1e-12
        )


@given(*_GENERATED)
@settings(max_examples=30, deadline=None)
def test_quantum_bounds_on_generated_networks(n, k, extra, seed):
    """On the same generated networks: the catalog strategy on |Phi+> meets
    the quantum bound and both saturation conditions, the see-saw reaches
    it without passing it, and random strategies on random mixed states
    stay below the mixed-state bound."""
    rng = np.random.default_rng(seed)
    ineq = _generated_inequality(n, k, extra, rng)
    sources = range(1, ineq.topology.n_sources + 1)
    bell = {s: max_entangled() for s in sources}
    strategy = optimal_strategy(ineq, bell)
    assert evaluate_S(ineq, bell, strategy).S == pytest.approx(ineq.quantum_bound, abs=1e-9)
    assert check_conditions(ineq, bell, strategy).saturated
    found = seesaw_network(ineq, bell, restarts=2, seed=0).best_value
    assert ineq.quantum_bound - 1e-6 <= found <= ineq.quantum_bound + 1e-9

    mixed = {s: random_mixed(int(rng.integers(1000))) for s in sources}
    bound = mixed_state_bound(ineq, mixed)
    for _ in range(3):
        strategy = _random_strategy(ineq, ineq.topology, rng)
        assert evaluate_S(ineq, mixed, strategy).S <= bound + 1e-9


# -- batched see-saw ----------------------------------------------------------


def _starts(obj, seeds):
    """The restarts' starting rows, (restarts, slots, 3)."""
    return _draw(obj, [np.random.default_rng(child) for child in seeds])


def test_draw_reads_each_restart_from_its_own_stream():
    """Restart r of a chunk is one normal draw of the whole layout from child
    r's stream, its rows normalized, bit for bit."""
    ineq, host = _case("tree5_on_ring5")
    obj = _CrossObjective(ineq, host)
    seeds = np.random.SeedSequence(7).spawn(3)
    rows = _starts(obj, seeds)
    assert rows.shape == (3, len(obj.slot_keys), 3)
    for start, child in zip(rows, seeds):
        draw = np.random.default_rng(child).normal(size=(len(obj.slot_keys), 3))
        assert start.tobytes() == _normalize_rows(draw).tobytes()


@pytest.mark.parametrize("name", ["six_party_asymmetric", "tree5_on_ring5"])
def test_strategy_of_gathered_rows_is_the_strategy(name):
    """gather reads every slot, bit for bit, in slot-key order, and strategy
    writes the rows back: the same slots, in slot-key order, with the same
    vectors up to the rounding of their renormalization. The first objective
    is an inequality's own; on the ring host every tree5 leaf has two host
    sources, and so an einsum label."""
    ineq, host = _case(name)
    obj = _CrossObjective(ineq, host)
    if host is ineq.topology:
        obj = evaluator._own_objective(ineq)
    strategy = _random_strategy(ineq, host, np.random.default_rng(4))
    assert strategy.slots.keys() == set(obj.slot_keys)
    rows = obj.gather(strategy)
    assert rows.tobytes() == np.array([strategy.slots[k].n for k in obj.slot_keys]).tobytes()
    back = obj.strategy(rows)
    assert list(back.slots) == obj.slot_keys
    for key, obs in back.slots.items():
        np.testing.assert_allclose(obs.n, strategy.slots[key].n, rtol=0, atol=2**-52)


def _seesaw(obj, corrs, rows, sweeps=120):
    """The sweeps of `_run_restarts` on the batch of rows, in place."""
    return _ascend(
        rows,
        lambda r: obj.value(obj.factors(r, corrs)),
        lambda r: _sweep(obj, corrs, r),
        sweeps,
        1e-11,
    )


def _search_case(name):
    if name == "bilocal_chain":
        ineq = chsh_inequality(chain_topology(3))
        return ineq, ineq.topology, {1: random_mixed(1), 2: random_mixed(2)}
    ineq, host = _case(name)
    return ineq, host, {s: max_entangled() for s in range(1, host.n_sources + 1)}


@pytest.mark.parametrize(
    "name", ["bilocal_chain", "tree5_on_chain5", "six_party_asymmetric"]
)
def test_restarts_are_independent(name):
    """Each restart of a batch ends where that child run alone ends: as a
    batch of one, and through the one-block-at-a-time reference loop. The
    tree5 target gives the chain5 host leaves with their own einsum index;
    six_party_asymmetric mixes 3- and 4-input leaves."""
    ineq, host, states = _search_case(name)
    obj = _CrossObjective(ineq, host)
    corrs = obj.corrs(states)
    seeds = np.random.SeedSequence(11).spawn(4)
    history = _run_restarts(obj, states, 4, 11).history
    for child, value in zip(seeds, history):
        alone, _ = _seesaw(obj, corrs, _starts(obj, [child]))
        assert value == pytest.approx(alone[0], abs=1e-12)
        rows = _starts(obj, [child])[0]
        assert value == pytest.approx(seesaw_restart(obj, corrs, rows), abs=1e-9)


def test_stopped_restart_keeps_its_rows():
    """On the bilocal chain with mixed states the restarts stop between sweeps
    15 and 20: those that stopped by sweep 16 keep their rows, and the value
    they report, while the others sweep on."""
    ineq, host, states = _search_case("bilocal_chain")
    obj = _CrossObjective(ineq, host)
    corrs = obj.corrs(states)
    seeds = np.random.SeedSequence(0).spawn(6)
    _, early = _seesaw(obj, corrs, _starts(obj, seeds), sweeps=16)
    assert early.any() and not early.all()
    rows = _starts(obj, seeds)
    value, converged = _seesaw(obj, corrs, rows)
    assert converged.all()
    for r in np.flatnonzero(early):
        alone = _starts(obj, [seeds[r]])
        alone_value, _ = _seesaw(obj, corrs, alone)
        assert value[r] == pytest.approx(alone_value[0], abs=1e-12)
        np.testing.assert_allclose(rows[r], alone[0], rtol=0, atol=1e-12)
        assert obj.value(obj.factors(rows[r], corrs)) == pytest.approx(value[r], abs=1e-12)


def test_restart_chunks_do_not_change_the_search(monkeypatch):
    """restarts = chunk + 1 spans two chunks and gives the unchunked history.
    On the 4-party chain with mixed states the restarts end apart, so a
    restart started from another's seed would show."""
    ineq = chsh_inequality(chain_topology(4))
    states = {s: random_mixed(s + 3) for s in range(1, 4)}
    whole = seesaw_network(ineq, states, restarts=3, seed=5)
    assert min(np.diff(sorted(whole.history))) > 1e-9
    monkeypatch.setattr(fcbi, "RESTART_CHUNK", 2)
    chunked = seesaw_network(ineq, states, restarts=3, seed=5)
    np.testing.assert_allclose(chunked.history, whole.history, rtol=0, atol=1e-12)
    assert chunked.best_value == pytest.approx(whole.best_value, abs=1e-12)
    assert chunked.converged == whole.converged


@pytest.mark.memory
def test_restart_seeds_are_spawned_chunk_by_chunk():
    """With a stubbed draw and sweep, 2 * 10^4 restarts stay far below the
    7.5 MB that spawning every child SeedSequence (about 376 B each) before
    the first chunk would take; each chunk still gets the next children:
    its last restart draws from child (spawn key) lo + chunk - 1."""
    last_draws = []

    def draw(rngs):
        last_draws.append(rngs[-1].random())
        return np.zeros(len(rngs))

    def sweep(rows):
        return np.zeros(len(rows)), np.ones(len(rows), dtype=bool)

    restarts = 2 * 10**4
    tracemalloc.start()
    try:
        _, _, history, _ = best_of_restarts(
            draw, lambda rows: np.zeros(len(rows)), sweep, restarts, 0, 120, 1e-11
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(history) == restarts
    chunk = fcbi.RESTART_CHUNK
    last_keys = [(min(lo + chunk, restarts) - 1,) for lo in range(0, restarts, chunk)]
    assert last_draws == [
        np.random.default_rng(np.random.SeedSequence(0, spawn_key=key)).random()
        for key in last_keys
    ]
    assert peak < 4 * 10**6, peak


@st.composite
def _powersum_batch(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31))
    k = draw(st.integers(min_value=1, max_value=5))
    # Leaf counts up to those of the many-leaf stars, where every slope is tiny.
    l = draw(st.sampled_from([1, 2, 3, 4, 30, 52]))
    batch = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(seed)
    cs = rng.normal(size=(batch, k))
    gs = rng.normal(size=(batch, k, 3))
    start = rng.normal(size=(batch, 3))
    start /= np.linalg.norm(start, axis=1, keepdims=True)
    # Rows with one zero g_j, and with it constants large enough that the
    # zero direction would outscore the others; rows with the whole H zero.
    kind = rng.integers(0, 4, size=batch)
    gs[kind >= 2, int(rng.integers(k))] = 0.0
    cs[kind == 2] *= 10.0
    cs[kind == 3], gs[kind == 3] = 0.0, 0.0
    return cs, gs, l, start


@given(_powersum_batch())
@settings(max_examples=60, deadline=None)
def test_max_abs_powersum_batch(problem):
    """The network's leaf-row problem through the shared sphere ascent: each
    result is a unit vector (the start itself for a zero H) scoring at least
    as high as its start, is a local maximum, and matches the one-problem
    reference loop.

    Local maximum: no tangent step of 1e-3 in 8 directions scores more than
    1e-12 higher. A step that flips the sign of some c_j + g_j . n crosses a
    kink of |.|, beyond which the function may rise again (at l = 1 each
    sign region is a linear piece with its own maximum), so it is not
    probed."""
    cs, gs, l, start = problem
    found = _sphere_ascent(start[:, None], *_powersum(cs, gs, l))[0][:, 0]

    def score(b, n):
        return np.sum(np.abs(cs[b] + gs[b] @ n) ** (1.0 / l))

    for b in range(len(cs)):
        if not gs[b].any():
            np.testing.assert_array_equal(found[b], start[b])
            continue
        n = found[b]
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
        best = score(b, n)
        assert best >= score(b, start[b]) - 1e-12
        e1 = np.cross(n, [1.0, 0.0, 0.0] if abs(n[0]) < 0.9 else [0.0, 1.0, 0.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        signs = np.sign(cs[b] + gs[b] @ n)
        for angle in np.arange(8) * np.pi / 4:
            probe = n + 1e-3 * (np.cos(angle) * e1 + np.sin(angle) * e2)
            probe /= np.linalg.norm(probe)
            if (np.sign(cs[b] + gs[b] @ probe) == signs).all():
                assert score(b, probe) <= best + 1e-12, angle
        reference = max_abs_powersum(cs[b], gs[b], l, start[b])
        assert best == pytest.approx(score(b, reference), abs=1e-9)


def test_scalar_entry_points_return_floats(tree5, chain5):
    """The CLI emits these values as JSON numbers: the engine's per-strategy
    value must come back as a Python float, not a numpy scalar or array."""
    ineq = chsh_inequality(tree5)
    states = {s: max_entangled() for s in range(1, 5)}
    value = cross_evaluate(ineq, chain5, states, chain5_strategy_for_tree5())
    assert type(value) is float
    result = evaluate_S(ineq, states, optimal_strategy(ineq, states))
    assert type(result.S) is float
