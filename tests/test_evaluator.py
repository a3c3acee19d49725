import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from netbell.builder import build_inequality
from netbell.errors import (
    IncompleteStrategyError,
    TooLargeForExhaustiveError,
    UnsupportedFcbiError,
)
from netbell.evaluator import (
    SIGMA_X,
    MeasurementStrategy,
    QubitObservable,
    _catalog_leaf_vectors,
    check_conditions,
    evaluate_S,
    input_counts_for,
    optimal_strategy,
)
from netbell.fcbi import CHAINED, CHSH, EBI, custom_matrix, make_catalog
from netbell.networks import chain_topology, chsh_inequality
from netbell.optimizer import cross_evaluate, seesaw_network
from netbell.qstate import (
    WernerSpec,
    classical_zz,
    max_entangled,
    random_mixed,
    werner,
)
from netbell.topology import build_topology, find_leaves
from scalar_reference import correlator, reference_S


def test_observable_validation():
    with pytest.raises(ValueError):
        QubitObservable(np.array([1.0, 1.0, 0.0]))
    # A non-finite direction is refused before it is divided, so unwarned.
    unit = "^Bloch vector must have unit norm$"
    strategy = MeasurementStrategy()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=unit):
            QubitObservable(np.array([bad, 0.0, 0.0]))
        with pytest.raises(ValueError, match=unit):
            QubitObservable.from_direction([bad, 0.0, 0.0])
        with pytest.raises(ValueError, match=unit):
            strategy.set(1, 1, 1, [bad, 0.0, 0.0])
    assert strategy.slots == {}
    obs = QubitObservable.from_direction([2.0, 0.0, 0.0])
    np.testing.assert_allclose(obs.n, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(obs.matrix, [[0, 1], [1, 0]])


def test_optimal_strategy_saturates(six_party_ineq, phi_plus_states):
    strategy = optimal_strategy(six_party_ineq, phi_plus_states)
    result = evaluate_S(six_party_ineq, phi_plus_states, strategy)
    assert result.S == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert result.classical_violation
    assert result.quantum_saturation
    np.testing.assert_allclose(result.I, 2.0 ** -1.5, atol=1e-12)


def test_werner_scaling(six_party_ineq):
    v = 0.8
    states = {s: werner(WernerSpec(v)) for s in range(1, 7)}
    strategy = optimal_strategy(six_party_ineq, states)
    result = evaluate_S(six_party_ineq, states, strategy)
    assert result.S == pytest.approx(np.sqrt(2.0) * v * v, abs=1e-9)


def test_classical_intermediates_keep_optimum(six_party_ineq):
    """Replacing every intermediate source by the separable zz mixture leaves
    the optimum untouched: only t0 of those sources enters."""
    states = {s: max_entangled() for s in (1, 3, 5)}
    states.update({s: classical_zz() for s in (2, 4, 6)})
    strategy = optimal_strategy(six_party_ineq, states)
    result = evaluate_S(six_party_ineq, states, strategy)
    assert result.S == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_missing_slot_raises(six_party_ineq, phi_plus_states):
    """Every evaluation of a strategy names its missing slot, a leaf's or an
    intermediate party's; of several, the first in (party, input, source)
    order. Slots (2, 1, 6) and (4, 2, 2): the engine reads source 2 first."""
    callers = (
        evaluate_S,
        check_conditions,
        lambda ineq, states, strategy: evaluate_S(ineq, states, strategy, method="tensor"),
        lambda ineq, states, strategy: cross_evaluate(ineq, ineq.topology, states, strategy),
    )
    cases = [[(1, 1, 1)], [(2, 2, 1)], [(4, 1, 4)], [(6, 2, 6)], [(4, 2, 2), (2, 1, 6)]]
    for slots in cases:
        strategy = optimal_strategy(six_party_ineq, phi_plus_states)
        for slot in slots:
            del strategy.slots[slot]
        message = "^missing observable for party {}, input {}, source {}$".format(*min(slots))
        for evaluate in callers:
            with pytest.raises(IncompleteStrategyError, match=message):
                evaluate(six_party_ineq, phi_plus_states, strategy)


def test_factorized_vs_tensor_column(six_party_ineq, phi_plus_states):
    strategy = optimal_strategy(six_party_ineq, phi_plus_states)
    fac = evaluate_S(six_party_ineq, phi_plus_states, strategy).I
    ten = evaluate_S(six_party_ineq, phi_plus_states, strategy, method="tensor").I
    assert ten == pytest.approx(fac, abs=1e-12)


def _random_strategy(ineq, rng) -> MeasurementStrategy:
    strategy = MeasurementStrategy()
    for party, inputs in input_counts_for(ineq).items():
        for x in range(1, inputs + 1):
            for s in ineq.topology.incident_sources(party):
                strategy.set(party, x, s, rng.normal(size=3))
    return strategy


def _random_network(n_sources: int, rng):
    """A random tree plus up to two extra sources between its inner parties,
    so the tree's leaves stay leaves; CHSH or chained-3 on the peripheral
    sources."""
    pairs, extra = [], 1
    while len(pairs) < extra:
        extra = int(rng.integers(0, 3))
        n = n_sources + 1 - extra
        edges = [(int(rng.integers(1, p)), p) for p in range(2, n + 1)]
        degree = np.bincount(np.ravel(edges), minlength=n + 1)
        inner = [p for p in range(1, n + 1) if degree[p] > 1]
        taken = {frozenset(e) for e in edges}
        pairs = [(a, b) for a in inner for b in inner if a < b and {a, b} not in taken]
    for i in rng.permutation(len(pairs))[:extra]:
        edges.append(pairs[i])
    topo = build_topology(n, edges)
    k, fcbi = (2, make_catalog(CHSH)) if rng.random() < 0.5 else (3, make_catalog(CHAINED, 3))
    return build_inequality(topo, k, dict.fromkeys(find_leaves(topo).peripheral_set, fcbi))


@pytest.mark.parametrize("seed", range(14))
def test_tensor_oracle_matches_engine_on_generated_networks(seed):
    """The operator-level oracle equals the Bloch-algebra engine on generated
    networks with 7 to 13 sources, random mixed states and strategies."""
    rng = np.random.default_rng([8, seed])
    ineq = _random_network(7 + seed % 7, rng)
    m = ineq.topology.n_sources
    assert 7 <= m <= 13
    states = {s: random_mixed(int(rng.integers(0, 2**31))) for s in range(1, m + 1)}
    strategy = _random_strategy(ineq, rng)
    fac = evaluate_S(ineq, states, strategy).I
    ten = evaluate_S(ineq, states, strategy, method="tensor").I
    np.testing.assert_allclose(ten, fac, rtol=1e-12, atol=0)


def test_evaluate_S_is_the_engine_S_bit_for_bit(six_party):
    """evaluate_S and the engine combine the columns into S by one formula.
    Chained-9 on six_party has columns enough that a sum in another order
    moves the last bit; on 200 random mixed states and strategies S equals
    cross_evaluate on the inequality's own network bit for bit."""
    ineq = build_inequality(six_party, 9, dict.fromkeys((1, 3, 5), make_catalog(CHAINED, 9)))
    rng = np.random.default_rng(3)
    for _ in range(200):
        states = {s: random_mixed(int(rng.integers(0, 2**31))) for s in range(1, 7)}
        strategy = _random_strategy(ineq, rng)
        assert evaluate_S(ineq, states, strategy).S == cross_evaluate(
            ineq, six_party, states, strategy
        )


def test_tensor_oracle_refuses_fourteen_sources():
    ineq = chsh_inequality(chain_topology(15))
    states = {s: max_entangled() for s in range(1, 15)}
    strategy = optimal_strategy(ineq, states)
    with pytest.raises(TooLargeForExhaustiveError, match="^14 sources"):
        evaluate_S(ineq, states, strategy, method="tensor")


@pytest.mark.memory
def test_tensor_oracle_memory(six_party_ineq, phi_plus_states):
    strategy = optimal_strategy(six_party_ineq, phi_plus_states)
    tracemalloc.start()
    try:
        evaluate_S(six_party_ineq, phi_plus_states, strategy, method="tensor")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_chained_strategy_value(six_party):
    ineq = build_inequality(
        six_party, 3, {s: make_catalog(CHAINED, 3) for s in (1, 3, 5)}
    )
    states = {s: max_entangled() for s in range(1, 7)}
    result = evaluate_S(ineq, states, optimal_strategy(ineq, states))
    assert result.S == pytest.approx(3.0 * np.sqrt(3.0) / 2.0, abs=1e-9)
    assert ineq.classical_bound == pytest.approx(2.0)


def test_custom_matrix_has_no_canned_strategy(six_party, phi_plus_states):
    custom = custom_matrix([[1.0, 0.0], [0.0, 1.0]], restarts=4, seed=0)
    fcbi = {1: custom, 3: make_catalog(CHSH), 5: make_catalog(CHSH)}
    ineq = build_inequality(six_party, 2, fcbi)
    with pytest.raises(UnsupportedFcbiError):
        optimal_strategy(ineq, phi_plus_states)


def test_input_counts(six_party_ineq):
    counts = input_counts_for(six_party_ineq)
    assert counts == {1: 2, 3: 2, 5: 2, 2: 2, 4: 2, 6: 2}


def test_conditions_hold_at_optimum(six_party_ineq, phi_plus_states):
    strategy = optimal_strategy(six_party_ineq, phi_plus_states)
    rep = check_conditions(six_party_ineq, phi_plus_states, strategy)
    assert rep.rank1
    assert rep.saturated
    assert not rep.zero_column
    # omega matrix has identical rows at the optimum
    np.testing.assert_allclose(rep.X, np.broadcast_to(rep.X[0], rep.X.shape), atol=1e-12)


def test_conditions_X_does_not_depend_on_the_state(six_party_ineq, phi_plus_states):
    """X is the matrix of |d_j| per peripheral source: the same on a Werner
    state as on the maximally entangled one, for non-optimal leaf vectors."""
    strategy = optimal_strategy(six_party_ineq, phi_plus_states)
    rng = np.random.default_rng(3)
    for leaf, source in six_party_ineq.leaves.peripheral_map.items():
        for x in (1, 2):
            strategy.set(leaf, x, source, rng.normal(size=3))
    noisy = {s: werner(WernerSpec(0.6)) for s in phi_plus_states}
    X = check_conditions(six_party_ineq, phi_plus_states, strategy).X
    np.testing.assert_array_equal(check_conditions(six_party_ineq, noisy, strategy).X, X)
    assert not np.allclose(X, X[0])


def test_conditions_fail_for_misaligned_intermediate(six_party_ineq, phi_plus_states):
    strategy = optimal_strategy(six_party_ineq, phi_plus_states)
    strategy.set(2, 1, 2, SIGMA_X)  # breaks the t0 alignment on source 2
    rep = check_conditions(six_party_ineq, phi_plus_states, strategy)
    assert not rep.saturated
    assert rep.intermediate_residuals[2][0] > 0.5


@pytest.mark.parametrize("v", [1.0, 1e-3, 1e-10])
def test_alignment_is_relative_to_t0(six_party_ineq, phi_plus_states, v):
    """Condition two holds |a^T T b| to t0 relative to t0, as I_j is linear
    in a^T T b. With a Werner state of visibility v on source 2 the auto
    strategy meets it at every v, and the sigma_x-misaligned pair, which
    measures I_1 = 0 with residual t0 = v, fails it at every v."""
    states = {**phi_plus_states, 2: werner(WernerSpec(v))}
    strategy = optimal_strategy(six_party_ineq, states)
    assert check_conditions(six_party_ineq, states, strategy).saturated
    strategy.set(2, 1, 2, SIGMA_X)
    rep = check_conditions(six_party_ineq, states, strategy)
    assert not rep.saturated
    assert rep.intermediate_residuals[2][0] == pytest.approx(v, rel=1e-9)


@pytest.mark.parametrize("network", ["six_party", "tree5"])
def test_conditions_hold_at_seesaw_optima(network, request):
    """The see-saw's optima on |Phi+> attain the bound and meet both
    conditions. Their X is rank one only to sigma2 / sigma1 of 3e-8 to 2e-7,
    which moves S by about 1e-14, and some have an intermediate pair at
    -t0, which flips the sign of I_j alone."""
    ineq = chsh_inequality(request.getfixturevalue(network))
    states = {s: max_entangled() for s in range(1, ineq.topology.n_sources + 1)}
    for seed in range(4):
        rep = seesaw_network(ineq, states, restarts=32, seed=seed)
        assert rep.best_value == pytest.approx(np.sqrt(2.0), abs=1e-12)
        conditions = check_conditions(ineq, states, rep.best_config)
        assert conditions.saturated is True, seed
        for res in conditions.intermediate_residuals.values():
            assert res.max() <= 1e-12


def test_conditions_ignore_the_sign_of_an_intermediate_pair(six_party_ineq, phi_plus_states):
    """-sigma_z against sigma_z on source 2 measures -t0: I_1 changes sign,
    S and the conditions do not."""
    strategy = optimal_strategy(six_party_ineq, phi_plus_states)
    strategy.set(2, 1, 2, [0.0, 0.0, -1.0])
    result = evaluate_S(six_party_ineq, phi_plus_states, strategy)
    assert result.I[0] == pytest.approx(-(2.0 ** -1.5), abs=1e-12)
    assert result.quantum_saturation
    rep = check_conditions(six_party_ineq, phi_plus_states, strategy)
    assert rep.saturated
    np.testing.assert_allclose(rep.intermediate_residuals[2], 0.0, atol=1e-15)


def _optimal_reference(ineq, states) -> dict:
    """optimal_strategy slot by slot: catalog rows on each leaf; on its
    partner, input j along T^T d_j (T d_j when the leaf is the source's
    second endpoint), or sigma_z where that vanishes; sigma_z elsewhere."""
    topo, z = ineq.topology, np.array([0.0, 0.0, 1.0])
    slots = {
        (p, x, s): z
        for p in range(1, topo.n_parties + 1)
        for x in range(1, input_counts_for(ineq)[p] + 1)
        for s in topo.incident_sources(p)
    }
    for leaf, source in ineq.leaves.peripheral_map.items():
        m = ineq.fcbi_map[source]
        a, b = topo.endpoints(source)
        partner = b if leaf == a else a
        leaf_rows = _catalog_leaf_vectors(m)
        for x in range(m.rows):
            slots[(leaf, x + 1, source)] = leaf_rows[x]
        corr = states[source].corr
        for j in range(m.cols):
            d = sum(m.entries[x, j] * leaf_rows[x] for x in range(m.rows))
            c = corr.T @ d if leaf == a else corr @ d
            norm = np.sqrt(c @ c)
            slots[(partner, j + 1, source)] = c / norm if norm > 1e-14 else z
    return slots


@pytest.mark.parametrize("maps", ["chained3", "asymmetric"])
def test_optimal_strategy_matches_slot_by_slot_reference(six_party, maps):
    fcbi_map = (
        {s: make_catalog(CHAINED, 3) for s in (1, 3, 5)} if maps == "chained3"
        else {1: make_catalog(EBI), 3: make_catalog(EBI), 5: make_catalog(CHAINED, 4)}
    )
    ineq = build_inequality(six_party, 3 if maps == "chained3" else 4, fcbi_map)
    states = {s: random_mixed(40 + s) for s in range(1, 7)}
    expected = _optimal_reference(ineq, states)
    slots = optimal_strategy(ineq, states).slots
    assert slots.keys() == expected.keys()
    for key, n in expected.items():
        np.testing.assert_allclose(slots[key].n, n, rtol=0, atol=1e-15, err_msg=str(key))


def test_optimal_strategy_without_correlations_measures_sigma_z(six_party_ineq, phi_plus_states):
    """White noise on peripheral source 1 leaves its partner no Delta
    direction to align with, so the partner measures sigma_z there."""
    states = {**phi_plus_states, 1: werner(WernerSpec(0.0))}
    strategy = optimal_strategy(six_party_ineq, states)
    [leaf] = [p for p, s in six_party_ineq.leaves.peripheral_map.items() if s == 1]
    a, b = six_party_ineq.topology.endpoints(1)
    partner = b if leaf == a else a
    for j in (1, 2):
        np.testing.assert_array_equal(strategy.slots[(partner, j, 1)].n, [0.0, 0.0, 1.0])
    assert not evaluate_S(six_party_ineq, states, strategy).quantum_saturation


# -- many leaves ---------------------------------------------------------------


def _star(leaves):
    """CHSH inequality on a star: party 1 in the middle, source s joins leaf s + 1."""
    return chsh_inequality(build_topology(leaves + 1, [(1, p) for p in range(2, leaves + 2)]))


def test_many_leaf_star_saturates():
    ineq = _star(60)
    states = {s: max_entangled() for s in range(1, 61)}
    result = evaluate_S(ineq, states, optimal_strategy(ineq, states))
    assert result.S == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_many_leaf_star_matches_correlator():
    """On a star a leaf's input enters only its own source, so the Delta sum
    of column j is E(x0) * prod_p sum_x M[x, j] E(x0 with p -> x) / E(x0)."""
    ineq = _star(60)
    topo = ineq.topology
    rng = np.random.default_rng(11)
    states = {s: random_mixed(100 + s) for s in range(1, 61)}
    strategy = _random_strategy(ineq, rng)
    m = make_catalog(CHSH).entries
    expected = []
    for j in (1, 2):
        x0 = dict.fromkeys(range(1, 62), 1)
        x0[1] = j
        e0 = correlator(topo, states, strategy, x0)
        column = e0
        for leaf in range(2, 62):
            column *= sum(
                m[x - 1, j - 1] * correlator(topo, states, strategy, {**x0, leaf: x}) / e0
                for x in (1, 2)
            )
        expected.append(column)
    I = evaluate_S(ineq, states, strategy).I
    assert 0 < np.max(np.abs(I)) < 1e-20
    np.testing.assert_allclose(I, expected, rtol=1e-12, atol=0)


def test_seesaw_many_leaf_star():
    """A leaf with a single host source enters that source's operand through
    its Delta rows, so a 52-leaf star needs no einsum index of its own. From
    random starts the block coefficients shrink geometrically with the leaf
    count, far below the updates' absolute floors, so the see-saw must not
    depend on their scale."""
    for leaves in (30, 51, 52):
        states = {s: max_entangled() for s in range(1, leaves + 1)}
        rep = seesaw_network(_star(leaves), states, restarts=1, seed=0)
        assert np.sqrt(2.0) - 1e-11 <= rep.best_value <= np.sqrt(2.0) + 1e-9, leaves


# -- structure kept on the inequality -------------------------------------------


def _numbers(ineq, states, strategy) -> tuple:
    """Every number evaluate_S and check_conditions return, as bytes."""
    result = evaluate_S(ineq, states, strategy)
    rep = check_conditions(ineq, states, strategy)
    residuals = [(u, r.tobytes()) for u, r in sorted(rep.intermediate_residuals.items())]
    return (
        result.I.tobytes(), np.float64(result.S).tobytes(), rep.X.tobytes(),
        rep.x_singvals.tobytes(), residuals, rep.saturated,
    )


def test_reused_structure_matches_a_fresh_inequality(six_party):
    """CHSH and chained-3 on six_party, each evaluated on two state sets and
    two strategies in turn, give bit for bit what a new inequality with the
    same fields gives: what an inequality keeps holds no state. The new
    inequalities alternate between the two maps, each dropped just before
    the next is made, so a cache keyed by object id would hand one the
    other's structure."""
    rng = np.random.default_rng(24)
    ineqs = [
        chsh_inequality(six_party),
        build_inequality(six_party, 3, dict.fromkeys((1, 3, 5), make_catalog(CHAINED, 3))),
    ]
    state_sets = [
        {s: random_mixed(int(rng.integers(0, 2**31))) for s in range(1, 7)} for _ in range(2)
    ]
    strategies = [[_random_strategy(ineq, rng) for _ in range(2)] for ineq in ineqs]
    for a, b in [(0, 0), (1, 1), (0, 1), (1, 0), (0, 0)]:
        cases = [(ineq, state_sets[a], pair[b]) for ineq, pair in zip(ineqs, strategies)]
        kept = [_numbers(ineq, states, strategy) for ineq, states, strategy in cases]
        new = [_numbers(replace(ineq), states, strategy) for ineq, states, strategy in cases]
        assert kept == new


def test_dropped_inequalities_do_not_leak_structure():
    """200 inequalities on generated networks, each built, evaluated on two
    state sets and dropped: every S equals the scalar reference, so nothing
    kept for one inequality reaches the next."""
    rng = np.random.default_rng(240)
    for _ in range(200):
        ineq = _random_network(int(rng.integers(3, 7)), rng)
        m = ineq.topology.n_sources
        strategy = _random_strategy(ineq, rng)
        for _ in range(2):
            states = {s: random_mixed(int(rng.integers(0, 2**31))) for s in range(1, m + 1)}
            assert evaluate_S(ineq, states, strategy).S == pytest.approx(
                reference_S(ineq, ineq.topology, states, strategy), rel=1e-12, abs=1e-15
            )
        del ineq


def test_states_enter_per_call():
    """After evaluations on states A, evaluate_S and check_conditions on
    states B give what a new inequality with the same fields gives on B, on
    chains of 3 to 6 parties. The new inequalities are made one after the
    other, each dropped just before the next, so a cache keyed by object id
    would hand one the structure of a shorter chain."""
    rng = np.random.default_rng(24)
    ineqs = [chsh_inequality(chain_topology(n)) for n in (3, 4, 5, 6)]
    cases = []
    for ineq in ineqs:
        strategy = _random_strategy(ineq, rng)
        sources = range(1, ineq.topology.n_sources + 1)
        a, b = ({s: random_mixed(int(rng.integers(0, 2**31))) for s in sources} for _ in range(2))
        for _ in range(2):
            evaluate_S(ineq, a, strategy)
            check_conditions(ineq, a, strategy)
        cases.append((ineq, b, strategy))
    new = [_numbers(replace(ineq), b, strategy) for ineq, b, strategy in cases]
    assert [_numbers(ineq, b, strategy) for ineq, b, strategy in cases] == new
