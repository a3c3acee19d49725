import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from netbell.analysis import (
    critical_visibility_uniform,
    mahler_check,
    report,
    visibility_window,
    werner_violation_threshold,
)
from netbell.builder import build_inequality, mixed_state_bound
from netbell.errors import NegativeEntryError, TooFewLeavesError, UnsupportedFcbiError
from netbell.evaluator import SIGMA_Z, MeasurementStrategy, check_conditions, optimal_strategy
from netbell.fcbi import CHAINED, EBI, custom_matrix, make_catalog
from netbell.networks import chain_topology, chsh_inequality
from netbell.optimizer import seesaw_network
from netbell.qstate import WernerSpec, classical_zz, max_entangled, werner
from netbell.topology import build_topology


def test_chsh_threshold_maximally_entangled(six_party_ineq):
    # each leaf contributes sqrt(1 + 4 a^2 b^2) = sqrt(2) at a = 1/sqrt(2)
    thr = werner_violation_threshold(six_party_ineq)
    assert thr == pytest.approx(2.0 ** -1.5)


def test_chsh_threshold_product_limit(six_party_ineq):
    """As one source approaches a product state its factor tends to 1 and
    the threshold is carried by the remaining leaves alone."""
    a = 1.0 - 1e-9
    thr = werner_violation_threshold(
        six_party_ineq, {1: a, 3: 1 / np.sqrt(2), 5: 1 / np.sqrt(2)}
    )
    assert thr == pytest.approx(0.5, abs=1e-6)


def _crossing(ineq, states_at, lo=0.01, hi=1.0):
    """Bisected visibility at which mixed_state_bound(ineq, states_at(v))
    reaches the classical bound."""
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if mixed_state_bound(ineq, states_at(mid)) > ineq.classical_bound:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_chained_threshold(six_party):
    ineq = build_inequality(
        six_party, 3, {s: make_catalog(CHAINED, 3) for s in (1, 3, 5)}
    )
    expected = (2.0 / (3.0 * np.cos(np.pi / 6))) ** 3
    assert werner_violation_threshold(ineq) == pytest.approx(expected)

    # Werner states on a|00> + b|11> with a = 0.6 on the peripheral sources,
    # noiseless intermediates: the product of the three visibilities at the
    # crossing is the threshold.
    def states_at(v):
        states = {s: werner(WernerSpec(v, 0.6)) for s in (1, 3, 5)}
        return states | {s: max_entangled() for s in (2, 4, 6)}

    v = _crossing(ineq, states_at)
    assert werner_violation_threshold(ineq, 0.6) == pytest.approx(v**3, abs=1e-6)
    assert werner_violation_threshold(ineq, 0.6) > expected


def test_thresholds_on_mixed_maps(six_party):
    """EBI on two peripheral sources, chained-4 on the third: the formula
    holds for any mix of maps."""
    ineq = build_inequality(
        six_party,
        4,
        {1: make_catalog(EBI), 3: make_catalog(EBI), 5: make_catalog(CHAINED, 4)},
    )
    ratio = ineq.classical_bound / ineq.quantum_bound
    assert werner_violation_threshold(ineq) == pytest.approx(ratio**3, rel=1e-12)
    v = _crossing(ineq, lambda v: {s: werner(WernerSpec(v)) for s in range(1, 7)})
    assert critical_visibility_uniform(ineq) == pytest.approx(v, abs=1e-6)


def test_zero_matrix_has_no_threshold():
    ineq = build_inequality(
        chain_topology(3), 2, {s: custom_matrix(np.zeros((2, 2))) for s in (1, 2)}
    )
    with pytest.raises(UnsupportedFcbiError):
        critical_visibility_uniform(ineq)


def test_critical_visibility_values(tree5):
    tree = chsh_inequality(tree5)
    assert critical_visibility_uniform(tree) == pytest.approx(2.0 ** -0.375)
    assert critical_visibility_uniform(tree, 5) == pytest.approx(2.0 ** -0.3)
    chain3 = chsh_inequality(chain_topology(3))
    assert critical_visibility_uniform(chain3) == pytest.approx(1 / np.sqrt(2))


def test_critical_visibility_star_like(six_party_ineq):
    # l = M would give exponent 1; emulate with l=3, M=3 star
    star = build_topology(4, [(1, 4), (2, 4), (3, 4)])
    ineq = chsh_inequality(star)
    assert critical_visibility_uniform(ineq) == pytest.approx(1 / np.sqrt(2))


def test_visibility_window(tree5, chain5):
    win = visibility_window(tree5, chain5)
    assert win["a"]["threshold"] == pytest.approx(2.0 ** -0.375)
    assert win["b"]["threshold"] == pytest.approx(2.0 ** -0.25)
    assert win["window"] == (win["a"]["threshold"], win["b"]["threshold"])


def test_visibility_window_needs_leaves(tree5):
    triangle = build_topology(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(TooFewLeavesError):
        visibility_window(tree5, triangle)


def test_mahler_examples():
    res = mahler_check([[1.0, 1.0], [1.0, 1.0]])
    assert res["holds"] and res["equality"]
    assert res["lhs"] == pytest.approx(res["rhs"])
    res = mahler_check([[1.0, 0.0], [0.0, 1.0]])
    assert res["holds"] and not res["equality"]
    assert res["lhs"] == 0.0 and res["rhs"] == pytest.approx(1.0)


def test_mahler_zero_column_equality():
    res = mahler_check([[1.0, 0.0], [2.0, 0.0]])
    assert res["equality"] and res["lhs"] == 0.0 and res["rhs"] == 0.0


def test_mahler_roots_long_products_in_log_space():
    """Each row's product of 1,100 halves underflows to 0.0; its root does not."""
    res = mahler_check(np.full((2, 1100), 0.5))
    assert res["lhs"] == pytest.approx(1.0, abs=1e-12)
    assert res["rhs"] == pytest.approx(1.0, abs=1e-12)
    assert res["holds"] and res["equality"]


def test_mahler_rejects_negative():
    with pytest.raises(NegativeEntryError):
        mahler_check([[1.0, -0.1]])
    with pytest.raises(NegativeEntryError):
        mahler_check(np.zeros((0, 2)))


@given(
    arrays(
        float,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        elements=st.floats(0, 10, allow_nan=False),
    )
)
@settings(max_examples=120, deadline=None)
def test_mahler_always_holds(X):
    assert mahler_check(X)["holds"]


@given(
    st.integers(2, 6),
    st.integers(2, 6),
    st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_mahler_rank1_equality(p, q, seed):
    rng = np.random.default_rng(seed)
    X = np.outer(rng.uniform(0.1, 2.0, p), rng.uniform(0.1, 2.0, q))
    res = mahler_check(X)
    assert res["equality"]
    assert res["lhs"] == pytest.approx(res["rhs"])


def test_mahler_gap_is_second_order():
    """Off the rank-one set, rhs - lhs grows as the square of the distance:
    for positive X = u v^T + r E the gap over r^2 tends to a constant. So a
    product-form tolerance of 1e-6 on sigma2 / sigma1 admits a relative gap
    of about 1e-12 only."""
    rng = np.random.default_rng(5)
    u, v, E = rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 3), rng.uniform(0.0, 1.0, (4, 3))

    def gap(r):
        res = mahler_check(np.outer(u, v) + r * E)
        return res["rhs"] - res["lhs"], res

    limit = gap(1e-4)[0] / 1e-8
    assert limit > 0
    for r in (1e-1, 1e-2, 1e-3):
        assert gap(r)[0] / r**2 == pytest.approx(limit, rel=0.1)
    X = np.outer(u, v) + 5e-6 * E
    svals = np.linalg.svd(X, compute_uv=False)
    assert 1e-7 < svals[1] / svals[0] <= 1e-6
    g, res = gap(5e-6)
    assert res["equality"]
    assert 0 <= g <= 1e-11 * res["rhs"]


def test_mahler_equality_is_scale_free():
    """The rank-one and zero-column tests are relative to X's top singular
    value, so a scaled X gets the decision X gets. A column of relative size
    1e-7 is not zero: it moves both sides by its cube root, 5e-3."""
    cases = [
        ([[1.0, 0.0], [2.0, 0.0]], True),
        ([[1.0, 2.0], [2.0, 4.0]], True),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], True),
        ([[1.0, 0.0], [0.0, 1.0]], False),
        ([[1.0, 2.0], [3.0, 1.0]], False),
        ([[1.0, 0.0, 1e-7], [0.0, 1.0, 0.0]], False),
    ]
    for X, equality in cases:
        for scale in (1e-12, 1.0, 1e12):
            assert mahler_check(scale * np.array(X))["equality"] is equality, (X, scale)


def test_conditions_and_mahler_decide_alike(six_party_ineq, phi_plus_states):
    """check_conditions' product-form verdict on its X is mahler_check's
    equality on the same X, at the catalog optimum, at see-saw optima (rank
    one to about 1e-7) and at random leaf observables."""
    rng = np.random.default_rng(2)
    strategies = [optimal_strategy(six_party_ineq, phi_plus_states)]
    strategies += [
        seesaw_network(six_party_ineq, phi_plus_states, restarts=4, seed=seed).best_config
        for seed in range(3)
    ]
    for _ in range(4):
        strategy = optimal_strategy(six_party_ineq, phi_plus_states)
        for leaf, source in six_party_ineq.leaves.peripheral_map.items():
            for x in (1, 2):
                strategy.set(leaf, x, source, rng.normal(size=3))
        strategies.append(strategy)
    verdicts = []
    for strategy in strategies:
        rep = check_conditions(six_party_ineq, phi_plus_states, strategy)
        verdicts.append(rep.rank1 or rep.zero_column)
        assert verdicts[-1] == mahler_check(rep.X)["equality"]
    assert verdicts == [True] * 4 + [False] * 4


def test_report_flags_at_optimum(six_party_ineq, phi_plus_states):
    rep = report(six_party_ineq, phi_plus_states, "auto")
    assert rep.flags == {
        "violates_classical": True,
        "saturates_quantum": True,
        "conditions_met": True,
    }
    assert rep.S == pytest.approx(np.sqrt(2.0), abs=1e-9)
    d = rep.to_dict()
    assert d["provenance"]["strategy"] == "auto"
    assert isinstance(d["S"], float)


def test_report_classical_states_no_violation(six_party_ineq):
    states = {s: classical_zz() for s in range(1, 7)}
    strategy = MeasurementStrategy()
    for party in range(1, 7):
        for source in six_party_ineq.topology.incident_sources(party):
            for inp in (1, 2):
                strategy.set(party, inp, source, SIGMA_Z)
    rep = report(six_party_ineq, states, strategy)
    assert rep.S == pytest.approx(1.0)
    assert not rep.flags["violates_classical"]
    assert rep.provenance["strategy"] == "explicit"


def test_report_rejects_bad_strategy_spec(six_party_ineq, phi_plus_states):
    with pytest.raises(ValueError):
        report(six_party_ineq, phi_plus_states, "magic")
