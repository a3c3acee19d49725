"""Acceptance gate: one test per release criterion.

Each test prints a PASS line with the measured numbers so a log of this
file doubles as the release report. Target runtime for the whole file is
well under five minutes.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from netbell.analysis import critical_visibility_uniform, mahler_check
from netbell.builder import build_inequality, mixed_state_bound
from netbell.evaluator import (
    MeasurementStrategy,
    evaluate_S,
    optimal_strategy,
)
from netbell.fcbi import (
    CHAINED,
    CHSH,
    CUSTOM,
    EBI,
    CoefficientMatrix,
    classical_bound,
    custom_matrix,
    make_catalog,
    quantum_opt_numeric,
    sos_witness,
    state_max,
)
from netbell.networks import (
    chain5_strategy_for_tree5,
    chain_topology,
    chsh_inequality,
    six_party_topology,
    tree5_topology,
)
from netbell.optimizer import (
    classical_oracle,
    cross_evaluate,
    discriminate,
)
from netbell.qstate import (
    WernerSpec,
    classical_zz,
    max_entangled,
    random_mixed,
    werner,
)
from netbell.topology import build_topology, find_leaves
from scalar_reference import correlator

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _ok(label, detail=""):
    print(f"PASS {label}: {detail}")


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_leaf_analysis():
    tree = tree5_topology()
    leaves = find_leaves(tree)
    assert (leaves.l, set(leaves.peripheral_set)) == (3, {1, 3, 4})
    assert list(leaves.leaf_set) == [1, 4, 5]

    chain = chain_topology(5)
    leaves = find_leaves(chain)
    assert (leaves.l, list(leaves.leaf_set)) == (2, [1, 5])

    six = six_party_topology()
    leaves = find_leaves(six)
    assert (leaves.l, list(leaves.leaf_set)) == (3, [1, 3, 5])
    assert leaves.peripheral_set == {1, 3, 5}

    n = 1_000_000
    rng = np.random.default_rng(0)
    parents = rng.integers(1, np.arange(2, n + 1))
    edges = np.stack([parents, np.arange(2, n + 1)], axis=1)
    start = time.perf_counter()
    topo = build_topology(n, edges)
    analysis = find_leaves(topo)
    elapsed = time.perf_counter() - start
    assert analysis.l == int(np.sum(topo.degrees == 1))
    assert elapsed < 1.0
    _ok("criterion 1", f"10^6-node tree analyzed in {elapsed:.3f}s, l={analysis.l}")


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_fcbi_table():
    table = [(CHSH, None, 1.0, np.sqrt(2.0)), (EBI, None, 6.0, 4 * np.sqrt(3.0))]
    for k in (3, 4, 5, 6):
        table.append((CHAINED, k, float(k - 1), k * np.cos(np.pi / (2 * k))))
    for tag, k, beta, opt in table:
        m = make_catalog(tag, k)
        assert m.classical_bound == beta
        assert classical_bound(m.entries) == beta
        assert m.quantum_opt == pytest.approx(opt, abs=1e-12)
        numeric, _ = quantum_opt_numeric(m, restarts=16, seed=0)
        assert numeric == pytest.approx(opt, abs=1e-6)
    _ok("criterion 2", f"{len(table)} catalog entries, see-saw within 1e-6")


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_six_party_chsh_example():
    ineq = chsh_inequality(six_party_topology())
    assert ineq.classical_bound == pytest.approx(1.0, abs=1e-12)
    assert ineq.quantum_bound == pytest.approx(np.sqrt(2.0), abs=1e-12)

    states = {s: max_entangled() for s in range(1, 7)}
    s_opt = evaluate_S(ineq, states, optimal_strategy(ineq, states)).S
    assert s_opt == pytest.approx(np.sqrt(2.0), abs=1e-9)

    v = 0.8
    noisy = {s: werner(WernerSpec(v)) for s in range(1, 7)}
    s_werner = evaluate_S(ineq, noisy, optimal_strategy(ineq, noisy)).S
    assert s_werner == pytest.approx(np.sqrt(2.0) * v * v, abs=1e-9)

    hybrid = {s: max_entangled() for s in (1, 3, 5)}
    hybrid.update({s: classical_zz() for s in (2, 4, 6)})
    s_classical = evaluate_S(ineq, hybrid, optimal_strategy(ineq, hybrid)).S
    assert s_classical == pytest.approx(np.sqrt(2.0), abs=1e-9)
    _ok(
        "criterion 3",
        f"S={s_opt:.12f}, werner {s_werner:.12f}, classical intermediates {s_classical:.12f}",
    )


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_three_input_chained_example():
    ineq = build_inequality(
        six_party_topology(), 3, {s: make_catalog(CHAINED, 3) for s in (1, 3, 5)}
    )
    assert ineq.classical_bound == pytest.approx(2.0, abs=1e-12)
    states = {s: max_entangled() for s in range(1, 7)}
    value = evaluate_S(ineq, states, optimal_strategy(ineq, states)).S
    assert value == pytest.approx(3.0 * np.sqrt(3.0) / 2.0, abs=1e-6)
    _ok("criterion 4", f"classical bound 2, quantum value {value:.9f}")


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_asymmetric_input_example():
    ineq = build_inequality(
        six_party_topology(),
        4,
        {1: make_catalog(EBI), 3: make_catalog(EBI), 5: make_catalog(CHAINED, 4)},
    )
    classical = 6.0 * 2.0 ** (-1.0 / 3.0)
    assert ineq.classical_bound == pytest.approx(classical, abs=1e-9)

    states = {s: max_entangled() for s in range(1, 7)}
    value = evaluate_S(ineq, states, optimal_strategy(ineq, states)).S
    quantum = 2.0 * (12.0 * np.sqrt(2.0 + np.sqrt(2.0))) ** (1.0 / 3.0)
    assert value == pytest.approx(quantum, abs=1e-6)
    assert ineq.quantum_bound == pytest.approx(quantum, abs=1e-9)
    _ok("criterion 5", f"classical {classical:.9f}, quantum {value:.9f}")


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_oracle_soundness():
    chain3 = chsh_inequality(chain_topology(3))
    exhaustive = classical_oracle(chain3, mode="exhaustive")
    assert exhaustive.best_value == 1.0

    tree = chsh_inequality(tree5_topology())
    random_run = classical_oracle(tree, mode="random", budget=100_000, seed=0)
    assert random_run.best_value <= 1.0 + 1e-9
    _ok(
        "criterion 6",
        f"exhaustive 1.0, best of 10^5 random local models {random_run.best_value:.9f}",
    )


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_factorized_vs_tensor():
    """The factorized correlator of every party measuring input 1 against
    the operator-level oracle: with k = 1 and the 1x1 map M = [[1]] on every
    peripheral source, that correlator is the oracle's I_1."""
    one = CoefficientMatrix(np.ones((1, 1)), CUSTOM, 1.0, 1.0)
    topologies = [
        chain_topology(3),
        chain_topology(4),
        build_topology(4, [(1, 4), (2, 4), (3, 4)]),
        tree5_topology(),
        chain_topology(5),
    ]
    inequalities = [
        build_inequality(topo, 1, dict.fromkeys(find_leaves(topo).peripheral_set, one))
        for topo in topologies
    ]
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(1000):
        ineq = inequalities[trial % len(inequalities)]
        topo = ineq.topology
        states = {
            s: random_mixed(int(rng.integers(0, 2**31)))
            for s in range(1, topo.n_sources + 1)
        }
        strategy = MeasurementStrategy()
        x = {}
        for party in range(1, topo.n_parties + 1):
            x[party] = 1
            for source in topo.incident_sources(party):
                vec = rng.normal(size=3)
                strategy.set(party, 1, source, vec / np.linalg.norm(vec))
        fac = correlator(topo, states, strategy, x)
        ten = evaluate_S(ineq, states, strategy, method="tensor").I[0]
        worst = max(worst, abs(fac - ten))
    assert worst < 1e-10
    _ok("criterion 7", f"10^3 instances, worst |factorized - tensor| = {worst:.2e}")


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_bound_soundness():
    ineq = chsh_inequality(chain_topology(3))
    m = ineq.fcbi_map[1]
    rng = np.random.default_rng(8)
    worst_mixed = worst_quantum = worst_sos = -np.inf
    for trial in range(10_000):
        states = {
            s: random_mixed(int(rng.integers(0, 2**31))) for s in (1, 2)
        }
        strategy = MeasurementStrategy()
        vecs = {}
        for party, sources in ((1, [1]), (2, [1, 2]), (3, [2])):
            for source in sources:
                for inp in (1, 2):
                    v = rng.normal(size=3)
                    v /= np.linalg.norm(v)
                    strategy.set(party, inp, source, v)
                    vecs[(party, inp, source)] = v
        S = evaluate_S(ineq, states, strategy).S
        mixed = mixed_state_bound(ineq, states)  # closed form for this map
        worst_mixed = max(worst_mixed, S - mixed)
        worst_quantum = max(worst_quantum, S - ineq.quantum_bound)

        # per-source column-norm witnesses dominate the factorized value
        dominator = np.zeros(2)
        for source, leaf, partner in ((1, 1, 2), (2, 3, 2)):
            a = np.array([vecs[(leaf, x, source)] for x in (1, 2)])
            b = np.array([vecs[(partner, j, source)] for j in (1, 2)])
            wit = sos_witness(m, states[source], a, b)
            dominator += np.log(np.maximum(wit.omega, 1e-300))
        sos_bound = float(np.sum(np.exp(dominator / 2.0)))
        worst_sos = max(worst_sos, S - sos_bound)
    assert worst_mixed <= 1e-6
    assert worst_quantum <= 1e-9
    assert worst_sos <= 1e-9
    _ok(
        "criterion 8",
        f"10^4 instances: S-mixed <= {worst_mixed:.2e}, "
        f"S-quantum <= {worst_quantum:.2e}, S-sos <= {worst_sos:.2e}",
    )


# -- 9 ----------------------------------------------------------------------


def _bisect_visibility(ineq, lo=0.01, hi=1.0, tol=1e-8):
    def margin(v):
        states = {
            s: werner(WernerSpec(v)) for s in range(1, ineq.topology.n_sources + 1)
        }
        return mixed_state_bound(ineq, states) - ineq.classical_bound

    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_criterion_09_visibility_thresholds():
    chain3 = chsh_inequality(chain_topology(3))
    formula = critical_visibility_uniform(chain3)
    assert formula == pytest.approx(1 / np.sqrt(2), abs=1e-6)
    bisected = _bisect_visibility(chain3)
    assert bisected == pytest.approx(formula, abs=1e-6)

    tree = chsh_inequality(tree5_topology())
    chain5 = chsh_inequality(chain_topology(5))
    thr_tree = critical_visibility_uniform(tree)
    thr_chain = critical_visibility_uniform(chain5)
    assert thr_tree == pytest.approx(2.0 ** -0.375, abs=1e-6)
    assert thr_chain == pytest.approx(2.0 ** -0.25, abs=1e-6)
    assert _bisect_visibility(tree) == pytest.approx(thr_tree, abs=1e-6)

    # The formula evaluated with one extra source lands on the previously
    # published endpoint pair (0.8123, 0.8706); the tool reports both counts
    # so the sensitivity is visible rather than silently absorbed.
    alt_tree = critical_visibility_uniform(tree, 5)
    alt_chain = critical_visibility_uniform(chain5, 5)
    assert alt_tree == pytest.approx(0.8123, abs=5e-4)
    assert alt_chain == pytest.approx(0.8706, abs=5e-4)
    assert not np.isclose(alt_tree, thr_tree, atol=1e-3)
    _ok(
        "criterion 9",
        f"thresholds {thr_tree:.5f}/{thr_chain:.5f}; "
        f"one-extra-source variants {alt_tree:.5f}/{alt_chain:.5f}",
    )


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_discrimination():
    tree = tree5_topology()
    chain = chain_topology(5)
    ineq = chsh_inequality(tree)
    states = {s: max_entangled() for s in range(1, 5)}

    explicit = cross_evaluate(ineq, chain, states, chain5_strategy_for_tree5())
    assert explicit >= np.sqrt(2.0) - 1e-6

    cross = discriminate(ineq, chain, states, restarts=24, seed=0)
    assert cross.best_value >= np.sqrt(2.0) - 1e-6

    self_run = discriminate(ineq, tree, states, restarts=24, seed=0)
    assert self_run.best_value == pytest.approx(np.sqrt(2.0), abs=1e-6)

    exceeded = cross.best_value > np.sqrt(2.0) + 1e-6
    _ok(
        "criterion 10",
        f"explicit {explicit:.9f}, search {cross.best_value:.9f} "
        f"({cross.extra['verdict']}), self {self_run.best_value:.9f}; "
        f"search strictly above sqrt(2): {exceeded}",
    )


# -- 11 ---------------------------------------------------------------------


def test_criterion_11_product_inequality():
    rng = np.random.default_rng(11)
    total = 0
    for p, q in ((2, 2), (3, 4), (4, 3), (6, 6), (5, 2)):
        batch = 20_000
        X = rng.uniform(0.0, 5.0, size=(batch, p, q))
        lhs = np.sum(np.prod(X, axis=2) ** (1.0 / q), axis=1)
        rhs = np.prod(np.sum(X, axis=1) ** (1.0 / q), axis=1)
        assert np.all(lhs <= rhs + 1e-9)
        total += batch

    rank1 = np.outer([1.0, 2.0, 3.0], [4.0, 0.5])
    res = mahler_check(rank1)
    assert res["equality"] and res["lhs"] == pytest.approx(res["rhs"])
    zero_col = np.array([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]])
    res = mahler_check(zero_col)
    assert res["equality"] and res["lhs"] == res["rhs"] == 0.0
    generic = mahler_check([[1.0, 2.0], [3.0, 1.0]])
    assert generic["holds"] and not generic["equality"]
    _ok("criterion 11", f"{total} random matrices hold; equality cases exact")


# -- 12 ---------------------------------------------------------------------


def test_criterion_12_per_state_chsh_maximum():
    # The CHSH entries under a custom tag take the see-saw, not the closed form.
    numeric_chsh = custom_matrix(make_catalog(CHSH).entries)
    worst = 0.0
    for seed in range(100):
        rho = random_mixed(seed)
        closed = np.sqrt(rho.singvals[0] ** 2 + rho.singvals[1] ** 2)
        numeric = state_max(numeric_chsh, rho, restarts=8, seed=seed)
        worst = max(worst, abs(numeric - closed))
    assert worst < 1e-6
    _ok("criterion 12", f"100 states, worst |see-saw - closed form| = {worst:.2e}")


# -- 13 ---------------------------------------------------------------------


def test_criterion_13_determinism():
    commands = [
        ["eval", str(CONFIG_DIR / "six_party.json")],
        ["bounds", str(CONFIG_DIR / "six_party_asymmetric.json")],
        ["oracle", str(CONFIG_DIR / "bilocal_chain.json"), "--mode", "random",
         "--budget", "500"],
        ["optimize", str(CONFIG_DIR / "bilocal_chain.json"), "--restarts", "4"],
        ["discriminate", str(CONFIG_DIR / "discriminate_tree_vs_chain.json"),
         "--restarts", "4"],
        ["visibility", str(CONFIG_DIR / "chain5.json"), "--format", "csv"],
    ]
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "netbell.cli", *argv],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, runs[0].stderr
        assert runs[0].stdout == runs[1].stdout, argv
    _ok("criterion 13", f"{len(commands)} seeded commands byte-identical on rerun")
