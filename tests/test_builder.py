import numpy as np
import pytest

from netbell import builder
from netbell.analysis import uniform_werner_bound
from netbell.builder import build_inequality, mixed_state_bound
from netbell.errors import (
    ColumnMismatchError,
    DegenerateBipartiteError,
    MissingFcbiError,
    TooFewLeavesError,
)
from netbell.fcbi import CHAINED, CHSH, EBI, make_catalog, state_max
from netbell.qstate import WernerSpec, random_mixed, werner
from netbell.topology import build_topology


def test_six_party_chsh_bounds(six_party_ineq):
    assert six_party_ineq.l == 3
    assert six_party_ineq.classical_bound == pytest.approx(1.0)
    assert six_party_ineq.quantum_bound == pytest.approx(np.sqrt(2.0))


def test_asymmetric_map_bounds(six_party):
    """Two three-input leaves with the elegant inequality plus one four-input
    chained leaf: bounds (6*6*3)^(1/3) and (4sqrt3 * 4sqrt3 * 4cos(pi/8))^(1/3)."""
    fcbi = {1: make_catalog(EBI), 3: make_catalog(EBI), 5: make_catalog(CHAINED, 4)}
    ineq = build_inequality(six_party, 4, fcbi)
    assert ineq.classical_bound == pytest.approx(108.0 ** (1 / 3))
    assert ineq.quantum_bound == pytest.approx(
        (48.0 * 4.0 * np.cos(np.pi / 8)) ** (1 / 3)
    )
    assert ineq.leaf_fcbi(1).tag == EBI
    assert ineq.leaf_fcbi(5).tag == CHAINED


def test_rejects_bipartite():
    topo = build_topology(2, [(1, 2)])
    with pytest.raises(DegenerateBipartiteError):
        build_inequality(topo, 2, {1: make_catalog(CHSH)})


def test_rejects_too_few_leaves():
    # a triangle has no degree-one party
    topo = build_topology(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(TooFewLeavesError):
        build_inequality(topo, 2, {})


def test_rejects_wrong_fcbi_cover(six_party):
    with pytest.raises(MissingFcbiError):
        build_inequality(six_party, 2, {1: make_catalog(CHSH)})
    with pytest.raises(MissingFcbiError):
        build_inequality(
            six_party, 2, {s: make_catalog(CHSH) for s in (1, 2, 3, 5)}
        )


def test_rejects_column_mismatch(six_party):
    fcbi = {s: make_catalog(CHSH) for s in (1, 3, 5)}
    with pytest.raises(ColumnMismatchError):
        build_inequality(six_party, 3, fcbi)


def test_term_description(six_party_ineq):
    term = six_party_ineq.term(2)
    assert term["fixed_input"] == 2
    assert term["intermediate_parties"] == [2, 4, 6]
    assert term["delta_leaves"][1]["coefficients"] == {1: 0.5, 2: 0.5}
    with pytest.raises(IndexError):
        six_party_ineq.term(3)


def test_mixed_state_bound_werner(six_party_ineq):
    """Uniform Werner v: each CHSH factor is sqrt(2)v, each intermediate
    contributes t0 = v, so the bound is sqrt(2) v^2 for l=3, M=6."""
    v = 0.8
    states = {s: werner(WernerSpec(v)) for s in range(1, 7)}
    bound = mixed_state_bound(six_party_ineq, states)
    assert bound == pytest.approx(np.sqrt(2.0) * v * v, abs=1e-9)


def test_mixed_state_bound_max_entangled(six_party_ineq, phi_plus_states):
    bound = mixed_state_bound(six_party_ineq, phi_plus_states)
    assert bound == pytest.approx(np.sqrt(2.0), abs=1e-9)


@pytest.mark.parametrize(
    "k,maps",
    [(3, {s: (CHAINED, 3) for s in (1, 3, 5)}),
     (4, {1: (EBI, None), 3: (EBI, None), 5: (CHAINED, 4)})],
    ids=["six_party_chained3", "six_party_asymmetric"],
)
def test_mixed_state_bound_is_the_uniform_werner_formula(six_party, k, maps):
    """Uniform |Phi+> Werner sources: mixed_state_bound, through state_max's
    closed form v q on every chained and EBI leaf, is the analysis formula
    quantum_bound v^(M/l)."""
    ineq = build_inequality(six_party, k, {s: make_catalog(*m) for s, m in maps.items()})
    for v in np.linspace(0.0, 1.0, 11):
        states = {s: werner(WernerSpec(v)) for s in range(1, 7)}
        assert mixed_state_bound(ineq, states) == pytest.approx(
            uniform_werner_bound(ineq, v), rel=1e-12
        )


@pytest.mark.parametrize(
    "states,calls",
    [
        ({s: werner(WernerSpec(0.7)) for s in range(1, 7)}, 1),
        ({s: random_mixed(s) for s in range(1, 7)}, 3),
    ],
    ids=["uniform_werner", "distinct"],
)
def test_mixed_state_bound_shares_equal_sources(six_party, monkeypatch, states, calls):
    """Peripheral sources with the same FCBI and state share one state_max."""
    ineq = build_inequality(six_party, 3, {s: make_catalog(CHAINED, 3) for s in (1, 3, 5)})
    seen = []

    def counting_state_max(*args):
        seen.append(args)
        return state_max(*args)

    monkeypatch.setattr(builder, "state_max", counting_state_max)
    bound = mixed_state_bound(ineq, states, restarts=8, seed=0)
    assert len(seen) == calls
    factors = [state_max(ineq.fcbi_map[s], states[s], 8, 0) for s in (1, 3, 5)]
    factors += [states[u].t0 for u in ineq.intermediate_sources()]
    assert bound == pytest.approx(np.prod(factors) ** (1 / 3), rel=1e-14)
