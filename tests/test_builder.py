import numpy as np
import pytest

from netbell import builder, topology
from netbell.analysis import uniform_werner_bound
from netbell.builder import build_inequality, mixed_state_bound
from netbell.errors import (
    ColumnMismatchError,
    DegenerateBipartiteError,
    MissingFcbiError,
    TooFewLeavesError,
)
from netbell.fcbi import CHAINED, CHSH, EBI, custom_matrix, make_catalog, state_max
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


def test_fcbi_key_rules(six_party):
    """Keys that equal a peripheral source as Python numbers are accepted:
    int, np.int64, True for source 1, 5.0. 3.5 is refused with the sorted
    keys in the message, and a str or None key, which do not sort among the
    numbers, with MissingFcbiError too, naming the keys as given."""
    c = make_catalog(CHSH)
    for fcbi in ({1: c, 3: c, 5: c}, {np.int64(1): c, np.int64(3): c, 5: c},
                 {True: c, 3: c, 5: c}, {1: c, 3: c, 5.0: c}):
        ineq = build_inequality(six_party, 2, fcbi)
        assert dict(ineq.fcbi_map) == {1: c, 3: c, 5: c}
        assert ineq.classical_bound == 1.0
    with pytest.raises(
        MissingFcbiError,
        match=r"^fcbi_map must cover exactly the peripheral sources \[1, 3, 5\], got \[1, 3\.5, 5\]$",
    ):
        build_inequality(six_party, 2, {1: c, 3.5: c, 5: c})
    for key in ("3", None):
        with pytest.raises(MissingFcbiError, match=rf"got \[1, {key!r}, 5\]$"):
            build_inequality(six_party, 2, {1: c, key: c, 5: c})
        with pytest.raises(MissingFcbiError, match=rf"got \[1, 3, 5, {key!r}\]$"):
            build_inequality(six_party, 2, {1: c, 3: c, 5: c, key: c})


def test_leaf_analysis_runs_once(monkeypatch):
    """The topology keeps its leaf analysis: find_leaves returns the same
    object on every call, and build_inequality reads it rather than running
    the analysis again."""
    calls = []
    analyze = topology._leaf_analysis

    def counting(topo):
        calls.append(topo)
        return analyze(topo)

    monkeypatch.setattr(topology, "_leaf_analysis", counting)
    topo = build_topology(6, [(1, 2), (2, 4), (3, 4), (4, 6), (4, 5), (2, 6)])
    leaves = topology.find_leaves(topo)
    assert topology.find_leaves(topo) is leaves
    ineq = build_inequality(topo, 2, {s: make_catalog(CHSH) for s in (1, 3, 5)})
    assert ineq.leaves is leaves
    assert len(calls) == 1

    fresh = build_topology(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
    ineq = build_inequality(fresh, 2, {s: make_catalog(CHSH) for s in (1, 3, 4)})
    assert ineq.leaves is topology.find_leaves(fresh)
    assert len(calls) == 2


def test_fcbi_map_is_a_read_only_snapshot(six_party):
    """The inequality holds the maps as they were at build time: its
    fcbi_map refuses assignment, and a later change to the caller's dict
    does not reach it."""
    chsh, wide = make_catalog(CHSH), make_catalog(CHAINED, 3)
    fcbi = {5: chsh, 1: chsh, 3: chsh}
    ineq = build_inequality(six_party, 2, fcbi)
    with pytest.raises(TypeError):
        ineq.fcbi_map[1] = wide
    with pytest.raises(AttributeError):
        ineq.fcbi_map = {}
    fcbi[1] = wide
    del fcbi[3]
    assert list(ineq.fcbi_map.items()) == [(1, chsh), (3, chsh), (5, chsh)]
    assert ineq.leaf_fcbi(1) is chsh
    assert ineq.maps == (chsh,)
    assert ineq.map_sources.tolist() == [1, 3, 5]
    assert ineq.map_index.tolist() == [0, 0, 0]
    assert "map_index" not in repr(ineq) and "map_sources" not in repr(ineq)


def test_maps_follow_their_first_sources(six_party):
    """Each distinct map object is held once, in the order of the first
    source that carries it, whatever order the objects were made in; an
    equal but distinct object counts as its own map."""
    later, earlier = make_catalog(CHSH), make_catalog(CHSH)
    for fcbi in ({5: earlier, 1: later, 3: earlier}, {3: earlier, 5: earlier, 1: later}):
        ineq = build_inequality(six_party, 2, fcbi)
        assert ineq.maps[0] is later and ineq.maps[1] is earlier
        assert ineq.map_index.tolist() == [0, 1, 1]
        assert [ineq.fcbi_map[s] is fcbi[s] for s in (1, 3, 5)] == [True] * 3
    ineq = build_inequality(six_party, 2, {1: earlier, 3: later, 5: earlier})
    assert [m is earlier for m in ineq.maps] == [True, False]
    assert ineq.map_index.tolist() == [0, 1, 0]


def test_rejects_column_mismatch(six_party):
    fcbi = {s: make_catalog(CHSH) for s in (1, 3, 5)}
    with pytest.raises(ColumnMismatchError):
        build_inequality(six_party, 3, fcbi)


def test_many_leaves_with_mixed_maps():
    """A star with 2000 leaves whose sources carry two map objects, CHSH and
    a 2-column custom matrix, shuffled: both bounds equal, bit for bit, the
    geometric mean of the per-leaf values in sorted-source order. A shared
    3-column map on two sources is reported at the first of them in fcbi_map
    order, which here is not the smaller source."""
    leaves = 2000
    topo = build_topology(leaves + 1, [(1, p) for p in range(2, leaves + 2)])
    maps = (make_catalog(CHSH), custom_matrix(np.array([[1.0, 0.25], [0.5, -1.0]]), restarts=2))
    rng = np.random.default_rng(0)
    sources = rng.permutation(np.arange(1, leaves + 1)).tolist()
    fcbi_map = {s: maps[int(i)] for s, i in zip(sources, rng.integers(0, 2, leaves))}
    assert {id(m) for m in fcbi_map.values()} == {id(m) for m in maps}
    ineq = build_inequality(topo, 2, fcbi_map)
    per_leaf = [fcbi_map[s] for s in sorted(fcbi_map)]
    assert ineq.classical_bound == builder._geomean([m.classical_bound for m in per_leaf], leaves)
    assert ineq.quantum_bound == builder._geomean([m.quantum_opt for m in per_leaf], leaves)

    first, second = sources[10], sources[20]
    assert first > second
    wide = make_catalog(CHAINED, 3)
    with pytest.raises(ColumnMismatchError, match=rf"^FCBI for source {first} has 3 columns"):
        build_inequality(topo, 2, {**fcbi_map, first: wide, second: wide})


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
