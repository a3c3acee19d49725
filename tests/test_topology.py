import time
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netbell.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    IsolatedPartyError,
    SelfLoopError,
)
from netbell.topology import MAX_PARTIES, build_topology, find_leaves


def test_six_party_leaves(six_party):
    leaves = find_leaves(six_party)
    assert leaves.l == 3
    assert list(leaves.leaf_set) == [1, 3, 5]
    assert list(leaves.intermediate_set) == [2, 4, 6]
    assert leaves.peripheral_map == {1: 1, 3: 3, 5: 5}


def test_tree5_leaves(tree5):
    leaves = find_leaves(tree5)
    assert leaves.l == 3
    assert list(leaves.leaf_set) == [1, 4, 5]
    assert leaves.peripheral_set == {1, 3, 4}


def test_chain5_leaves(chain5):
    leaves = find_leaves(chain5)
    assert leaves.l == 2
    assert list(leaves.leaf_set) == [1, 5]
    assert leaves.peripheral_map == {1: 1, 5: 4}


def test_adjacency_and_endpoints(six_party):
    assert six_party.endpoints(2) == (2, 4)
    assert sorted(six_party.incident_sources(4)) == [2, 3, 4, 5]
    assert six_party.incident_sources(1) == [1]


def test_incident_sources_ascending():
    """A random tree plus one closing edge, with the sources listed in a
    shuffled order: every party's incident sources come out ascending."""
    rng = np.random.default_rng(4)
    n = 40
    edges = [(int(rng.integers(1, i)), i) for i in range(2, n + 1)]
    edges.append((1, n) if (1, n) not in edges else (2, n))
    order = rng.permutation(len(edges))
    topo = build_topology(n, [edges[i] for i in order])
    counts = np.zeros(n + 1, dtype=int)
    for party in range(1, n + 1):
        sources = topo.incident_sources(party)
        assert sources == sorted(sources)
        assert all(party in topo.endpoints(s) for s in sources)
        counts[party] = len(sources)
    assert counts.sum() == 2 * len(edges)


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        build_topology(3, [(1, 1), (1, 2), (2, 3)])


def test_duplicate_edge_rejected():
    # (2, 1) duplicates (1, 2) up to orientation
    with pytest.raises(DuplicateEdgeError):
        build_topology(3, [(1, 2), (2, 1), (2, 3)])


def test_duplicate_edge_rejected_at_scale():
    # Criterion-1 scale: the duplicate key must separate pairs up to (N - 1, N).
    n = 1_000_000
    edges = _random_tree_edges(n, np.random.default_rng(1))
    edges[-1] = (n - 1, n)
    assert build_topology(n, edges).n_sources == n - 1
    for extra in (edges[12345][::-1], (n - 1, n), (n, n - 1)):
        with pytest.raises(DuplicateEdgeError):
            build_topology(n, np.vstack([edges, extra]))


def test_out_of_range_rejected():
    with pytest.raises(IndexOutOfRangeError):
        build_topology(3, [(1, 2), (2, 4)])
    with pytest.raises(IndexOutOfRangeError):
        build_topology(3, [])
    # Booleans, fractions and strings, which an int64 cast would truncate or
    # parse, are refused as such: the first five would otherwise build
    # [[1, 2], [2, 3]], and the sixth would read as the self-loop [1, 1].
    for edges in ([(1.5, 2), (2, 3)], [(True, 2), (2, 3)], [(1, 2), (2, 3.0000001)],
                  [("1", "2"), ("2", "3")], [(1, 2), (2, "3")], [[1, True], [2, 3]],
                  np.array([[1.5, 2], [2, 3]]), np.array([[True, False], [False, True]]),
                  np.array([["1", "2"], ["2", "3"]]), [(1, 2), (2, np.inf)]):
        with pytest.raises(IndexOutOfRangeError, match="must be integers"):
            build_topology(3, edges)
    # An integral float past int64 is out of range, with no cast warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IndexOutOfRangeError, match=r"must lie in \[1, 3\]"):
            build_topology(3, [(1, 2), (2, 1e30)])
    # Integral numbers of any type still build the same network.
    for edges in ([(1, 2), (2, 3)], np.array([[1, 2], [2, 3]]), np.array([[1.0, 2.0], [2.0, 3.0]]),
                  [(np.int32(1), 2), (2, 3)]):
        assert build_topology(3, edges).edges.tolist() == [[1, 2], [2, 3]]
    # Past MAX_PARTIES the int64 duplicate key a * (N + 1) + b could overflow.
    int64_max = np.iinfo(np.int64).max
    assert MAX_PARTIES * (MAX_PARTIES + 2) <= int64_max < (MAX_PARTIES + 1) * (MAX_PARTIES + 3)
    with pytest.raises(IndexOutOfRangeError):
        build_topology(MAX_PARTIES + 1, [(1, 2)])


def test_isolated_party_rejected():
    cases = [
        (4, [(1, 2), (2, 3)], 4),
        (5, [(1, 3), (3, 4)], 2),  # more than 2M parties, gap below the top
        (10, [(1, 2), (2, 3)], 4),  # more than 2M parties, no gap
    ]
    for n, edges, missing in cases:
        with pytest.raises(IsolatedPartyError, match=f"party {missing} "):
            build_topology(n, edges)


@pytest.mark.memory
def test_isolated_party_memory_follows_sources():
    # A per-party degree array for 2 * 10**7 parties would take 160 MB.
    tracemalloc.start()
    try:
        with pytest.raises(IsolatedPartyError, match="party 3 "):
            build_topology(2 * 10**7, [(1, 2)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.memory
@pytest.mark.parametrize("shape", ["tree", "chain"])
def test_build_memory_follows_edges(shape):
    """build_topology on 10^5 parties peaks at five times the edge array
    under tracemalloc, the degrees and union-find labels included. A small
    build first keeps numpy's one-time set-up out of the traced peak."""
    n = 100_000
    if shape == "tree":
        edges = _random_tree_edges(n, np.random.default_rng(5))
    else:
        edges = np.stack([np.arange(1, n), np.arange(2, n + 1)], axis=1)
    build_topology(3, [(1, 2), (2, 3)])
    tracemalloc.start()
    try:
        build_topology(n, edges)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * edges.nbytes


def test_disconnected():
    with pytest.raises(DisconnectedError, match="^network has 2 connected components$"):
        build_topology(4, [(1, 2), (3, 4)])


def _permuted_chain_edges(n, seed):
    # A chain visiting the parties in random order. Of the 10^6-party shapes
    # tried, min-label union-find needs the most hooking rounds on it (12,
    # against 1 on the ordered chain).
    order = np.random.default_rng(seed).permutation(n) + 1
    return np.stack([order[:-1], order[1:]], axis=1)


def test_permuted_chain_builds_in_time():
    n = 1_000_000
    edges = _permuted_chain_edges(n, 2)
    start = time.perf_counter()
    topo = build_topology(n, edges)
    elapsed = time.perf_counter() - start
    assert find_leaves(topo).l == 2
    assert elapsed < 1.0


def test_permuted_chain_missing_source_disconnected():
    n = 1_000_000
    edges = np.delete(_permuted_chain_edges(n, 2), n // 2, axis=0)
    with pytest.raises(DisconnectedError, match="^network has 2 connected components$"):
        build_topology(n, edges)


def _bfs_components(n, edges):
    """Reference component count: breadth-first search over parties 1..n."""
    adjacent = {p: [] for p in range(1, n + 1)}
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen = set()
    count = 0
    for start in adjacent:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            for q in adjacent[queue.popleft()]:
                if q not in seen:
                    seen.add(q)
                    queue.append(q)
    return count


@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_component_count_matches_bfs(pairs):
    """Random edge lists with no self-loop, repeated pair or isolated party:
    a connected list builds, and the error names the component count a BFS
    finds."""
    pairs = list({frozenset(p): p for p in pairs if p[0] != p[1]}.values())
    assume(pairs)
    # Renumber the touched parties 1..n, so that no party is isolated.
    parties, index = np.unique(pairs, return_inverse=True)
    n = parties.size
    edges = index.reshape(-1, 2) + 1
    n_comp = _bfs_components(n, edges.tolist())
    if n_comp == 1:
        assert build_topology(n, edges).n_sources == len(pairs)
        return
    with pytest.raises(
        DisconnectedError, match=f"^network has {n_comp} connected components$"
    ):
        build_topology(n, edges)


def _check_component_count(n, edges):
    n_comp = _bfs_components(n, edges)
    if n_comp == 1:
        assert build_topology(n, edges).n_sources == len(edges)
    else:
        with pytest.raises(
            DisconnectedError, match=f"^network has {n_comp} connected components$"
        ):
            build_topology(n, edges)
    return n_comp


def _roots_after_first_round(n, edges):
    """Roots left by one min-label hooking round: every party hooks onto
    the smallest neighbour below it, and the labels are followed to a root."""
    label = list(range(n + 1))
    for a, b in edges:
        lo, hi = min(a, b), max(a, b)
        label[hi] = min(label[hi], lo)

    def root(p):
        while label[p] != p:
            p = label[p]
        return p

    return len({root(p) for p in range(1, n + 1)})


# Inputs on which the first hooking round leaves more roots than there are
# components, so that union-find needs a second round: a chain visiting
# 2, 4, 1, 3, alone and beside a three-party star centred on 7.
_SEVERAL_ROOTS = [
    (4, [(2, 4), (1, 4), (1, 3)], 1),
    (7, [(2, 4), (1, 4), (1, 3), (5, 7), (6, 7)], 2),
    (9, [(2, 4), (1, 4), (1, 3), (5, 7), (6, 7), (8, 9)], 3),
]


@pytest.mark.parametrize("n, edges, components", _SEVERAL_ROOTS)
def test_component_count_after_several_rounds(n, edges, components):
    assert _roots_after_first_round(n, edges) > components
    assert _check_component_count(n, edges) == components


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_forest_component_count_matches_bfs(components, seed):
    """A random forest of 1-6 trees, 2-8 parties each, numbered in a random
    order and with a few extra edges inside its trees, listed in a random
    order: a single tree builds, and a forest's error names the count a BFS
    finds. The random numbering makes the first hooking round leave several
    roots in most trees."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 9, components)
    n = int(sizes.sum())
    parties = rng.permutation(n) + 1
    edges = set()
    start = 0
    for size in sizes:
        tree = parties[start:start + size].tolist()
        start += size
        for i in range(1, size):
            edges.add(frozenset((tree[int(rng.integers(0, i))], tree[i])))
        for _ in range(int(rng.integers(0, 3))):
            a, b = rng.choice(tree, 2, replace=False).tolist()
            edges.add(frozenset((a, b)))
    edges = [tuple(rng.permutation(sorted(e)).tolist()) for e in edges]
    edges = [edges[i] for i in rng.permutation(len(edges))]
    assert _check_component_count(n, edges) == components


def _random_tree_edges(n, rng):
    # Attach each new node to a uniformly random earlier node.
    parents = rng.integers(1, np.arange(2, n + 1))
    return np.stack([parents, np.arange(2, n + 1)], axis=1)


@given(st.integers(min_value=3, max_value=60), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_random_tree_leaf_count_matches_degrees(n, seed):
    """On any tree, the leaf set is exactly the degree-one vertex set and
    each peripheral source touches its leaf."""
    rng = np.random.default_rng(seed)
    edges = _random_tree_edges(n, rng)
    topo = build_topology(n, edges)
    leaves = find_leaves(topo)
    degree_one = set(np.flatnonzero(topo.degrees == 1) + 1)
    assert set(int(p) for p in leaves.leaf_set) == degree_one
    for leaf, source in leaves.peripheral_map.items():
        assert leaf in topo.endpoints(source)
    assert leaves.l + len(leaves.intermediate_set) == n
