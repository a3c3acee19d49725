"""Party-source network graphs and leaf-node analysis.

A network is an undirected multigraph-free graph: parties are vertices,
bipartite sources are edges, and source ``j`` is the j-th entry of the edge
list (1-based). Leaf nodes are degree-one parties; the unique source attached
to a leaf is called peripheral.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    IsolatedPartyError,
    SelfLoopError,
)

# Largest N with (N + 1)**2 <= 2**63 - 1: every duplicate key a * (N + 1) + b,
# 1 <= a < b <= N, then fits in int64.
MAX_PARTIES = math.isqrt(2**63 - 1) - 1


@dataclass(frozen=True)
class NetworkTopology:
    """Validated network graph.

    Attributes:
        n_parties: number of parties N (1-based party indices).
        edges: (M, 2) int array; row j-1 holds the party pair of source j.
        degrees: per-party degree, shape (N,), index 0 = party 1.
    """

    n_parties: int
    edges: np.ndarray
    degrees: np.ndarray

    @property
    def n_sources(self) -> int:
        return self.edges.shape[0]

    @functools.cached_property
    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-party list of (neighbor, source index) pairs, built lazily."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_parties + 1)]
        for j, (a, b) in enumerate(self.edges, start=1):
            adj[int(a)].append((int(b), j))
            adj[int(b)].append((int(a), j))
        return adj

    @functools.cached_property
    def leaves(self) -> LeafAnalysis:
        """The leaf analysis, built on first use and then shared; see
        `find_leaves`."""
        return _leaf_analysis(self)

    def incident_sources(self, party: int) -> list[int]:
        """Source indices attached to a party, in ascending order.

        The adjacency is filled in source order, so no sort is needed. Local
        model response tables and the operator-level oracle's qubit order rely on it.
        """
        return [s for _, s in self.adjacency[party]]

    def endpoints(self, source: int) -> tuple[int, int]:
        a, b = self.edges[source - 1]
        return int(a), int(b)


@dataclass(frozen=True)
class LeafAnalysis:
    """Leaf structure of a topology.

    Attributes:
        leaf_set: sorted array of degree-one party indices.
        intermediate_set: sorted array of the remaining party indices.
        peripheral_sources: source index attached to each leaf, aligned with
            ``leaf_set``.
    """

    leaf_set: np.ndarray
    intermediate_set: np.ndarray
    peripheral_sources: np.ndarray

    @property
    def l(self) -> int:  # noqa: E743 - matches the standard leaf-count symbol
        return int(self.leaf_set.size)

    # Built on first access and shared by every later one, so callers must
    # not mutate them; a 10^6-party analysis that never reads them builds
    # neither.
    @functools.cached_property
    def peripheral_map(self) -> dict[int, int]:
        """leaf party -> its unique incident source index."""
        return dict(zip(self.leaf_set.tolist(), self.peripheral_sources.tolist()))

    @functools.cached_property
    def peripheral_set(self) -> frozenset[int]:
        return frozenset(self.peripheral_sources.tolist())


_BOOL_TYPES = frozenset((bool, np.bool_))


def _party_pairs(edges) -> np.ndarray:
    """``edges`` as an (M, 2) int64 array.

    Booleans and non-integral numbers, which the int64 cast would truncate
    to a valid-looking party, are refused like a malformed shape, and so are
    infinities and entries that are not numbers (strings, None, objects),
    which the cast would parse or fail on.
    """
    arr = np.asarray(edges)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise IndexOutOfRangeError("edges must be a non-empty list of party pairs")
    kind = arr.dtype.kind
    # A list mixing booleans and ints casts to an int array, so scan lists;
    # the shape check above makes every pair iterable. Checking each type
    # against a set stays in C, unlike an isinstance per entry.
    bools = not isinstance(edges, np.ndarray) and not _BOOL_TYPES.isdisjoint(
        map(type, itertools.chain.from_iterable(edges))
    )
    if (
        bools
        or kind not in "iuf"
        or (kind == "f" and not np.all(np.isfinite(arr) & (arr == np.trunc(arr))))
    ):
        raise IndexOutOfRangeError(
            "party indices must be integers, not booleans, fractions or strings"
        )
    if kind == "f":
        # Past MAX_PARTIES an index is out of range for every network; the
        # clip keeps the int64 cast exact and leaves it to the range check.
        arr = np.clip(arr, 0, MAX_PARTIES + 1)
    return arr.astype(np.int64, copy=False)


def build_topology(n_parties: int, edges) -> NetworkTopology:
    """Validate and construct a network topology.

    Args:
        n_parties: number of parties, >= 1.
        edges: iterable of (a, b) party-index pairs; entry j is source j+1.

    Validation costs one O(M log M) sort of int64 keys, one per source,
    O(N + M) passes for the range and degree checks, and a few O(N + M)
    union-find passes for connectivity (see ``_count_components``). These
    stop at the round that leaves one root: on a tree whose parents precede
    their children, or on an ordered chain, that is the first, a hooking
    pass and about log2 of the depth pointer jumps. Each source's smaller
    and larger endpoint are taken once, by an elementwise min and max rather
    than a row sort; they give the self-loop check, the duplicate key and
    the first union-find round. Peak memory, degrees and
    labels included, stays under five times the (M, 2) int64 edge array
    when N is about M. More than 2M parties always leaves one isolated; that
    case is refused from the endpoints alone, so time and memory never scale
    with an N above 2M.

    Raises:
        IndexOutOfRangeError: empty or malformed ``edges`` (booleans,
            non-integral and non-numeric party indices included), a party
            index outside [1, n_parties], or ``n_parties`` outside
            [1, MAX_PARTIES], the range in which the int64 duplicate key
            ``a * (n_parties + 1) + b`` is exact.
        SelfLoopError, DuplicateEdgeError, IsolatedPartyError,
        DisconnectedError.
    """
    arr = _party_pairs(edges)
    if n_parties < 1:
        raise IndexOutOfRangeError("n_parties must be positive")
    if n_parties > MAX_PARTIES:
        raise IndexOutOfRangeError(
            f"n_parties must be at most {MAX_PARTIES} for an exact int64 source key"
        )
    if arr.min() < 1 or arr.max() > n_parties:
        raise IndexOutOfRangeError(
            f"party indices must lie in [1, {n_parties}]"
        )
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    if np.any(lo == hi):
        raise SelfLoopError("a source must connect two distinct parties")

    # One key per unordered pair: lo < hi <= n_parties, so
    # lo * (n_parties + 1) + hi is injective and, by the bound above, exact.
    key = lo * (n_parties + 1)
    key += hi
    key.sort()
    if np.any(key[1:] == key[:-1]):
        raise DuplicateEdgeError("each source must connect a distinct pair of parties")

    m = arr.shape[0]
    if n_parties > 2 * m:
        # Fewer endpoints than parties: the lowest isolated party follows the
        # first gap in the sorted endpoints (np.unique would import numpy.ma).
        ends = np.concatenate(([0], np.sort(arr, axis=None)))
        gaps = np.flatnonzero(ends[1:] - ends[:-1] > 1)
        missing = int(ends[gaps[0] if gaps.size else -1]) + 1
        raise IsolatedPartyError(f"party {missing} is attached to no source")
    degrees = np.bincount(arr.ravel(), minlength=n_parties + 1)[1:]
    if np.any(degrees == 0):
        missing = int(np.flatnonzero(degrees == 0)[0]) + 1
        raise IsolatedPartyError(f"party {missing} is attached to no source")

    del key  # freed before union-find allocates its labels
    n_comp = _count_components(n_parties, lo, hi)
    if n_comp > 1:
        raise DisconnectedError(f"network has {n_comp} connected components")

    return NetworkTopology(n_parties=n_parties, edges=arr, degrees=degrees)


def _count_components(n_parties: int, lo: np.ndarray, hi: np.ndarray) -> int:
    """Number of connected components of parties 1..n_parties, given each
    source's smaller and larger endpoint, lo < hi.

    Union-find by minimum label (Shiloach and Vishkin, J. Algorithms 3, 57,
    1982). Each round hooks the larger root of every live source onto the
    smallest root it meets, jumps pointers until every party points at its
    root, then keeps the sources whose endpoint roots still differ. On entry
    every label is its own index and every source is live, so the first
    round hooks hi onto lo straight from the endpoint columns. A label never
    exceeds its index, so hooking creates no cycle, and every round with a
    live source removes at least one root.

    A jump never raises a label, so the jumps stop when the sum of the
    labels stops falling; it stays below 2**62 for every n_parties up to
    MAX_PARTIES. Party 1 is always a root, so a round that leaves one root
    leaves every label of parties 1..n_parties at 1, and their sum at
    n_parties: a connected input returns then, without gathering the
    endpoint labels of its sources again. Otherwise the rounds run until no
    source is live, and the roots are counted.
    """
    label = np.arange(n_parties + 1)
    a, b = lo, hi
    top, low = hi, lo
    while True:
        np.minimum.at(label, top, low)
        total = label.sum()
        while True:
            jumped = label[label]
            jumped_total = jumped.sum()
            if jumped_total == total:
                break
            label, total = jumped, jumped_total
        if total == n_parties:
            return 1
        la, lb = label[a], label[b]
        live = la != lb
        if not live.any():
            break
        a, b, la, lb = a[live], b[live], la[live], lb[live]
        top, low = np.maximum(la, lb), np.minimum(la, lb)
    return int(np.count_nonzero(label[1:] == np.arange(1, n_parties + 1)))


def find_leaves(topology: NetworkTopology) -> LeafAnalysis:
    """Identify leaf parties and their peripheral sources in O(N + M).

    The analysis is built once per topology and kept on it, as `adjacency`
    is: every later call, `build_inequality`'s included, returns the same
    object, so callers must not mutate its arrays.
    """
    return topology.leaves


def _leaf_analysis(topology: NetworkTopology) -> LeafAnalysis:
    degrees = topology.degrees
    leaves = np.flatnonzero(degrees == 1) + 1
    intermediates = np.flatnonzero(degrees != 1) + 1

    # For a degree-one party the (single) write below is its incident source.
    edges = topology.edges
    touch = np.zeros(topology.n_parties + 1, dtype=np.int64)
    idx = np.arange(1, edges.shape[0] + 1)
    touch[edges[:, 0]] = idx
    touch[edges[:, 1]] = idx
    peripheral = touch[leaves]

    return LeafAnalysis(
        leaf_set=leaves,
        intermediate_set=intermediates,
        peripheral_sources=peripheral,
    )
