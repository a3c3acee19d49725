"""Assembly of the nonlinear network inequality from a topology and FCBIs.

The inequality reads S = sum_j |I_j|^(1/l) <= bound, where each column j
combines the Delta-weighted observables of every leaf with all intermediate
parties fixed at input j. The classical bound is the geometric mean of the
peripheral FCBI classical bounds, a Holder upper bound that is attained when
every leaf carries the same map and may be loose for mixed maps; the quantum
bound uses their quantum optima instead.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    ColumnMismatchError,
    DegenerateBipartiteError,
    MissingFcbiError,
    TooFewLeavesError,
)
from .fcbi import CoefficientMatrix, state_max
from .qstate import TwoQubitState
from .topology import LeafAnalysis, NetworkTopology, find_leaves


@dataclass(frozen=True, eq=False)
class NetworkInequality:
    """Built inequality: topology, leaf analysis, k, per-source FCBIs, bounds.

    classical_bound is the geometric mean of the leaves' FCBI classical
    bounds: a Holder upper bound on S over local models, attained when every
    leaf carries the same map and possibly loose for mixed maps.

    The FCBIs are kept as they were at build time, as arrays over the
    peripheral sources in ascending order, `map_sources`: `maps` holds each
    distinct map object once, in the order of the first source that carries
    it, and `map_index` numbers, per source, its map in `maps`. `fcbi_map`
    is the read-only source -> map view of them. The two arrays stay out of
    `repr`.

    What depends on the inequality alone is derived on first use and kept
    on the instance, as `NetworkTopology.adjacency` is, and never a state:
    the `fcbi_map` view, the intermediate sources, and the evaluator's
    structure on the inequality's own network (`evaluator._own_objective`),
    which `evaluate_S`, `check_conditions` and `seesaw_network` reuse.
    """

    topology: NetworkTopology
    leaves: LeafAnalysis
    k: int
    maps: tuple[CoefficientMatrix, ...]
    map_sources: np.ndarray = field(repr=False)
    map_index: np.ndarray = field(repr=False)
    classical_bound: float
    quantum_bound: float
    _objective: object = field(default=None, init=False, repr=False)

    @functools.cached_property
    def fcbi_map(self) -> Mapping[int, CoefficientMatrix]:
        """Peripheral source -> its FCBI, ascending, as a read-only dict view.

        Built on first read; every later read is a dict lookup.
        """
        return MappingProxyType(
            dict(zip(self.map_sources.tolist(), map(self.maps.__getitem__, self.map_index.tolist())))
        )

    @property
    def l(self) -> int:  # noqa: E743
        return self.leaves.l

    def leaf_fcbi(self, leaf: int) -> CoefficientMatrix:
        return self.fcbi_map[self.leaves.peripheral_map[leaf]]

    def intermediate_sources(self) -> tuple[int, ...]:
        """Sources joining two intermediate parties, ascending."""
        return self._intermediate_sources

    @functools.cached_property
    def _intermediate_sources(self) -> tuple[int, ...]:
        peripheral = self.leaves.peripheral_set
        return tuple(
            s for s in range(1, self.topology.n_sources + 1) if s not in peripheral
        )

    def term(self, j: int) -> dict:
        """Human-readable description of the column-j correlator."""
        if not 1 <= j <= self.k:
            raise IndexError(f"column {j} outside [1, {self.k}]")
        leaves = {}
        for leaf, source in self.leaves.peripheral_map.items():
            m = self.fcbi_map[source]
            leaves[leaf] = {
                "source": source,
                "coefficients": {x: float(m.entries[x - 1, j - 1]) for x in range(1, m.rows + 1)},
            }
        return {
            "column": j,
            "fixed_input": j,
            "intermediate_parties": [int(p) for p in self.leaves.intermediate_set],
            "delta_leaves": leaves,
        }


def _geomean(values, l: int, axis=None):
    """exp(sum log|values| / l), the l-th root of the product of |values|
    along `axis` (all by default), without forming it; zeros give 0. numpy
    sums pairwise along a contiguous axis, so the error does not grow there."""
    x = np.abs(values, dtype=float)
    with np.errstate(divide="ignore"):
        np.log(x, out=x)
    return np.exp(x.sum(axis=axis) / l)


def build_inequality(
    topology: NetworkTopology, k: int, fcbi_map: dict[int, CoefficientMatrix]
) -> NetworkInequality:
    """Validate and build the network inequality.

    The classical bound is the geometric mean of the leaves' FCBI classical
    bounds, an upper bound by Holder's inequality. It is attained when every
    leaf carries the same map; with mixed maps the local maximum (see
    `optimizer.classical_oracle`) may lie below it.

    fcbi_map is keyed by source; a key that equals a peripheral source as a
    Python number (3, np.int64(3), 3.0, True for source 1) stands for it.
    The topology's leaf analysis (`find_leaves`) is reused, and fcbi_map is
    not copied: each peripheral source is looked up once, in ascending
    order, and each distinct map object is checked and read once, so a large
    network costs a few array passes over its peripheral sources.

    Raises:
        TooFewLeavesError: fewer than two leaf nodes.
        DegenerateBipartiteError: two-party network (plain FCBI territory).
        MissingFcbiError: fcbi_map does not cover exactly the peripheral
            sources, whatever the type of its keys.
        ColumnMismatchError: some FCBI column count differs from k.
    """
    if topology.n_parties == 2:
        raise DegenerateBipartiteError(
            "two-party networks are plain bipartite Bell tests; evaluate the FCBI directly"
        )
    leaves = find_leaves(topology)
    if leaves.l < 2:
        raise TooFewLeavesError(
            f"the construction needs at least two leaf nodes, found {leaves.l}"
        )
    # In a connected network of more than two parties no source joins two
    # leaves, so the sorted peripheral sources are distinct.
    sources = np.sort(leaves.peripheral_sources)
    keys = sources.tolist()
    try:
        per_source = list(map(fcbi_map.__getitem__, keys))
    except KeyError:
        per_source = None
    if per_source is None or len(fcbi_map) != len(keys):
        raise MissingFcbiError(
            f"fcbi_map must cover exactly the peripheral sources {keys}, got {_key_list(fcbi_map)}"
        )
    if k < 1:
        raise ColumnMismatchError("intermediate input count k must be positive")
    # Each distinct map object is checked and read once: on a large network
    # every leaf may share one. A stable sort of the ids of the maps, which
    # `per_source` keeps alive, groups the sources of each object behind its
    # first source, `starts`; `which` numbers each source's map among the
    # distinct ones in the order of their first sources, so that neither
    # `maps` nor `which` depends on where the objects lie in memory.
    ids = np.fromiter(map(id, per_source), np.intp, len(per_source))
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    first = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    starts = order[first]
    rank = np.empty_like(starts)
    rank[np.argsort(starts)] = np.arange(starts.size)
    which = np.empty_like(order)
    which[order] = rank[np.cumsum(first) - 1]
    maps = tuple(per_source[i] for i in np.sort(starts).tolist())
    if any(m.cols != k for m in maps):
        s, m = next((s, m) for s, m in fcbi_map.items() if m.cols != k)
        raise ColumnMismatchError(f"FCBI for source {s} has {m.cols} columns, expected k={k}")
    betas = np.array([m.classical_bound for m in maps], dtype=float)[which]
    opts = np.array([m.quantum_opt for m in maps], dtype=float)[which]
    return NetworkInequality(
        topology=topology,
        leaves=leaves,
        k=k,
        maps=maps,
        map_sources=sources,
        map_index=which,
        classical_bound=float(_geomean(betas, leaves.l)),
        quantum_bound=float(_geomean(opts, leaves.l)),
    )


def _key_list(fcbi_map) -> list:
    """The keys of fcbi_map, sorted where they compare, else as given."""
    try:
        return sorted(fcbi_map)
    except TypeError:
        return list(fcbi_map)


def mixed_state_bound(
    ineq: NetworkInequality,
    states: dict[int, TwoQubitState],
    restarts: int = 32,
    seed: int = 0,
) -> float:
    """Upper bound on S for given source states under separable qubit measurements.

    Product of the per-peripheral-source state maxima and the largest
    correlation singular value of every intermediate source, all to the
    power 1/l. Sources with the same FCBI and the same correlation matrix
    share one state_max call, which is exact: its result depends on nothing
    else.
    """
    maxima = {}
    factors = []
    for s in ineq.map_sources.tolist():
        m, rho = ineq.fcbi_map[s], states[s]
        key = (m.tag, m.entries.shape, m.entries.tobytes(), rho.corr.tobytes())
        if key not in maxima:
            maxima[key] = state_max(m, rho, restarts, seed)
        factors.append(maxima[key])
    for u in ineq.intermediate_sources():
        factors.append(states[u].t0)
    return float(_geomean(factors, ineq.l))
