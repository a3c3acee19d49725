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
import itertools
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class NetworkInequality:
    """Built inequality: topology, leaf analysis, k, per-source FCBIs, bounds.

    classical_bound is the geometric mean of the leaves' FCBI classical
    bounds: a Holder upper bound on S over local models, attained when every
    leaf carries the same map and possibly loose for mixed maps.

    What depends on the inequality alone is derived on first use and kept
    on the instance, as `NetworkTopology.adjacency` is, and never a state:
    the intermediate sources, and the evaluator's structure on the
    inequality's own network (`evaluator._own_objective`), which
    `evaluate_S`, `check_conditions` and `seesaw_network` reuse.
    """

    topology: NetworkTopology
    leaves: LeafAnalysis
    k: int
    fcbi_map: dict[int, CoefficientMatrix]
    classical_bound: float
    quantum_bound: float
    _objective: object = field(default=None, init=False, compare=False, repr=False)

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


def _geomean(values, l: int) -> float:
    vals = np.asarray(values, dtype=float)
    if (vals <= 0.0).any():
        return 0.0
    # exp(log-sum / l) keeps the l-th root stable for large l
    return float(np.exp(np.log(vals).sum() / l))


def build_inequality(
    topology: NetworkTopology, k: int, fcbi_map: dict[int, CoefficientMatrix]
) -> NetworkInequality:
    """Validate and build the network inequality.

    The classical bound is the geometric mean of the leaves' FCBI classical
    bounds, an upper bound by Holder's inequality. It is attained when every
    leaf carries the same map; with mixed maps the local maximum (see
    `optimizer.classical_oracle`) may lie below it.

    Raises:
        TooFewLeavesError: fewer than two leaf nodes.
        DegenerateBipartiteError: two-party network (plain FCBI territory).
        MissingFcbiError: fcbi_map does not cover exactly the peripheral sources.
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
    peripheral = np.sort(leaves.peripheral_sources).tolist()
    try:
        maps = list(map(fcbi_map.__getitem__, peripheral))
    except KeyError:
        maps = None
    if maps is None or len(fcbi_map) != len(peripheral):
        raise MissingFcbiError(
            f"fcbi_map must cover exactly the peripheral sources {peripheral}, got {sorted(fcbi_map)}"
        )
    if k < 1:
        raise ColumnMismatchError("intermediate input count k must be positive")
    # Each distinct map object is checked and read once: on a large network
    # every leaf may share one. One pass keeps, for each map object, the
    # index of the first source that carries it, and gives every source that
    # index; `which` then numbers each source's map among the distinct ones.
    first: dict[int, int] = {}
    which = np.fromiter(
        map(first.setdefault, map(id, maps), itertools.count()), np.intp, len(maps)
    )
    starts = list(first.values())
    distinct = [maps[i] for i in starts]
    if any(m.cols != k for m in distinct):
        s, m = next((s, m) for s, m in fcbi_map.items() if m.cols != k)
        raise ColumnMismatchError(f"FCBI for source {s} has {m.cols} columns, expected k={k}")
    which = np.searchsorted(starts, which)
    betas = np.array([m.classical_bound for m in distinct], dtype=float)[which]
    opts = np.array([m.quantum_opt for m in distinct], dtype=float)[which]
    return NetworkInequality(
        topology=topology,
        leaves=leaves,
        k=k,
        fcbi_map=dict(fcbi_map),
        classical_bound=_geomean(betas, leaves.l),
        quantum_bound=_geomean(opts, leaves.l),
    )


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
    for s in sorted(ineq.leaves.peripheral_set):
        m, rho = ineq.fcbi_map[s], states[s]
        key = (m.tag, m.entries.shape, m.entries.tobytes(), rho.corr.tobytes())
        if key not in maxima:
            maxima[key] = state_max(m, rho, restarts, seed)
        factors.append(maxima[key])
    for u in ineq.intermediate_sources():
        factors.append(states[u].t0)
    return _geomean(factors, ineq.l)
