"""Ready-made example networks and one explicit cross-network strategy.

These are the recurring test beds: a three-party chain (two sources, both
peripheral), a five-party star-like tree with three leaves, a five-party
chain with two leaves, and a six-party network with three leaves and three
intermediate sources.
"""

from __future__ import annotations

import numpy as np

from .builder import NetworkInequality, build_inequality
from .evaluator import SIGMA_X, SIGMA_Z, MeasurementStrategy, QubitObservable
from .fcbi import CHSH, make_catalog
from .topology import NetworkTopology, build_topology, find_leaves


def chain_topology(n_parties: int) -> NetworkTopology:
    """Linear chain 1 - 2 - ... - N; leaves are the two ends."""
    edges = [(i, i + 1) for i in range(1, n_parties)]
    return build_topology(n_parties, edges)


def tree5_topology() -> NetworkTopology:
    """Five parties, three leaves: 1 - 2 - 3 with 3 also feeding 4 and 5."""
    return build_topology(5, [(1, 2), (2, 3), (3, 4), (3, 5)])


def six_party_topology() -> NetworkTopology:
    """Six parties, three leaves (1, 3, 5); sources 1, 3, 5 are peripheral."""
    return build_topology(6, [(1, 2), (2, 4), (3, 4), (4, 6), (4, 5), (2, 6)])


def chsh_inequality(topology: NetworkTopology) -> NetworkInequality:
    """CHSH map on every peripheral source of the given topology."""
    peripheral = find_leaves(topology).peripheral_set
    return build_inequality(
        topology, 2, {s: make_catalog(CHSH) for s in peripheral}
    )


def chain5_strategy_for_tree5() -> MeasurementStrategy:
    """Explicit five-party chain strategy reaching sqrt(2) on the tree
    inequality.

    The tree inequality (leaves 1, 4, 5; exponent 1/3) is evaluated on the
    chain 1 - 2 - 3 - 4 - 5: with all sources maximally entangled, each
    column correlator equals 2^(-3/2), so S = 2 * (2^(-3/2))^(1/3) = sqrt(2),
    sitting exactly on the quantum boundary without exceeding it.
    """
    diag = QubitObservable(np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))
    anti = QubitObservable(np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0))
    strategy = MeasurementStrategy()
    # Party 1 (tree leaf, two inputs), chain source 1.
    strategy.set(1, 1, 1, SIGMA_Z)
    strategy.set(1, 2, 1, SIGMA_X)
    # Party 2 (tree intermediate), chain sources 1 and 2.
    strategy.set(2, 1, 1, anti)
    strategy.set(2, 2, 1, diag)
    strategy.set(2, 1, 2, SIGMA_Z)
    strategy.set(2, 2, 2, SIGMA_Z)
    # Party 3 (tree intermediate), chain sources 2 and 3.
    for j in (1, 2):
        strategy.set(3, j, 2, SIGMA_Z)
        strategy.set(3, j, 3, SIGMA_Z)
    # Party 4 (tree leaf, two inputs), chain sources 3 and 4.
    strategy.set(4, 1, 3, SIGMA_Z)
    strategy.set(4, 2, 3, SIGMA_Z)
    strategy.set(4, 1, 4, SIGMA_Z)
    strategy.set(4, 2, 4, SIGMA_X)
    # Party 5 (tree leaf, two inputs), chain source 4.
    strategy.set(5, 1, 4, SIGMA_Z)
    strategy.set(5, 2, 4, SIGMA_X)
    return strategy
