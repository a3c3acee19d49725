"""Scalar reference implementations kept apart from the package.

The package evaluates networks with one einsum engine and local models with
one batched loop; these plain loops are the checks the tests compare them
against.
"""

from itertools import product

import numpy as np


def correlator(topology, states, strategy, x):
    """Factorized full-correlation expectation for one input assignment.

    E = prod_j u_j^T T_j v_j, with u_j, v_j the Bloch vectors of the two
    endpoint observables of source j. Valid for traceless observables on a
    product of bipartite states.
    """
    value = 1.0
    for j in range(1, topology.n_sources + 1):
        a, b = topology.endpoints(j)
        u = strategy.bloch(a, x[a], j)
        v = strategy.bloch(b, x[b], j)
        value *= float(u @ states[j].corr @ v)
    return value


def local_model_S(ineq, model):
    """S of a local model, one hidden-variable tuple and one column at a time."""
    counts = {int(p): ineq.k for p in ineq.leaves.intermediate_set}
    counts.update({int(p): ineq.leaf_fcbi(int(p)).rows for p in ineq.leaves.leaf_set})
    parties = sorted(counts)
    leaf_set = {int(p) for p in ineq.leaves.leaf_set}
    topology = ineq.topology
    sources = list(range(1, topology.n_sources + 1))
    alphabets = [range(model.cardinalities[s]) for s in sources]

    I = np.zeros(ineq.k)
    for lam in product(*alphabets):
        lam_of = dict(zip(sources, lam))
        weight = 1.0
        for s in sources:
            weight *= float(model.weights[s][lam_of[s]])
        for j in range(1, ineq.k + 1):
            term = weight
            for p in parties:
                inc = sorted(topology.incident_sources(p))
                idx = 0
                for s in inc:
                    idx = idx * model.cardinalities[s] + lam_of[s]
                if p in leaf_set:
                    m = ineq.leaf_fcbi(p)
                    term *= float(
                        m.entries[:, j - 1] @ model.responses[p][:, idx]
                    )
                else:
                    term *= float(model.responses[p][j - 1, idx])
            I[j - 1] += term
    return float(np.sum(np.abs(I) ** (1.0 / ineq.l)))
