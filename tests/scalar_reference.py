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


def max_abs_powersum(cs, gs, l, start):
    """Maximize sum_j |c_j + g_j . n|^(1/l) over the unit sphere for one
    problem: modified Newton steps on the sphere from the start (the tangent
    Hessian's eigenvalues replaced by their magnitudes, floored at 1e-8 times
    max(1, the largest)) with backtracking, one step at a time."""
    p = 1.0 / l

    def h(n):
        return float(np.sum(np.abs(cs + gs @ n) ** p))

    def newton(n):
        # Tangent basis: e_z (e_x near the poles) projected off n, and n x e1.
        a = np.array([1.0, 0.0, 0.0]) if abs(n[2]) >= 0.9 else np.array([0.0, 0.0, 1.0])
        e1 = a - (a @ n) * n
        e1 /= np.linalg.norm(e1)
        basis = np.array([e1, np.cross(n, e1)])
        v = cs + gs @ n
        mags = np.maximum(np.abs(v), 1e-12)
        w1 = p * mags ** (p - 1.0) * np.sign(v)
        w2 = p * (p - 1.0) * mags ** (p - 2.0)
        t = gs @ basis.T  # (k, 2): g_j . e_a
        r = w1 @ t
        hess = (t.T * w2) @ t - (w1 @ (gs @ n)) * np.eye(2)
        lams, vecs = np.linalg.eigh(hess)
        mods = np.maximum(np.abs(lams), 1e-8 * max(1.0, np.abs(lams).max()))
        d = vecs @ ((vecs.T @ r) / mods)
        return d @ basis, 0.5 * (r @ d)

    n, val = start, h(start)
    d, model = newton(n)
    accepts = 0
    while model >= 1e-13 and accepts < 60:
        step, gain = 1.0, None
        while step > 1e-12:
            cand = n + step * d
            cand /= np.linalg.norm(cand)
            if h(cand) > val:
                gain = h(cand) - val
                n, val = cand, h(cand)
                break
            step *= 0.5
        if gain is None or gain < 1e-13:
            break
        accepts += 1
        d, model = newton(n)
    return n


def seesaw_restart(obj, vecs, sweeps=120, tol=1e-11):
    """One network see-saw restart from the endpoint rows vecs[i][side],
    updated in place, one block and one leaf input at a time. Returns its
    value."""
    factors = obj.factors(vecs)
    value = float(obj.value(factors))
    for _ in range(sweeps):
        for i, ends in enumerate(obj.ends):
            for side, party in enumerate(ends):
                rows = vecs[i][side]
                h = obj.block_coeffs(vecs, factors, i, side)
                if np.abs(h).max() == 0.0:
                    continue
                h = h / np.abs(h).max()
                for x in range(len(rows)):
                    if party in obj.intermediate:
                        norm = np.sqrt(h[x, x] @ h[x, x])
                        if norm > 1e-14:
                            rows[x] = h[x, x] / norm
                    else:
                        c = np.einsum("yjc,yc->j", h, rows) - h[x] @ rows[x]
                        rows[x] = max_abs_powersum(c, h[x], obj.l, rows[x])
                factors[i] = obj.factor(vecs, i)
        new_value = float(obj.value(factors))
        if new_value - value < tol:
            return max(value, new_value)
        value = new_value
    return value
