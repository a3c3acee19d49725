"""Scalar reference implementations kept apart from the package.

The package evaluates networks and local models alike through one planned
contraction, `evaluator.contract`; these plain loops are the checks the
tests compare it against.
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
        u = strategy.slots[(a, x[a], j)].n
        v = strategy.slots[(b, x[b], j)].n
        value *= float(u @ states[j].corr @ v)
    return value


def reference_columns(ineq, host, states, strategy):
    """Each I_j of the target inequality ineq as the sum of host correlators
    over the Delta-weighted leaf inputs."""
    leaves = [int(p) for p in ineq.leaves.leaf_set]
    matrices = [ineq.leaf_fcbi(p).entries for p in leaves]
    columns = np.zeros(ineq.k)
    for j in range(ineq.k):
        for combo in product(*[range(m.shape[0]) for m in matrices]):
            x = {int(p): j + 1 for p in ineq.leaves.intermediate_set}
            coeff = 1.0
            for leaf, m, c in zip(leaves, matrices, combo):
                coeff *= m[c, j]
                x[leaf] = c + 1
            columns[j] += coeff * correlator(host, states, strategy, x)
    return columns


def reference_S(ineq, host, states, strategy):
    """S = sum_j |I_j|^(1/l) of the reference columns."""
    columns = reference_columns(ineq, host, states, strategy)
    return float(np.sum(np.abs(columns) ** (1.0 / ineq.l)))


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


def tangent_derivs(a, g, h):
    """The Riemannian gradient (2r,) and Hessian (2r, 2r) on (S^2)^r at the
    unit rows a (r, 3), from the Euclidean gradient g (r, 3) and Hessian h
    (r, 3, r, 3), in a tangent basis of each row; also the bases (r, 2, 3).
    The Hessian's blocks are E_x h_xx' E_x'^T - delta_xx' (a_x . g_x)."""
    r = len(a)
    basis = []
    for n in a:
        # e_z (e_x near the poles) projected off n, and n x e1.
        e = np.array([1.0, 0.0, 0.0]) if abs(n[2]) >= 0.9 else np.array([0.0, 0.0, 1.0])
        e1 = e - (e @ n) * n
        e1 /= np.linalg.norm(e1)
        basis.append(np.array([e1, np.cross(n, e1)]))
    t = np.concatenate([basis[x] @ g[x] for x in range(r)])
    hess = np.zeros((2 * r, 2 * r))
    for x in range(r):
        for y in range(r):
            hess[2 * x : 2 * x + 2, 2 * y : 2 * y + 2] = basis[x] @ h[x, :, y] @ basis[y].T
        hess[2 * x : 2 * x + 2, 2 * x : 2 * x + 2] -= (a[x] @ g[x]) * np.eye(2)
    return t, hess, basis


def sphere_ascent(a, f):
    """Modified Newton ascent on (S^2)^r for one problem from the unit rows
    a (r, 3), one step at a time; f(a) gives the value, the Euclidean
    gradient (r, 3) and the Euclidean Hessian (r, 3, r, 3).

    Works in `tangent_derivs`' basis of each row: the Riemannian Hessian's
    eigenvalues are replaced by their magnitudes floored at 1e-8 times
    max(1, the largest), and the step is halved until the value rises. Stops
    when the model gain falls below 1e-13, an accepted gain falls below
    1e-13, the step falls to 1e-12, or after 60 accepted steps. Returns the
    rows, their value and whether the last model gain is below 1e-12 with no
    eigenvalue above the floor."""

    def newton(a):
        t, hess, basis = tangent_derivs(a, *f(a)[1:])
        lams, vecs = np.linalg.eigh(hess)
        floor = 1e-8 * max(1.0, np.abs(lams).max())
        d = vecs @ ((vecs.T @ t) / np.maximum(np.abs(lams), floor))
        step = np.array([d[2 * x : 2 * x + 2] @ e for x, e in enumerate(basis)])
        return step, 0.5 * (t @ d), lams.max() <= floor

    val = f(a)[0]
    d, model, concave = newton(a)
    accepts = 0
    while model >= 1e-13 and accepts < 60:
        step, gain = 1.0, None
        while step > 1e-12:
            cand = a + step * d
            cand = cand / np.linalg.norm(cand, axis=1, keepdims=True)
            if f(cand)[0] > val:
                gain = f(cand)[0] - val
                a, val = cand, f(cand)[0]
                break
            step *= 0.5
        if gain is None:
            break
        accepts += 1
        d, model, concave = newton(a)
        if gain < 1e-13:
            break
    return a, val, model < 1e-12 and concave


def max_abs_powersum(cs, gs, l, start):
    """Maximize sum_j |c_j + g_j . n|^(1/l) over the unit sphere for one
    problem by `sphere_ascent` from the start (|c_j + g_j . n| floored at
    1e-12 in the derivatives)."""
    p = 1.0 / l

    def f(n):
        v = cs + gs @ n[0]
        mags = np.maximum(np.abs(v), 1e-12)
        grad = (p * mags ** (p - 1.0) * np.sign(v)) @ gs
        hess = (gs.T * (p * (p - 1.0) * mags ** (p - 2.0))) @ gs
        return float(np.sum(np.abs(v) ** p)), grad[None], hess[None, :, None]

    return sphere_ascent(start[None], f)[0][0]


def bipartite(m, corr):
    """f(a) for `sphere_ascent`: the value sum_y |T^T d_y|, d_y = sum_x M[x,y] a_x,
    of the A-side rows a with its Euclidean gradient and Hessian, one column
    at a time."""

    def f(a):
        value, grad = 0.0, np.zeros_like(a)
        hess = np.zeros(a.shape + a.shape)
        for y in range(m.shape[1]):
            w = corr.T @ (m[:, y] @ a)
            norm = max(np.linalg.norm(w), 1e-14)
            value += np.linalg.norm(w)
            tw = corr @ (w / norm)
            block = (corr @ corr.T - np.outer(tw, tw)) / norm
            grad += np.outer(m[:, y], tw)
            hess += np.einsum("x,z,ac->xazc", m[:, y], m[:, y], block)
        return value, grad, hess

    return f


def seesaw_restart(obj, corrs, vecs, sweeps=120, tol=1e-11):
    """One network see-saw restart on the correlation matrices corrs from
    the endpoint rows vecs[i][side], updated in place, one block and one
    leaf input at a time. Returns its value."""
    factors = obj.factors(vecs, corrs)
    value = float(obj.value(factors))
    for _ in range(sweeps):
        for i, ends in enumerate(obj.ends):
            for side, party in enumerate(ends):
                rows = vecs[i][side]
                h = obj.block_coeffs(vecs, corrs, factors, i, side)
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
                factors[i] = obj.factor(vecs, corrs, i)
        new_value = float(obj.value(factors))
        if new_value - value < tol:
            return max(value, new_value)
        value = new_value
    return value
