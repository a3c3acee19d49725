"""Reference computations for the benchmark's correctness checks.

Everything here is numpy only and calls no netbell function: the checks
compare the program's outputs against these, or against properties the
method must have, never against a stored copy of earlier output. The
coefficient matrices follow the published definitions (CHSH
M[x,y] = (-1)^(xy)/2, the wrapping chained inequality, the elegant
inequality's sign table), written out again from those definitions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

PAULI = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def round12(x: float) -> float:
    """The value rounded to the 12 significant digits the CLI prints."""
    return float(f"{x:.12g}")


def close12(printed: float, exact: float, tol: float = 1e-12) -> bool:
    """True when a 12-significant-digit printout matches an exact value."""
    return abs(printed - round12(exact)) <= tol * max(1.0, abs(exact))


def fcbi_spec(spec) -> tuple[np.ndarray, float, float]:
    """(coefficients, classical bound, quantum optimum) of a config FCBI spec."""
    if spec == "chsh":
        m = np.array([[-0.5, 0.5], [0.5, 0.5]])
        return m, 1.0, math.sqrt(2.0)
    if spec == "ebi":
        m = np.array([[1.0, 1.0, 1.0, 1.0],
                      [1.0, 1.0, -1.0, -1.0],
                      [1.0, -1.0, 1.0, -1.0]])
        return m, 6.0, 4.0 * math.sqrt(3.0)
    if isinstance(spec, dict) and set(spec) == {"chained"}:
        k = int(spec["chained"])
        m = np.zeros((k, k))
        for j in range(k):
            m[j, j] = 0.5
            m[(j + 1) % k, j] = 0.5 if j + 1 < k else -0.5
        return m, float(k - 1), k * math.cos(math.pi / (2 * k))
    raise ValueError(f"no reference for fcbi spec {spec!r}")


def geomean(values, l: int) -> float:
    return float(np.prod(np.asarray(values, dtype=float)) ** (1.0 / l))


def leaves_from_edges(n_parties: int, edges) -> dict:
    """Leaf parties, intermediates and peripheral sources from a degree count.

    Source j is row j-1 of the edge list. Returns sorted leaf and
    intermediate arrays and the source attached to each leaf, aligned with
    the leaf array.
    """
    edges = np.asarray(edges, dtype=np.int64)
    degree = np.bincount(edges.ravel(), minlength=n_parties + 1)[1:]
    leaf = np.flatnonzero(degree == 1) + 1
    ends = edges.ravel()
    source = np.repeat(np.arange(1, edges.shape[0] + 1), 2)
    at_leaf = degree[ends - 1] == 1
    order = np.argsort(ends[at_leaf], kind="stable")
    return {
        "leaf_set": leaf,
        "intermediate_set": np.flatnonzero(degree != 1) + 1,
        "peripheral_sources": source[at_leaf][order],
    }


def leaf_only_lhv_max(leaf_matrices: list[np.ndarray]) -> float:
    """Exact maximum of S over deterministic source-local models.

    Intermediate parties output +/-1 and drop out of |I_j|, so only the leaf
    sign tables matter: S = sum_j prod_leaves |sum_x M[x,j] A_x|^(1/l).
    """
    l = len(leaf_matrices)
    prod = None
    for m in leaf_matrices:
        rows = m.shape[0]
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=rows)))
        table = np.abs(signs @ m)
        prod = table if prod is None else (prod[:, None, :] * table[None, :, :]).reshape(-1, m.shape[1])
    return float((prod ** (1.0 / l)).sum(axis=1).max())


def werner_mixed_bound(q: float, v: float, n_sources: int, l: int) -> float:
    """Closed-form mixed-state bound q * v^(M/l) for uniform Werner sources."""
    return q * v ** (n_sources / l)


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """T[u, v] = Tr[rho (sigma_u x sigma_v)] from explicit Pauli products."""
    t = np.empty((3, 3))
    for u in range(3):
        for v in range(3):
            t[u, v] = np.trace(rho @ np.kron(PAULI[u + 1], PAULI[v + 1])).real
    return t


def network_S(edges, leaf_matrices: dict[int, np.ndarray], k: int,
              corr: dict[int, np.ndarray], bloch: dict) -> float:
    """S of a strategy by expanding every column into products of u^T T v.

    edges: host edge list (source j is row j-1); leaf_matrices: target leaf
    party -> its coefficient matrix; bloch: (party, input, source) -> unit
    Bloch vector. Parties that are not target leaves use input j in column j.
    """
    leaves = sorted(leaf_matrices)
    l = len(leaves)
    n_parties = int(np.max(edges))
    total = 0.0
    for j in range(k):
        column = 0.0
        for combo in itertools.product(*[range(leaf_matrices[p].shape[0]) for p in leaves]):
            coeff = 1.0
            x = {p: j + 1 for p in range(1, n_parties + 1)}
            for p, c in zip(leaves, combo):
                coeff *= leaf_matrices[p][c, j]
                x[p] = c + 1
            if coeff == 0.0:
                continue
            term = coeff
            for s, (a, b) in enumerate(edges, start=1):
                a, b = int(a), int(b)
                term *= float(bloch[(a, x[a], s)] @ corr[s] @ bloch[(b, x[b], s)])
            column += term
        total += abs(column) ** (1.0 / l)
    return total
