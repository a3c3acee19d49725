"""Bipartite full-correlation Bell inequalities.

An FCBI is sum_{x,y} M[x,y] <A_x B_y> <= beta, fully specified by its real
coefficient matrix. This module holds the catalog (CHSH, chained, elegant),
the exact classical bound by sign enumeration, a see-saw maximizer for
quantum values on arbitrary two-qubit states, and the column-norm witness
that certifies quantum upper bounds.

`best_of_restarts` runs the restarts of this see-saw and of the network
one in `optimizer`; a see-saw supplies its draw, value, sweep and finish,
here `_sphere_ascent`, the Newton ascent that also polishes leaf rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BadKError, BadRestartsError, NonConvergenceError, TooLargeError
from .qstate import TwoQubitState

ENUMERATION_CAP_BITS = 24
# classical_bound and the exhaustive LHV oracle tabulate the signs of at most
# 2^16 codes at once, whatever the number of rows up to their caps.
SIGN_BLOCK_BITS = 16

CHSH = "CHSH"
CHAINED = "CHAINED"
EBI = "EBI"
CUSTOM = "CUSTOM"

# Dimension of the span of the optimal A-side vectors of a catalog map
# (CHSH has its own closed form); state_max is t0 q when T's top that many
# singular values agree to the relative tolerance below, and for every map
# when t0 is at most the package's near-zero threshold.
_TOP_DIMENSION = {CHAINED: 2, EBI: 3}
_EQUAL_SPECTRUM_RTOL = 1e-12
_ZERO_SPECTRUM_ATOL = 1e-14


@dataclass(frozen=True)
class CoefficientMatrix:
    """FCBI coefficient matrix with its two bounds.

    Attributes:
        entries: (rows, cols) real matrix; rows index the A-side inputs,
            columns the B-side inputs.
        tag: CHSH | CHAINED | EBI | CUSTOM.
        k_param: chain length for CHAINED, else None.
        classical_bound: beta (closed form for the catalog, exact sign
            enumeration for CUSTOM).
        quantum_opt: optimal quantum value (closed form for the catalog,
            see-saw estimate for CUSTOM).
    """

    entries: np.ndarray
    tag: str
    classical_bound: float
    quantum_opt: float
    k_param: int | None = None

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def delta_vectors(self, bloch_rows: np.ndarray) -> np.ndarray:
        """Column vectors d_y = sum_x M[x,y] a_x for A-side Bloch rows a_x."""
        return self.entries.T @ np.asarray(bloch_rows, dtype=float)


def sign_table(n_inputs: int, codes) -> np.ndarray:
    """+/-1 assignments of n_inputs inputs, one per integer code.

    Input i answers -1 where bit i of the code is set; the result has shape
    codes.shape + (n_inputs,).
    """
    codes = np.asarray(codes, dtype=np.int64)
    return 1.0 - 2.0 * ((codes[..., None] >> np.arange(n_inputs)) & 1)


def _check_enumeration_cap(rows: int) -> None:
    if rows > ENUMERATION_CAP_BITS:
        raise TooLargeError(
            f"enumeration over 2^{rows} sign assignments exceeds the cap"
        )


def classical_bound(entries) -> float:
    """Exact classical bound: max over A_x = +/-1 of sum_y |sum_x M[x,y] A_x|.

    The bound is the maximum of a^T M b over sign vectors a and b, so it is
    the same for M and M^T: the signs of the smaller side are enumerated,
    and the cap applies to that side.
    """
    m = np.asarray(entries, dtype=float)
    if m.size == 0:
        raise TooLargeError("coefficient matrix must be non-empty")
    if m.shape[1] < m.shape[0]:
        m = m.T
    rows = m.shape[0]
    _check_enumeration_cap(rows)
    # Code c = low + (high << n_low): each value of the high bits shifts the
    # same table of low-row sums.
    n_low = min(rows, SIGN_BLOCK_BITS)
    low_sums = sign_table(n_low, np.arange(2**n_low)) @ m[:n_low]
    best = -np.inf
    for high in range(2 ** (rows - n_low)):
        shift = sign_table(rows - n_low, high) @ m[n_low:]
        best = max(best, np.abs(low_sums + shift).sum(axis=1).max())
    return float(best)


def chsh_matrix() -> np.ndarray:
    """M[x,y] = (-1)^(x*y) / 2 with x, y in {1, 2}."""
    x = np.arange(1, 3)[:, None]
    y = np.arange(1, 3)[None, :]
    return 0.5 * (-1.0) ** (x * y)


def chained_matrix(k: int) -> np.ndarray:
    """k x k chained coefficients: column j couples rows j and j+1 (wrapping).

    The wrap column j = k pairs row k with row 1 carrying a minus sign,
    which realizes the A_{k+1} = -A_1 convention.
    """
    if k < 2:
        raise BadKError("chained inequality needs k >= 2")
    m = np.zeros((k, k))
    for j in range(k):
        m[j, j] += 0.5
        if j + 1 < k:
            m[j + 1, j] += 0.5
        else:
            m[0, j] -= 0.5
    return m


def ebi_matrix() -> np.ndarray:
    """3x4 elegant-inequality signs: columns are A1+A2+A3 with A3, A2 flips."""
    return np.array(
        [
            [1.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, -1.0, -1.0],
            [1.0, -1.0, 1.0, -1.0],
        ]
    )


def make_catalog(tag: str, k: int | None = None) -> CoefficientMatrix:
    """Catalog constructor with closed-form bounds.

    CHSH: (beta, opt) = (1, sqrt(2)). CHAINED(k): (k-1, k cos(pi/2k)).
    EBI: (6, 4 sqrt(3)).
    """
    if tag == CHSH:
        entries, beta, opt, kp = chsh_matrix(), 1.0, np.sqrt(2.0), None
    elif tag == CHAINED:
        if k is None or k < 2:
            raise BadKError("chained inequality needs k >= 2")
        # The catalog stops where classical_bound can still check its
        # closed form.
        _check_enumeration_cap(k)
        entries = chained_matrix(k)
        beta, opt, kp = float(k - 1), k * np.cos(np.pi / (2 * k)), k
    elif tag == EBI:
        entries, beta, opt, kp = ebi_matrix(), 6.0, 4.0 * np.sqrt(3.0), None
    else:
        raise BadKError(f"unknown catalog tag {tag!r}")

    return CoefficientMatrix(
        entries=entries, tag=tag, classical_bound=beta, quantum_opt=opt, k_param=kp
    )


def custom_matrix(entries, restarts: int = 32, seed: int = 0) -> CoefficientMatrix:
    """Wrap a user matrix; bounds filled by enumeration and see-saw."""
    m = np.asarray(entries, dtype=float)
    beta = classical_bound(m)
    opt, _ = _seesaw_value(m, np.eye(3), restarts=restarts, seed=seed)
    # The see-saw can only underestimate; the quantum set contains the
    # classical strategies, so never report an optimum below beta.
    return CoefficientMatrix(
        entries=m,
        tag=CUSTOM,
        classical_bound=beta,
        quantum_opt=max(opt, beta),
    )


def _objective(bloch_rows: np.ndarray, m: np.ndarray, corr: np.ndarray) -> np.ndarray:
    td = (m.T @ bloch_rows) @ corr  # row y = (T^T d_y)^T
    return np.linalg.norm(td, axis=-1).sum(axis=-1)


def _normalize_rows(a: np.ndarray, fallback: np.ndarray | None = None) -> np.ndarray:
    """Normalize along the last axis; near-zero rows fall back to the given rows."""
    norms = np.linalg.norm(a, axis=-1, keepdims=True)
    safe = np.where(norms > 1e-14, norms, 1.0)
    out = a / safe
    if fallback is not None:
        out = np.where(norms > 1e-14, out, fallback)
    return out


# Restarts run in chunks of this many, which bounds a see-saw's memory
# whatever the restart count; each restart is independent of the chunking.
RESTART_CHUNK = 256


@functools.cache
def _blocks(r: int):
    """Shared, never written: the identity on (R^3)^r and its 3x3 block mask."""
    return np.eye(3 * r), np.kron(np.eye(r), np.ones((3, 3)))


def _sphere_ascent(a, value, derivs):
    """Safeguarded modified-Newton ascent on (S^2)^r (Absil, Mahony &
    Sepulchre 2008, ch. 6; Nocedal & Wright 3.4) from the unit rows a
    (B, r, 3) of B problems; value(a) gives their values, derivs(a) their
    Euclidean gradients g (B, r, 3) and Hessians H (B, r, 3, r, 3).

    The step is d = |Hess|^-1 P g, with P = blockdiag(1 - a_x a_x^T) and the
    Riemannian Hessian in ambient coordinates, P H P - blockdiag(lam_x P_x)
    with lam_x = a_x . g_x, less blockdiag(a_x a_x^T) so that normal
    directions have eigenvalue -1; each eigenvalue is replaced by its
    magnitude, floored at 1e-8 times the largest. d is then tangent, Newton's
    step where the Hessian is negative definite, and an ascent direction
    elsewhere; a step is taken only where the value rises. Returns the points,
    their values and whether each converged: its last model gain (P g) . d / 2
    is below 1e-12 and no eigenvalue exceeds the floor.
    """
    r = a.shape[1]
    eye, block = _blocks(r)

    def newton(a, g, h):
        n = len(eye)
        a, g, h = a.reshape(-1, n), g.reshape(-1, n), h.reshape(-1, n, n)
        # lam_x on row x's coordinates: blockdiag(lam_x P_x) scales the rows
        # of P by it, and blockdiag(a_x a_x^T) = 1 - P.
        lam = np.einsum("bi,ij->bj", a * g, block)
        t = g - lam * a
        proj = eye - block * (a[:, :, None] * a[:, None, :])
        w, v = np.linalg.eigh(proj @ h @ proj + (1.0 - lam)[..., None] * proj - eye)
        floor = 1e-8 * np.abs(w).max(axis=1, keepdims=True)
        coef = t[:, None] @ v / np.maximum(np.abs(w), floor)[:, None]
        d = (coef @ v.transpose(0, 2, 1))[:, 0]
        concave = w[:, -1] <= floor[:, 0]
        return d.reshape(-1, r, 3), 0.5 * np.einsum("bi,bi->b", t, d), concave

    val = value(a)
    d, model, concave = newton(a, *derivs(a))
    active = model >= 1e-13
    for _ in range(60):
        if not active.any():
            break
        # Each active problem halves its step from 1 until its normalized rows
        # score higher or the step falls to 1e-12; it stops after a gain or a
        # model gain below 1e-13. An active problem has moved in every round,
        # so none takes more than 60 steps.
        start, step, pending = val, 1.0, active
        while pending.any() and step > 1e-12:
            x = a + step * d
            cand = x / np.sqrt(np.einsum("bxc,bxc->bx", x, x))[..., None]
            cand_val = value(cand)
            up = pending & (cand_val > val)
            a = np.where(up[:, None, None], cand, a)
            val = np.where(up, cand_val, val)
            pending &= ~up
            step *= 0.5
        d, model, concave = newton(a, *derivs(a))
        active = (val - start >= 1e-13) & (model >= 1e-13)
    return a, val, (model < 1e-12) & concave


def _ascend(rows, value, sweep, sweeps: int, tol: float, finish=None):
    """Sweep the batch of restarts `rows`, one array with the restart on its
    leading axis, in place; returns each restart's value and converged flag.
    value(rows) scores the starts; sweep(rows) updates the live restarts'
    rows in place and returns their new values and which of them moved. A
    restart stops at its first sweep that gains less than tol, keeps the
    better of its last two values, and has converged if that sweep moved
    it. Restarts live after `sweeps` sweeps have not converged, unless
    finish(rows, live) updates the rows of those restarts in place and
    reports them converged."""
    val = value(rows)
    converged = np.zeros(len(val), dtype=bool)
    live = np.arange(len(val))
    for _ in range(sweeps):
        work = rows[live]
        new_val, moved = sweep(work)
        old_val = val[live]
        done = new_val - old_val < tol
        rows[live] = work
        val[live] = np.where(done, np.maximum(old_val, new_val), new_val)
        converged[live[done]] = moved[done]
        live = live[~done]
        if live.size == 0:
            return val, converged
    if finish is not None:
        val[live], converged[live] = finish(rows, live)
    return val, converged


def best_of_restarts(draw, value, sweep, restarts, seed, sweeps, tol, finish=None):
    """Best of `restarts` see-saws, `_ascend`ed chunk by chunk.

    draw(rngs) gives a chunk's starting rows as one array, restart r on
    index r of its leading axis, drawn from default_rng(child r of
    SeedSequence(seed)); ties go to the lowest r. Returns the best restart's
    value and rows, every restart's value in restart order, and whether any
    restart converged.
    """
    if restarts < 1:
        raise BadRestartsError(f"restarts must be at least 1, got {restarts}")
    # spawn continues the child count, so spawning chunk by chunk gives each
    # restart the seed of one spawn(restarts) without holding all of them.
    master = np.random.SeedSequence(seed)
    best_value, best_rows, history, any_converged = -np.inf, None, [], False
    for lo in range(0, restarts, RESTART_CHUNK):
        seeds = master.spawn(min(RESTART_CHUNK, restarts - lo))
        rows = draw([np.random.default_rng(child) for child in seeds])
        val, converged = _ascend(rows, value, sweep, sweeps, tol, finish)
        history.extend(val.tolist())
        any_converged = any_converged or bool(converged.any())
        best = int(np.argmax(val))
        if val[best] > best_value:
            best_value, best_rows = float(val[best]), rows[best]
    return best_value, best_rows, history, any_converged


def _seesaw_value(m, corr, restarts: int, seed: int) -> tuple[float, np.ndarray]:
    """Best of `restarts` see-saws over the A-side Bloch rows.

    With the A-side fixed, the best B observables are b_y || T^T d_y; with
    those fixed, the best A observables are a_x || sum_y M[x,y] T b_y. Both
    half-steps are exact, so each restart's value is monotone, but the
    ascent is linear: `_sphere_ascent` finishes the restarts still live after
    200 sweeps. Returns (value, bloch_rows) of the best restart.
    """

    value = functools.partial(_objective, m=m, corr=corr)

    def sweep(a):
        b = _normalize_rows((m.T @ a) @ corr)
        a[...] = _normalize_rows(m @ (b @ corr.T), fallback=a)
        return value(a), np.ones(len(a), dtype=bool)

    def derivs(a):
        # f = sum_y |w_y|, w_y = T^T d_y: g_x = sum_y M[x,y] T u_y with
        # u_y = w_y / |w_y|, H_xx' = sum_y M[x,y] M[x',y] T (1 - u_y u_y^T) T^T / |w_y|.
        w = (m.T @ a) @ corr
        norms = np.maximum(np.linalg.norm(w, axis=-1), 1e-14)[..., None]
        tu = (w / norms) @ corr.T
        k = (corr @ corr.T - tu[..., :, None] * tu[..., None, :]) / norms[..., None]
        return m @ tu, np.einsum("xy,zy,byac->bxazc", m, m, k, optimize=True)

    def finish(a, live):
        a[live], val, converged = _sphere_ascent(a[live], value, derivs)
        return val, converged

    def draw(rngs):
        return _normalize_rows(np.stack([rng.normal(size=(m.shape[0], 3)) for rng in rngs]))

    best, rows, _, converged = best_of_restarts(
        draw, value, sweep, restarts, seed, sweeps=200, tol=1e-12, finish=finish,
    )
    if not converged:
        raise NonConvergenceError(
            "see-saw failed to converge in every restart", best_value=best
        )
    return best, rows


def quantum_opt_numeric(
    matrix: CoefficientMatrix, restarts: int = 32, seed: int = 0
) -> tuple[float, np.ndarray]:
    """See-saw estimate of the optimal quantum value.

    Maximizes sum_y ||d_y|| over unit A-side Bloch vectors with the
    maximally entangled reference (T = identity). Deterministic per seed.

    Returns:
        (value, bloch_rows) with bloch_rows the optimizing A-side vectors.
    """
    return _seesaw_value(matrix.entries, np.eye(3), restarts, seed)


def state_max(
    matrix: CoefficientMatrix,
    rho: TwoQubitState,
    restarts: int = 32,
    seed: int = 0,
) -> float:
    """Maximal quantum value of the FCBI on a given two-qubit state.

    With T's singular values t0 >= t1 >= t2, CHSH has the closed form
    sqrt(t0^2 + t1^2). Since ||T^T d|| <= t0 ||d||, every map obeys
    state_max <= t0 q, with equality when the optimal A-side vectors fit
    into directions that T scales by t0 (Horodecki^3, Phys. Lett. A 200,
    340, 1995): chained maps, whose optimum is planar (Wehner, PRA 73,
    022110, 2006), when t1 = t0, and EBI, whose optimum spans R^3, when
    t2 = t0. Werner states of |Phi+> are such cases, with state_max = v q.
    There the ceiling t0 q is returned once those singular values agree to
    the relative tolerance _EQUAL_SPECTRUM_RTOL, so it is at most that
    fraction of t0 q above the maximum. It is also returned, for every map,
    when t0 <= _ZERO_SPECTRUM_ATOL = 1e-14: then T is rounding, as for
    white noise conjugated by a local unitary, and t0 q lies within 1e-14 q
    of the maximum, whatever the relative spread of the spectrum.

    Every other spectrum and map, custom maps included, gets a numeric
    estimate of max sum_y ||T^T d_y||, which is not certified: the see-saw,
    with the Newton finish of the restarts it leaves live. restarts and seed
    only drive it. Raises NonConvergenceError when the finish too stalls in
    every restart.
    """
    if matrix.tag == CHSH:
        t0, t1 = rho.singvals[0], rho.singvals[1]
        return float(np.sqrt(t0 * t0 + t1 * t1))
    t, top = rho.singvals, _TOP_DIMENSION.get(matrix.tag)
    if t[0] <= _ZERO_SPECTRUM_ATOL or (
        top is not None and t[0] - t[top - 1] <= _EQUAL_SPECTRUM_RTOL * t[0]
    ):
        return float(t[0] * matrix.quantum_opt)
    val, _ = _seesaw_value(matrix.entries, rho.corr, restarts, seed)
    return val


@dataclass(frozen=True)
class SosWitness:
    """Column-norm certificate for a strategy on a state.

    omega[y] = sqrt(Tr[Delta_y^dag Delta_y rho]) = |d_y|; the achieved Bell
    value can never exceed sum_y omega[y], and the per-column residuals
    <L_y^dag L_y> are non-negative, vanishing exactly at the quantum optimum.
    """

    omega: np.ndarray
    predicted_bound: float
    residuals: np.ndarray
    achieved: float


def sos_witness(
    matrix: CoefficientMatrix,
    rho: TwoQubitState,
    a_bloch: np.ndarray,
    b_bloch: np.ndarray,
) -> SosWitness:
    """Evaluate the witness for explicit A/B observables on a state.

    Args:
        a_bloch: (rows, 3) unit Bloch vectors for the A-side inputs.
        b_bloch: (cols, 3) unit Bloch vectors for the B-side inputs.
    """
    a_bloch = np.asarray(a_bloch, dtype=float)
    b_bloch = np.asarray(b_bloch, dtype=float)
    if a_bloch.shape != (matrix.rows, 3) or b_bloch.shape != (matrix.cols, 3):
        raise ValueError("observable arrays do not match the matrix shape")

    # Delta_y = (d_y . sigma) x 1 squares to |d_y|^2 times the identity, so
    # omega_y = |d_y| on every state, and <Delta_y B_y> = d_y^T T b_y.
    d = matrix.delta_vectors(a_bloch)
    omegas = np.linalg.norm(d, axis=1)
    cross = np.einsum("yu,uv,yv->y", d, rho.corr, b_bloch)
    residuals = np.zeros(matrix.cols)
    live = omegas > 1e-14
    residuals[live] = 2.0 - 2.0 * cross[live] / omegas[live]
    return SosWitness(
        omega=omegas,
        predicted_bound=float(omegas.sum()),
        residuals=residuals,
        achieved=float(cross.sum()),
    )
