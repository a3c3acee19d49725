"""Two-qubit states: Pauli decomposition, correlation matrices, constructors.

Every state carries its local Bloch vectors a, b and the 3x3 correlation
matrix T with entries Tr[rho (sigma_u x sigma_v)], plus the singular values
of T sorted in descending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSchmidtError, BadVisibilityError, NotAStateError

# Schmidt coefficient of a maximally entangled state; a Python float, as the CLI wants.
MAX_SCHMIDT = 1.0 / math.sqrt(2.0)

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# PAULI[u, v] = sigma_u x sigma_v with sigma_0 = identity: the 16-element
# two-qubit operator basis, orthogonal under Tr[P^dag Q] = 4 delta.
_BASIS = (np.eye(2, dtype=complex), *SIGMA)
PAULI = np.array([[np.kron(s, t) for t in _BASIS] for s in _BASIS])

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


def bloch_matrix(n) -> np.ndarray:
    """2x2 observable n . sigma for a real 3-vector n."""
    n = np.asarray(n, dtype=float)
    return n[0] * SIGMA[0] + n[1] * SIGMA[1] + n[2] * SIGMA[2]


@dataclass(frozen=True)
class TwoQubitState:
    """4x4 density matrix with its Pauli-basis decomposition.

    Attributes:
        matrix: 4x4 complex Hermitian, unit trace, PSD.
        bloch_a, bloch_b: local Bloch vectors of the two qubits.
        corr: 3x3 real correlation matrix T.
        singvals: singular values of T, descending.
    """

    matrix: np.ndarray
    bloch_a: np.ndarray
    bloch_b: np.ndarray
    corr: np.ndarray
    singvals: np.ndarray

    @property
    def t0(self) -> float:
        return float(self.singvals[0])


def _corr_singvals(corr: np.ndarray) -> np.ndarray:
    # Eigen-decomposition of T^T T with descending sort; ties keep index order.
    vals = np.linalg.eigvalsh(corr.T @ corr)
    return np.sqrt(vals.clip(0.0, None))[::-1]


def bloch_decompose(matrix) -> TwoQubitState:
    """Decompose a 4x4 density matrix into Bloch vectors and correlation matrix.

    Raises:
        NotAStateError: Hermiticity, trace, or positivity violated beyond
            tolerance.
    """
    rho = np.asarray(matrix, dtype=complex)
    if rho.shape != (4, 4):
        raise NotAStateError(f"expected a 4x4 matrix, got shape {rho.shape}")
    adjoint = rho.conj().T
    if np.abs(rho - adjoint).max() > HERMITICITY_TOL:
        raise NotAStateError("matrix is not Hermitian within tolerance")
    trace = rho.trace()
    if abs(trace.real - 1.0) > TRACE_TOL or abs(trace.imag) > TRACE_TOL:
        raise NotAStateError("matrix does not have unit trace")
    # eigvalsh sorts ascending: the first eigenvalue is the smallest.
    if np.linalg.eigvalsh((rho + adjoint) / 2)[0] < -PSD_TOL:
        raise NotAStateError("matrix is not positive semidefinite within tolerance")

    # r[u, v] = Tr[rho (sigma_u x sigma_v)]; row and column 0 hold the
    # local Bloch vectors, the 3x3 block holds T.
    r = np.einsum("uvij,ji->uv", PAULI, rho).real
    a, b, corr = r[1:, 0], r[0, 1:], r[1:, 1:]
    return TwoQubitState(
        matrix=rho,
        bloch_a=a,
        bloch_b=b,
        corr=corr,
        singvals=_corr_singvals(corr),
    )


def reconstruct(state: TwoQubitState) -> np.ndarray:
    """Rebuild the density matrix from (a, b, T); inverse of bloch_decompose."""
    r = np.ones((4, 4))
    r[1:, 0], r[0, 1:], r[1:, 1:] = state.bloch_a, state.bloch_b, state.corr
    return np.einsum("uv,uvij->ij", r, PAULI) / 4.0


@dataclass(frozen=True)
class WernerSpec:
    """Visibility-v mixture of the Schmidt state a|00> + b|11> with white noise."""

    v: float
    schmidt_a: float = MAX_SCHMIDT


def pure_schmidt(a: float) -> TwoQubitState:
    """Pure state a|00> + b|11> with b = sqrt(1 - a^2)."""
    if not 0.0 < a < 1.0:
        raise BadSchmidtError("Schmidt coefficient must lie strictly in (0, 1)")
    b = np.sqrt(1.0 - a * a)
    psi = np.array([a, 0.0, 0.0, b], dtype=complex)
    return bloch_decompose(np.outer(psi, psi.conj()))


def werner(spec: WernerSpec) -> TwoQubitState:
    """Werner-type state v |phi><phi| + (1 - v) I/4."""
    if not 0.0 <= spec.v <= 1.0:
        raise BadVisibilityError("visibility must lie in [0, 1]")
    if not 0.0 < spec.schmidt_a < 1.0:
        raise BadSchmidtError("Schmidt coefficient must lie strictly in (0, 1)")
    a = spec.schmidt_a
    b = np.sqrt(1.0 - a * a)
    psi = np.array([a, 0.0, 0.0, b], dtype=complex)
    rho = spec.v * np.outer(psi, psi.conj()) + (1.0 - spec.v) * np.eye(4) / 4.0
    return bloch_decompose(rho)


def max_entangled() -> TwoQubitState:
    """|Phi+> = (|00> + |11>)/sqrt(2); correlation matrix diag(1, -1, 1)."""
    psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return bloch_decompose(np.outer(psi, psi.conj()))


def classical_zz() -> TwoQubitState:
    """Separable state (|00><00| + |11><11|)/2 with T = diag(0, 0, 1).

    The even mixture has zero local Bloch vectors, so the per-source
    contraction under traceless observables is exact with no caveats.
    """
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 0.5
    rho[3, 3] = 0.5
    return bloch_decompose(rho)


def product_00() -> TwoQubitState:
    """|00><00|: same correlation matrix as classical_zz but with local Bloch z."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    return bloch_decompose(rho)


def random_mixed(seed: int) -> TwoQubitState:
    """Random full-rank-ish mixture of four random pure states, seed-determined."""
    rng = np.random.default_rng(seed)
    kets = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    # rng.dirichlet(np.ones(4)) without its argument checks: with every
    # alpha 1 it draws standard_gamma(1), which is standard_exponential, and
    # multiplies by 1 / (their sum, added in order as cumsum adds them).
    weights = rng.standard_exponential(4)
    weights *= 1.0 / weights.cumsum()[-1]
    # sum_i w_i |v_i><v_i|; a sum over the outer axis adds the terms in order.
    rho = (weights[:, None, None] * (kets[:, :, None] * kets.conj()[:, None, :])).sum(axis=0)
    rho = (rho + rho.conj().T) / 2
    rho /= rho.trace().real
    return bloch_decompose(rho)
