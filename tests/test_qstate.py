import numpy as np
import pytest

from netbell.errors import BadSchmidtError, BadVisibilityError, NotAStateError
from netbell.qstate import (
    SIGMA,
    WernerSpec,
    bloch_decompose,
    classical_zz,
    max_entangled,
    product_00,
    pure_schmidt,
    random_mixed,
    reconstruct,
    werner,
)


def test_max_entangled_correlations():
    state = max_entangled()
    np.testing.assert_allclose(state.corr, np.diag([1.0, -1.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(state.bloch_a, 0.0, atol=1e-14)
    np.testing.assert_allclose(state.singvals, [1.0, 1.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("a", [0.3, 1 / np.sqrt(2), 0.9])
def test_pure_schmidt_correlation_matrix(a):
    # a|00> + b|11> has T = diag(2ab, -2ab, 1)
    b = np.sqrt(1 - a * a)
    state = pure_schmidt(a)
    np.testing.assert_allclose(
        state.corr, np.diag([2 * a * b, -2 * a * b, 1.0]), atol=1e-14
    )
    assert state.t0 == pytest.approx(1.0)


@pytest.mark.parametrize("v", [0.0, 0.5, 0.8, 1.0])
def test_werner_singvals(v):
    state = werner(WernerSpec(v))
    np.testing.assert_allclose(np.sort(state.singvals)[::-1], [v, v, v], atol=1e-14)


def test_werner_general_schmidt():
    a = 0.6
    b = 0.8
    state = werner(WernerSpec(0.7, schmidt_a=a))
    expected = np.sort([0.7, 2 * a * b * 0.7, 2 * a * b * 0.7])[::-1]
    np.testing.assert_allclose(state.singvals, expected, atol=1e-14)


def test_classical_and_product_states():
    np.testing.assert_allclose(classical_zz().corr, np.diag([0.0, 0.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(classical_zz().bloch_a, 0.0, atol=1e-14)
    np.testing.assert_allclose(product_00().corr, np.diag([0.0, 0.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(product_00().bloch_a, [0.0, 0.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("seed", range(8))
def test_decompose_reconstruct_roundtrip(seed):
    state = random_mixed(seed)
    np.testing.assert_allclose(reconstruct(state), state.matrix, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_decompose_matches_traces(seed):
    state = random_mixed(seed)
    rho, eye = state.matrix, np.eye(2)
    a = [np.trace(rho @ np.kron(s, eye)).real for s in SIGMA]
    b = [np.trace(rho @ np.kron(eye, s)).real for s in SIGMA]
    corr = [[np.trace(rho @ np.kron(s, t)).real for t in SIGMA] for s in SIGMA]
    np.testing.assert_allclose(state.bloch_a, a, atol=1e-12)
    np.testing.assert_allclose(state.bloch_b, b, atol=1e-12)
    np.testing.assert_allclose(state.corr, corr, atol=1e-12)


def test_rejects_non_states():
    """Each of bloch_decompose's four checks names what failed."""
    with pytest.raises(NotAStateError, match=r"^expected a 4x4 matrix, got shape \(3, 3\)$"):
        bloch_decompose(np.eye(3))
    with pytest.raises(NotAStateError, match="^matrix does not have unit trace$"):
        bloch_decompose(np.eye(4))  # trace 4
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(
        NotAStateError, match="^matrix is not positive semidefinite within tolerance$"
    ):
        bloch_decompose(bad)
    herm = np.eye(4, dtype=complex) / 4
    herm[0, 1] = 1j  # not Hermitian
    with pytest.raises(NotAStateError, match="^matrix is not Hermitian within tolerance$"):
        bloch_decompose(herm)


def test_bad_parameters():
    with pytest.raises(BadVisibilityError):
        werner(WernerSpec(1.2))
    with pytest.raises(BadSchmidtError):
        werner(WernerSpec(0.5, schmidt_a=1.0))
    with pytest.raises(BadSchmidtError):
        pure_schmidt(0.0)
