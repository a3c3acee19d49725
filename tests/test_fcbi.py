import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from netbell import fcbi
from netbell.errors import BadKError, BadRestartsError, NonConvergenceError, TooLargeError
from netbell.fcbi import (
    CHAINED,
    CHSH,
    EBI,
    _seesaw_value,
    classical_bound,
    custom_matrix,
    make_catalog,
    quantum_opt_numeric,
    sos_witness,
    state_max,
)
from netbell.qstate import SIGMA, WernerSpec, max_entangled, random_mixed, werner
from scalar_reference import bipartite, sphere_ascent, tangent_derivs


def test_chsh_entries():
    m = make_catalog(CHSH)
    np.testing.assert_allclose(m.entries, [[-0.5, 0.5], [0.5, 0.5]])
    assert m.classical_bound == 1.0
    assert m.quantum_opt == pytest.approx(np.sqrt(2.0))


def test_chained_wrap_column():
    """The last column couples the last and first inputs with a sign flip."""
    m = make_catalog(CHAINED, 3)
    np.testing.assert_allclose(
        m.entries,
        [[0.5, 0.0, -0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],
    )


def test_ebi_entries():
    m = make_catalog(EBI)
    assert m.rows == 3 and m.cols == 4
    assert np.all(np.abs(m.entries) == 1.0)
    assert m.classical_bound == 6.0
    assert m.quantum_opt == pytest.approx(4.0 * np.sqrt(3.0))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_chained_closed_forms(k):
    m = make_catalog(CHAINED, k)
    assert m.classical_bound == float(k - 1)
    assert m.quantum_opt == pytest.approx(k * np.cos(np.pi / (2 * k)))


def test_bad_catalog_params():
    with pytest.raises(BadKError):
        make_catalog(CHAINED, 1)
    with pytest.raises(BadKError):
        make_catalog("nope")


def test_classical_bound_cap():
    with pytest.raises(TooLargeError):
        classical_bound(np.ones((25, 2)))


def test_classical_bound_matches_direct_enumeration():
    # 18 rows span several blocks of sign assignments.
    m = np.random.default_rng(7).normal(size=(18, 3))
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=18)))
    direct = np.abs(signs @ m).sum(axis=1).max()
    tracemalloc.start()
    try:
        beta = classical_bound(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert beta == pytest.approx(direct, rel=1e-14)
    # A full (2^18, 18) float table alone would take 36 MiB.
    assert peak < 24 * 2**20


@given(
    arrays(
        float,
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
        elements=st.floats(-3, 3, allow_nan=False),
    )
)
@settings(max_examples=80, deadline=None)
def test_classical_bound_properties(m):
    beta = classical_bound(m)
    # Bounded by the total absolute coefficient mass, and at least the
    # all-plus assignment value.
    assert beta <= np.abs(m).sum() + 1e-9
    assert beta >= np.abs(m.sum(axis=0)).sum() - 1e-9
    # Negating any single row cannot change the bound.
    flipped = m.copy()
    flipped[0] *= -1
    assert classical_bound(flipped) == pytest.approx(beta)


@pytest.mark.parametrize(
    "tag,k",
    [(CHSH, None), (CHAINED, 3), (CHAINED, 5), (EBI, None)],
)
def test_seesaw_reaches_catalog_optimum(tag, k):
    m = make_catalog(tag, k)
    value, rows = quantum_opt_numeric(m, restarts=16, seed=0)
    assert value == pytest.approx(m.quantum_opt, abs=1e-6)
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-9)


def test_custom_matrix_never_below_classical():
    m = custom_matrix([[1.0, 0.3], [-0.2, 0.8]], restarts=8, seed=0)
    assert m.quantum_opt >= m.classical_bound


@pytest.mark.parametrize("seed", range(5))
def test_chsh_state_max_closed_form(seed):
    m = make_catalog(CHSH)
    rho = random_mixed(seed)
    closed = np.sqrt(rho.singvals[0] ** 2 + rho.singvals[1] ** 2)
    assert state_max(m, rho) == pytest.approx(closed)
    numeric = state_max(custom_matrix(m.entries), rho, restarts=16, seed=seed)
    assert numeric == pytest.approx(closed, abs=1e-6)


def test_ebi_state_max_scales_with_visibility():
    m = make_catalog(EBI)
    full = state_max(m, max_entangled(), restarts=16, seed=0)
    assert full == pytest.approx(4 * np.sqrt(3), abs=1e-6)
    noisy = state_max(m, werner(WernerSpec(0.6)), restarts=16, seed=0)
    assert noisy == pytest.approx(0.6 * 4 * np.sqrt(3), abs=1e-6)


def test_sos_witness_at_chsh_optimum():
    m = make_catalog(CHSH)
    rho = max_entangled()
    a = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    s = 1 / np.sqrt(2)
    b = np.array([[s, 0.0, -s], [s, 0.0, s]])
    wit = sos_witness(m, rho, a, b)
    assert wit.achieved == pytest.approx(np.sqrt(2.0))
    assert wit.predicted_bound == pytest.approx(np.sqrt(2.0))
    # omega is column-independent at the optimum
    np.testing.assert_allclose(wit.omega, wit.omega[0], atol=1e-12)
    np.testing.assert_allclose(wit.residuals, 0.0, atol=1e-12)


def test_sos_witness_dominates_off_optimum():
    m = make_catalog(CHSH)
    rho = werner(WernerSpec(0.75))
    a = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]])
    b = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    wit = sos_witness(m, rho, a, b)
    assert wit.achieved <= wit.predicted_bound + 1e-12
    assert np.all(wit.residuals >= -1e-12)


def _bloch_op(n):
    return sum(c * s for c, s in zip(n, SIGMA))


def _unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.mark.parametrize("tag,k", [(CHAINED, 3), (EBI, None)])
@pytest.mark.parametrize("seed", range(4))
def test_sos_witness_matches_operators(tag, k, seed):
    """The closed forms against explicit Delta_y and B_y operators on 4x4
    matrices, for random states and random non-optimal observables."""
    m = make_catalog(tag, k)
    rho = random_mixed(seed)
    rng = np.random.default_rng(100 + seed)
    a, b = _unit_rows(rng, m.rows), _unit_rows(rng, m.cols)
    wit = sos_witness(m, rho, a, b)
    eye = np.eye(2)
    omega, cross = [], []
    for y in range(m.cols):
        delta = sum(
            m.entries[x, y] * np.kron(_bloch_op(a[x]), eye) for x in range(m.rows)
        )
        omega.append(np.sqrt(np.trace(delta.conj().T @ delta @ rho.matrix).real))
        b_op = np.kron(eye, _bloch_op(b[y]))
        cross.append(np.trace(delta @ b_op @ rho.matrix).real)
    omega, cross = np.array(omega), np.array(cross)
    np.testing.assert_allclose(wit.omega, omega, atol=1e-12)
    assert wit.achieved == pytest.approx(cross.sum(), abs=1e-12)
    np.testing.assert_allclose(wit.residuals, 2.0 - 2.0 * cross / omega, atol=1e-12)


def _serial_normalize_rows(a, fallback=None):
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    out = a / np.where(norms > 1e-14, norms, 1.0)
    if fallback is not None:
        out = np.where(norms > 1e-14, out, fallback)
    return out


def _serial_objective(a, m, corr):
    return float(np.linalg.norm((m.T @ a) @ corr, axis=1).sum())


def _serial_seesaw(m, corr, restarts, seed, iters=200, stag_tol=1e-12, finish=True):
    """Reference: one restart at a time, as the see-saw was first written,
    with each restart still live after `iters` sweeps finished by
    `scalar_reference.sphere_ascent` unless finish is False.

    Returns ("ok", value, rows, finished), or ("raised", best_value, finished)
    when no restart converges; finished counts the restarts that needed the
    finish.
    """
    best_val, best_obs, any_converged, finished = -np.inf, None, False, 0
    for child in np.random.SeedSequence(seed).spawn(restarts):
        start = np.random.default_rng(child).normal(size=(m.shape[0], 3))
        a = _serial_normalize_rows(start)
        value = _serial_objective(a, m, corr)
        converged = False
        for _ in range(iters):
            b = _serial_normalize_rows((m.T @ a) @ corr)
            a = _serial_normalize_rows(m @ (b @ corr.T), fallback=a)
            new_value = _serial_objective(a, m, corr)
            if new_value - value < stag_tol:
                value = max(value, new_value)
                converged = True
                break
            value = new_value
        else:
            if finish:
                a, value, converged = sphere_ascent(a, bipartite(m, corr))
            finished += 1
        any_converged = any_converged or converged
        if value > best_val:
            best_val, best_obs = value, a
    if not any_converged:
        return ("raised", best_val, finished)
    return ("ok", best_val, best_obs, finished)


def _batched_seesaw(m, corr, restarts, seed):
    try:
        value, rows = _seesaw_value(m, corr, restarts, seed)
    except NonConvergenceError as exc:
        return ("raised", exc.best_value)
    return ("ok", value, rows)


# On chained-2 the optimum is flat, so restarts tie to the last digit and
# the choice among them shows which sweep's value each restart kept.
_PARITY_MATRICES = {
    "chained2": make_catalog(CHAINED, 2).entries,
    "chained3": make_catalog(CHAINED, 3).entries,
    "chained4": make_catalog(CHAINED, 4).entries,
    "ebi": make_catalog(EBI).entries,
    "random4x3": np.random.default_rng(11).normal(size=(4, 3)),
}
# v = 0 has T = 0, so every A-side update takes the fallback rows.
_PARITY_STATES = {
    "werner0": lambda: werner(WernerSpec(0.0)),
    "werner0.5": lambda: werner(WernerSpec(0.5)),
    "werner1": lambda: werner(WernerSpec(1.0)),
    "mixed0": lambda: random_mixed(0),
    "mixed1": lambda: random_mixed(1),
    "mixed2": lambda: random_mixed(2),
}


# The only parity cases with restarts still live after 200 sweeps. The
# reference finishes them in a tangent basis rather than in ambient
# coordinates, so restarts that tie at the maximum to rounding may swap
# which one is best: the best rows are checked against the best value.
_FINISHED = {("random4x3", "mixed0"), ("random4x3", "mixed2")}


@pytest.mark.parametrize("state", sorted(_PARITY_STATES))
@pytest.mark.parametrize("matrix", sorted(_PARITY_MATRICES))
def test_batched_seesaw_matches_serial_restarts(matrix, state):
    m, corr = _PARITY_MATRICES[matrix], _PARITY_STATES[state]().corr
    for seed in (0, 1):
        serial = _serial_seesaw(m, corr, 16, seed)
        batched = _batched_seesaw(m, corr, 16, seed)
        assert batched[0] == serial[0]
        if (matrix, state) in _FINISHED:
            assert serial[-1] > 0
            assert abs(batched[1] - serial[1]) <= 1e-14
            assert abs(_serial_objective(batched[2], m, corr) - batched[1]) <= 1e-14
            continue
        assert serial[-1] == 0
        assert abs(batched[1] - serial[1]) <= 1e-15
        if serial[0] == "ok":
            np.testing.assert_allclose(batched[2], serial[2], rtol=0, atol=1e-15)


def test_batched_seesaw_chunks_match_serial(monkeypatch):
    """In chunks of two, restart r still draws from child r of the seed and
    the best restart, here in the third chunk, is the serial reference's."""
    monkeypatch.setattr(fcbi, "RESTART_CHUNK", 2)
    m, corr = _PARITY_MATRICES["ebi"], random_mixed(3).corr
    serial = _serial_seesaw(m, corr, 7, 0)
    batched = _batched_seesaw(m, corr, 7, 0)
    assert serial[0] == batched[0] == "ok"
    assert abs(batched[1] - serial[1]) <= 1e-15
    np.testing.assert_allclose(batched[2], serial[2], rtol=0, atol=1e-15)


@pytest.mark.parametrize("seed", [4, 7, 27, 36, 39])
def test_batched_seesaw_nonconvergence_matches_serial(seed):
    """EBI on these states converges too slowly for stag_tol in 200 sweeps
    in every restart: the see-saw alone raises, while the Newton finish of
    the live restarts returns a value at or above its best and below the
    ceiling s1 * 4 sqrt(3)."""
    m, rho = make_catalog(EBI).entries, random_mixed(seed)
    stalled = _serial_seesaw(m, rho.corr, 32, 0, finish=False)
    batched = _batched_seesaw(m, rho.corr, 32, 0)
    assert stalled[0] == "raised" and batched[0] == "ok"
    assert stalled[1] <= batched[1] <= rho.singvals[0] * 4.0 * np.sqrt(3.0) + 1e-12


@pytest.mark.parametrize("k", [3, 4])
def test_state_max_on_near_degenerate_lower_spectrum(k):
    """random_mixed(332) has singular values 0.946, 0.608, 0.597: no restart
    of chained-3 or chained-4 gains less than 1e-12 per sweep within 200
    sweeps, the only such state among random_mixed(0..999). The Newton
    finish must return at or above the stalled see-saw's best."""
    floor = {3: 2.106908, 4: 3.058534}[k]
    assert state_max(make_catalog(CHAINED, k), random_mixed(332)) >= floor - 1e-6


def _chained(k):
    """The chained-k catalog entry, with its closed-form bounds and without
    the 2^k sign enumeration of make_catalog."""
    return fcbi.CoefficientMatrix(
        entries=fcbi.chained_matrix(k), tag=CHAINED, classical_bound=k - 1.0,
        quantum_opt=k * np.cos(np.pi / (2 * k)), k_param=k,
    )


@pytest.mark.parametrize("k", [15, 20, 24])
def test_state_max_reaches_chained_optimum_at_large_k(k):
    """The see-saw alone ends 1.3e-10, 1.6e-7 and 1.0e-5 below k cos(pi/2k)
    here and raises; the finish reaches it."""
    assert state_max(_chained(k), max_entangled()) == pytest.approx(
        k * np.cos(np.pi / (2 * k)), abs=1e-12
    )


def test_state_max_leaves_the_chained24_plateaus():
    """30 of the 32 default restarts of chained-24 on random_mixed(5) are
    still live after 200 sweeps, most on plateaus near 12.7625 and 11.638,
    and the see-saw alone returned 12.76266. The maximum is 13.887132448."""
    assert state_max(_chained(24), random_mixed(5)) >= 13.88713 - 1e-6


@pytest.mark.parametrize(
    "m,seed",
    [(_chained(24).entries, 5), (make_catalog(EBI).entries, 4),
     (make_catalog(CHAINED, 3).entries, 332), (make_catalog(CHAINED, 4).entries, 332)],
    ids=["chained24", "ebi", "chained3", "chained4"],
)
def test_seesaw_restarts_are_maxima_or_not_converged(monkeypatch, m, seed):
    """Every restart that reports converged, whether its last sweep gained
    less than 1e-12 or the Newton finish converged, sits at a local maximum:
    its Riemannian gradient is below 1e-5 and no eigenvalue of its
    Riemannian Hessian exceeds 1e-6 of the largest in magnitude. F4's
    plateaus have gradients up to 1e-3 and eigenvalues up to +2e-3."""
    chunks = []

    def recording_ascend(rows, *args):
        val, converged = fcbi_ascend(rows, *args)
        chunks.append((rows[0].copy(), converged))
        return val, converged

    fcbi_ascend = fcbi._ascend
    monkeypatch.setattr(fcbi, "_ascend", recording_ascend)
    corr = random_mixed(seed).corr
    _seesaw_value(m, corr, 32, 0)
    f = bipartite(m, corr)
    [(rows, converged)] = chunks
    assert converged.any() and len(rows) == 32
    for a in rows[converged]:
        t, hess, _ = tangent_derivs(a, *f(a)[1:])
        lams = np.linalg.eigvalsh(hess)
        assert np.linalg.norm(t) < 1e-5
        assert lams.max() <= 1e-6 * np.abs(lams).max()


def test_seesaw_refuses_zero_restarts():
    with pytest.raises(BadRestartsError):
        _seesaw_value(make_catalog(EBI).entries, np.eye(3), 0, 0)
