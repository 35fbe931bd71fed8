import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_riemannian_adam_step
from torusparse import stiefel
from torusparse.lanes import Lanes
from torusparse.stiefel import (
    QR_ORTHONORMALITY_TOL,
    StiefelAdamState,
    phi_update,
    positive_qr,
    retract,
    riemannian_adam_step,
    tangent_project,
)


def random_stiefel(rng, d, width):
    q, r = np.linalg.qr(rng.standard_normal((d, width)))
    return q * np.sign(np.diag(r))


class TestTangentProject:
    def test_point_itself_projects_to_zero(self):
        rng = np.random.default_rng(0)
        w = random_stiefel(rng, 10, 4)
        assert np.abs(tangent_project(w, w)).max() < 1e-14

    def test_tangent_vectors_unchanged(self):
        rng = np.random.default_rng(1)
        w = random_stiefel(rng, 10, 4)
        x = tangent_project(w, rng.standard_normal((10, 4)))
        np.testing.assert_allclose(tangent_project(w, x), x, atol=1e-12)

    def test_skew_condition(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = random_stiefel(rng, 12, 5)
            x = tangent_project(w, rng.standard_normal((12, 5)))
            assert np.abs(w.T @ x + x.T @ w).max() < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        w = random_stiefel(rng, 12, 5)
        g = rng.standard_normal((12, 5))
        once = tangent_project(w, g)
        twice = tangent_project(w, once)
        assert np.abs(once - twice).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tangent_project(np.eye(4, 2), np.zeros((4, 3)))


class TestRetract:
    def test_zero_step(self):
        rng = np.random.default_rng(4)
        w = random_stiefel(rng, 10, 4)
        np.testing.assert_allclose(retract(w, np.zeros_like(w)), w, atol=1e-12)

    def test_orthonormal_output(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = random_stiefel(rng, 10, 4)
            out = retract(w, 0.1 * rng.standard_normal((10, 4)))
            assert np.abs(out.T @ out - np.eye(4)).max() < 1e-10

    def test_first_order_agreement(self):
        # || retract(W, tX) - (W + tX) || must shrink like t^2
        rng = np.random.default_rng(6)
        w = random_stiefel(rng, 10, 4)
        x = tangent_project(w, rng.standard_normal((10, 4)))
        errors = []
        for t in (0.1, 0.05, 0.025):
            errors.append(np.linalg.norm(retract(w, t * x) - (w + t * x)))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.25)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.25)

    def test_rank_deficiency_error(self):
        w = np.eye(6)[:, :3]
        with pytest.raises(np.linalg.LinAlgError):
            retract(w, -w)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            retract(np.eye(4, 2), np.zeros((4, 3)))


class TestRiemannianAdam:
    def test_zero_gradient_zero_moments_is_identity(self):
        rng = np.random.default_rng(7)
        w = random_stiefel(rng, 8, 4)
        state = StiefelAdamState.init(w.shape, lr=0.1)
        new_state, new_w = riemannian_adam_step(state, w, np.zeros_like(w))
        assert new_w is w
        assert new_state.step_count == 1

    def test_manifold_feasibility_over_many_steps(self):
        rng = np.random.default_rng(8)
        w = random_stiefel(rng, 16, 8)
        state = StiefelAdamState.init(w.shape, lr=0.05)
        for _ in range(1000):
            state, w = riemannian_adam_step(state, w, rng.standard_normal(w.shape))
        assert np.abs(w.T @ w - np.eye(8)).max() < 1e-8

    def test_ascends_linear_objective(self):
        rng = np.random.default_rng(9)
        target = rng.standard_normal((12, 6))
        w = random_stiefel(rng, 12, 6)
        state = StiefelAdamState.init(w.shape, lr=0.02)
        values = [np.trace(w.T @ target)]
        for _ in range(50):
            state, w = riemannian_adam_step(state, w, target)
            values.append(np.trace(w.T @ target))
        assert (np.diff(values) > 0).all()

    def test_momentum_transport_keeps_m1_tangent(self):
        rng = np.random.default_rng(10)
        w = random_stiefel(rng, 10, 4)
        state = StiefelAdamState.init(w.shape, lr=0.05)
        for _ in range(5):
            state, w = riemannian_adam_step(state, w, rng.standard_normal(w.shape))
        skew = w.T @ state.m1 + state.m1.T @ w
        assert np.abs(skew).max() < 1e-10

    def test_non_finite_gradient_rejected(self):
        w = np.eye(6)[:, :2]
        state = StiefelAdamState.init(w.shape, lr=0.1)
        bad = np.zeros_like(w)
        bad[0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            riemannian_adam_step(state, w, bad)


class TestPhiUpdate:
    def test_zero_gradient_on_exactly_unit_columns(self):
        phi = np.eye(6)[:, :3]
        np.testing.assert_array_equal(phi_update(phi, np.zeros_like(phi), 0.1), phi)

    def test_columns_unit_after_update(self):
        rng = np.random.default_rng(11)
        phi = rng.standard_normal((8, 4))
        phi /= np.linalg.norm(phi, axis=0)
        for _ in range(50):
            phi = phi_update(phi, rng.standard_normal(phi.shape), 0.05)
            np.testing.assert_allclose(np.linalg.norm(phi, axis=0), 1.0, atol=1e-12)

    def test_gradient_lr_product_invariance(self):
        rng = np.random.default_rng(12)
        phi = rng.standard_normal((8, 4))
        phi /= np.linalg.norm(phi, axis=0)
        g = rng.standard_normal(phi.shape)
        a = phi_update(phi, g, 0.05)
        b = phi_update(phi, 5.0 * g, 0.01)
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_degenerate_atom_error(self):
        phi = np.eye(4)[:, :2]
        grad = np.zeros_like(phi)
        grad[:, 1] = -phi[:, 1]
        with pytest.raises(ValueError, match="atom"):
            phi_update(phi, grad, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            phi_update(np.eye(4, 2), np.zeros((4, 3)), 0.1)


def householder_positive_q(y):
    q, r = np.linalg.qr(y)
    return q * np.sign(np.diag(r))


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 60),
       width_frac=st.floats(0.05, 1.0), scale=st.floats(0.0, 0.4))
@settings(max_examples=60, deadline=None)
def test_cholesky_qr_retraction_equals_householder_qr(seed, d, width_frac, scale):
    rng = np.random.default_rng(seed)
    width = max(1, round(width_frac * d))
    w = random_stiefel(rng, d, width)
    step = scale * rng.standard_normal((d, width)) / np.sqrt(d)
    np.testing.assert_allclose(retract(w, step), householder_positive_q(w + step),
                               rtol=0, atol=1e-12)


def spy_on_householder_qr(monkeypatch):
    calls = []
    qr = np.linalg.qr

    def spy_qr(a):
        calls.append(a.shape)
        return qr(a)

    monkeypatch.setattr(np.linalg, "qr", spy_qr)
    return calls


def test_well_conditioned_retraction_takes_the_cholesky_path(monkeypatch):
    rng = np.random.default_rng(8)
    w = random_stiefel(rng, 40, 12)
    step = 0.05 * rng.standard_normal((40, 12))
    calls = spy_on_householder_qr(monkeypatch)
    out = retract(w, step)
    assert calls == []
    assert np.abs(out.T @ out - np.eye(12)).max() < QR_ORTHONORMALITY_TOL


def test_ill_conditioned_input_falls_back_to_householder_qr(monkeypatch):
    rng = np.random.default_rng(7)
    u = random_stiefel(rng, 30, 8)
    v = random_stiefel(rng, 8, 8)
    y = (u * np.logspace(0, -6, 8)) @ v.T  # condition number 1e6
    chol = np.linalg.cholesky(y.T @ y)
    cholesky_q = y @ np.linalg.inv(chol).T
    assert np.abs(cholesky_q.T @ cholesky_q - np.eye(8)).max() > QR_ORTHONORMALITY_TOL

    calls = spy_on_householder_qr(monkeypatch)
    q, diag = positive_qr(y)
    assert calls == [(30, 8)]
    assert np.abs(q.T @ q - np.eye(8)).max() < QR_ORTHONORMALITY_TOL
    assert (diag > 0).all()
    np.testing.assert_array_equal(q, householder_positive_q(y))


@pytest.mark.parametrize("width", [256, 250, 130, 70])
def test_cholesky_qr_at_the_paper_width_matches_householder_qr(width, monkeypatch):
    # widths above the leaf size run the blocked triangular inverse; 250,
    # 130 and 70 split into halves of unequal size along the way
    rng = np.random.default_rng(width)
    y = rng.standard_normal((784, width))
    calls = spy_on_householder_qr(monkeypatch)
    q, diag = positive_qr(y)
    assert calls == []
    np.testing.assert_allclose(q, householder_positive_q(y), rtol=0, atol=1e-12)
    np.testing.assert_allclose(diag, np.abs(np.diag(np.linalg.qr(y)[1])), rtol=1e-12)
    assert np.abs(q.T @ q - np.eye(width)).max() <= 1e-12


def test_adam_steps_at_the_paper_shape_stay_orthonormal():
    rng = np.random.default_rng(20)
    w = random_stiefel(rng, 784, 256)
    state = StiefelAdamState.init(w.shape, lr=0.3)
    for _ in range(20):
        state, w = riemannian_adam_step(state, w, rng.standard_normal(w.shape))
        assert np.abs(w.T @ w - np.eye(256)).max() <= 1e-12


def test_adam_step_leaves_the_input_state_unchanged():
    rng = np.random.default_rng(21)
    w = random_stiefel(rng, 12, 4)
    state, w = riemannian_adam_step(StiefelAdamState.init(w.shape, lr=0.05), w,
                                    rng.standard_normal(w.shape))
    m1, m2 = state.m1.copy(), state.m2.copy()
    new_state, _ = riemannian_adam_step(state, w, rng.standard_normal(w.shape))
    assert state.step_count == 1
    np.testing.assert_array_equal(state.m1, m1)
    np.testing.assert_array_equal(state.m2, m2)
    assert new_state.m1 is not state.m1 and new_state.m2 is not state.m2


def lanes_at(threads):
    """A context giving Lanes(threads), or None for ``threads`` None."""
    return nullcontext() if threads is None else Lanes(threads)


@pytest.mark.parametrize("householder", [False, True])
@pytest.mark.parametrize("threads", [None, 1, 2, 3])
def test_adam_steps_equal_the_textbook_oracle_bit_for_bit(threads, householder,
                                                          monkeypatch):
    # zero gradients at the first step (a zero step: no retraction) and at
    # the fourth (moments still move the point); with ``householder`` every
    # CholeskyQR Q is rejected after it is written, so the fallback reads Y
    # from the buffer that must not hold Q
    rng = np.random.default_rng(22)
    point = random_stiefel(rng, 37, 10)
    calls = spy_on_householder_qr(monkeypatch)
    if householder:
        monkeypatch.setattr(stiefel, "QR_ORTHONORMALITY_TOL", -1.0)
    grads = [np.zeros(point.shape), *rng.standard_normal((2, 37, 10)),
             np.zeros(point.shape), rng.standard_normal((37, 10))]
    state = want_state = StiefelAdamState.init(point.shape, lr=0.05)
    want_point = point
    with lanes_at(threads) as lanes:
        for k, grad in enumerate(grads):
            want_state, want_point = oracle_riemannian_adam_step(
                want_state, want_point, grad, lanes)
            state, point = riemannian_adam_step(state, point, grad, lanes)
            assert point.tobytes() == want_point.tobytes()
            assert state.m1.tobytes() == want_state.m1.tobytes()
            assert state.m2.tobytes() == want_state.m2.tobytes()
            assert state.step_count == want_state.step_count == k + 1
    # the oracle and the step each retract at steps 2 to 5
    assert len(calls) == (8 if householder else 0)


@pytest.mark.parametrize("threads", [None, 2])
def test_adam_step_leaves_point_gradient_and_moments_bytes_unchanged(threads):
    rng = np.random.default_rng(23)
    point = random_stiefel(rng, 21, 6)
    state, point = riemannian_adam_step(StiefelAdamState.init(point.shape, lr=0.05),
                                        point, rng.standard_normal(point.shape))
    grad = rng.standard_normal(point.shape)
    inputs = (point, grad, state.m1, state.m2)
    before = [a.tobytes() for a in inputs]
    with lanes_at(threads) as lanes:
        new_state, new_point = riemannian_adam_step(state, point, grad, lanes)
    assert [a.tobytes() for a in inputs] == before
    outputs = (new_point, new_state.m1, new_state.m2)
    assert not any(np.shares_memory(a, b) for a in inputs for b in outputs)


@pytest.mark.parametrize("threads", [None, 1, 2, 3])
def test_adam_step_at_the_paper_shape_peaks_within_four_basis_sized_buffers(threads):
    # four D x 2L arrays (T, S and the two new moments) and four 2L x 2L
    # ones (B^T G, the Cholesky factor, its inverse and the Q^T Q check)
    d, width = 784, 256
    bound = 4 * d * width * 8 + 4 * width * width * 8
    rng = np.random.default_rng(24)
    point = random_stiefel(rng, d, width)
    grad = rng.standard_normal(point.shape)
    with lanes_at(threads) as lanes:
        state, point = riemannian_adam_step(StiefelAdamState.init(point.shape, 0.3),
                                            point, grad, lanes)  # starts the pool
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            riemannian_adam_step(state, point, grad, lanes)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
    assert peak <= bound


def with_last_entry(a, value):
    """A copy of ``a`` whose last entry, in its last row block, is ``value``."""
    a = a.copy()
    a[-1, -1] = value
    return a


@pytest.mark.parametrize("threads", [None, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["point", "step"])
def test_non_finite_retraction_input_is_named(where, value, threads):
    # the bad entry sits in the last row block, after finite block maxima
    rng = np.random.default_rng(25)
    point = random_stiefel(rng, 20, 5)
    step = 0.1 * rng.standard_normal(point.shape)
    if where == "point":
        point = with_last_entry(point, value)
    else:
        step = with_last_entry(step, value)
    with lanes_at(threads) as lanes:
        with pytest.raises(FloatingPointError, match="^non-finite retraction input$"):
            retract(point, step, lanes)


@pytest.mark.parametrize("threads", [None, 3])
@pytest.mark.parametrize("moment", ["m1", "m2"])
def test_non_finite_adam_moment_is_named(moment, threads):
    rng = np.random.default_rng(26)
    point = random_stiefel(rng, 20, 5)
    state, point = riemannian_adam_step(StiefelAdamState.init(point.shape, lr=0.05),
                                        point, rng.standard_normal(point.shape))
    setattr(state, moment, with_last_entry(getattr(state, moment), np.nan))
    with lanes_at(threads) as lanes:
        with pytest.raises(FloatingPointError, match="^non-finite retraction input$"):
            riemannian_adam_step(state, point, rng.standard_normal(point.shape), lanes)
