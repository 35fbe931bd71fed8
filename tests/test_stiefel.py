import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
