"""Lanes: the split training step gives the same bytes at every thread
count, stays within rounding of the unsplit formulas, joins its threads
and passes block errors on unchanged."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import torusparse as tp
from torusparse.lanes import Lanes, split
from torusparse.stiefel import (
    StiefelAdamState,
    _split_gram,
    positive_qr,
    riemannian_adam_step,
    tangent_project,
)
from torusparse.inference import CHUNK_WEIGHTS, _tile_slices
from torusparse.training import _batch_gradients, init_model, train

THREADS = (1, 2, 3)


def random_stiefel(rng, d, width):
    q, r = np.linalg.qr(rng.standard_normal((d, width)))
    return q * np.sign(np.diag(r))


def raise_in_a_pool_thread(error):
    """A block function that raises ``error`` in the first pool thread to
    run a block; the calling thread's blocks wait until it has."""
    raised = threading.Event()

    def block(_):
        if threading.current_thread() is threading.main_thread():
            if not raised.wait(10):
                raise TimeoutError("no pool thread ran a block")
        else:
            raised.set()
            raise error

    return block


def same_bytes_at_every_thread_count(compute):
    """compute(lanes) at every count in THREADS; asserts the byte strings
    agree and returns the arrays of the first."""
    outs = []
    for threads in THREADS:
        with Lanes(threads) as lanes:
            outs.append(compute(lanes))
    for out in outs[1:]:
        assert [a.tobytes() for a in out] == [a.tobytes() for a in outs[0]]
    return outs[0]


def assert_close(got, want, tol=1e-12):
    assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 40),
       width_frac=st.floats(0.0, 1.0), scale=st.floats(0.0, 0.4))
@settings(max_examples=40, deadline=None)
def test_split_step_has_the_same_bytes_at_every_thread_count(seed, d, width_frac,
                                                             scale):
    # odd D and odd widths included; with more blocks than rows the split
    # still covers every row once
    rng = np.random.default_rng(seed)
    width = max(1, round(width_frac * d))
    point = random_stiefel(rng, d, width)
    grad = rng.standard_normal((d, width))
    y = point + scale * rng.standard_normal((d, width)) / np.sqrt(d)

    tangent, = same_bytes_at_every_thread_count(
        lambda lanes: (tangent_project(point, grad, lanes),))
    assert_close(tangent, tangent_project(point, grad))

    gram, = same_bytes_at_every_thread_count(lambda lanes: (_split_gram(grad, lanes),))
    assert_close(gram, grad.T @ grad)
    assert (gram == gram.T).all()

    q, diag = same_bytes_at_every_thread_count(lambda lanes: positive_qr(y, lanes))
    want_q, want_diag = positive_qr(y)
    assert_close(q, want_q)
    assert_close(diag, want_diag)

    state, point = riemannian_adam_step(StiefelAdamState.init(point.shape, 0.05),
                                        point, rng.standard_normal((d, width)))

    def adam_step(lanes):
        new_state, new_point = riemannian_adam_step(state, point, grad, lanes)
        return new_state.m1, new_state.m2, new_point

    got = same_bytes_at_every_thread_count(adam_step)
    want = adam_step(None)
    for a, b in zip(got, want):
        assert_close(a, b)


def test_split_adam_steps_at_the_paper_shape_stay_orthonormal(monkeypatch):
    # on the CholeskyQR path: the split Q^T Q check passes, no Householder QR
    rng = np.random.default_rng(30)
    w = random_stiefel(rng, 784, 256)
    state = StiefelAdamState.init(w.shape, lr=0.3)
    householder = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: householder.append(a.shape) or qr(a))
    with Lanes(2) as lanes:
        for _ in range(5):
            state, w = riemannian_adam_step(state, w, rng.standard_normal(w.shape),
                                            lanes)
            assert np.abs(w.T @ w - np.eye(256)).max() <= 1e-12
    assert householder == []


def test_split_gradients_have_the_same_bytes_at_every_thread_count():
    cfg = tp.TrainConfig(image_dim=18, n_freq=3, n_atoms=4, torus_dim=1,
                         grid_size=10, fista_steps=4)
    model = init_model(cfg, 5)
    rng = np.random.default_rng(6)
    images = tp.normalize_batch(rng.uniform(0.05, 1.0, (7, 18)))
    codes = rng.uniform(0, 1, (7, 4))
    rbar = rng.uniform(-1, 1, (7, 6))
    for exact in (False, True):
        got = same_bytes_at_every_thread_count(
            lambda lanes: _batch_gradients(images, codes, model, rbar, exact,
                                           lanes=lanes)[:2])
        want = _batch_gradients(images, codes, model, rbar, exact)
        for a, b in zip(got, want):
            assert_close(a, b)


def cap_chunked_training():
    """Two batches of 40 images at N = 100 and n = 2: the 1 MB weight cap
    cuts each batch into 4 tiles, grouped differently at 1, 2 and 3
    threads."""
    cfg = tp.TrainConfig(batch_size=40, fista_steps=4, grid_size=100, epochs=1,
                         lr_dict=0.05, lr_basis=0.05, seed=2, torus_dim=2,
                         n_freq=4, n_atoms=3, image_dim=16, noise_var=0.05,
                         sparsity=0.5)
    rng = np.random.default_rng(8)
    data = tp.Dataset(images=rng.uniform(0.05, 1.0, (80, 16)), side=4)
    assert 40 * cfg.grid_size**2 > 3 * CHUNK_WEIGHTS
    assert len(_tile_slices(40, cfg.grid_size**2)) == 4
    return cfg, data


def test_multi_batch_training_bytes_do_not_depend_on_threads():
    cfg, data = cap_chunked_training()
    outs = []
    for threads in THREADS:
        trained, log = train(init_model(cfg, cfg.seed), data, cfg, threads=threads)
        assert len(log) == 2
        outs.append(trained.basis.tobytes() + trained.dictionary.tobytes())
    assert outs[1:] == outs[:1] * 2


def test_train_joins_its_threads():
    cfg, data = cap_chunked_training()
    before = threading.active_count()
    train(init_model(cfg, cfg.seed), data, cfg, threads=3)
    assert threading.active_count() == before


def test_non_finite_batch_error_passes_through_with_its_threads_joined():
    cfg = tp.TrainConfig(batch_size=8, fista_steps=5, grid_size=12, epochs=1,
                         lr_dict=1e300, noise_var=1e-12, torus_dim=1, n_freq=3,
                         n_atoms=3, image_dim=16, sparsity=0.5)
    data = tp.Dataset(images=np.random.default_rng(0).uniform(0.05, 1, (24, 16)),
                      side=4)
    before = threading.active_count()
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError) as caught:
            train(init_model(cfg, 0), data, cfg, threads=2)
    assert str(caught.value) == "non-finite parameters after epoch 0 batch 0"
    assert threading.active_count() == before


def test_a_block_error_in_a_pool_thread_reaches_train_unchanged(monkeypatch):
    cfg, data = cap_chunked_training()
    error = np.linalg.LinAlgError("rank-deficient retraction input")
    block = raise_in_a_pool_thread(error)
    map_blocks = Lanes.map
    monkeypatch.setattr(Lanes, "map", lambda self, fn, items: map_blocks(self, block, items))
    before = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError) as caught:
        train(init_model(cfg, cfg.seed), data, cfg, threads=2)
    assert caught.value is error
    assert str(caught.value) == "rank-deficient retraction input"
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 2, 3, 5])
def test_map_runs_every_item_once_in_item_order(threads):
    seen = []  # list.append is atomic across the lanes
    with Lanes(threads) as lanes:
        out = lanes.map(lambda x: seen.append(x) or x * x, range(11))
    assert out == [x * x for x in range(11)]
    assert sorted(seen) == list(range(11))


def test_map_waits_for_every_lane_before_raising_the_callers_error():
    # the calling thread raises on its first block; the pool thread's
    # block, slower, must have finished by the time map raises
    done = []

    def block(k):
        if threading.current_thread() is threading.main_thread():
            raise KeyError("caller")
        threading.Event().wait(0.05)
        done.append(k)

    before = threading.active_count()
    with Lanes(2) as lanes:
        with pytest.raises(KeyError, match="caller"):
            lanes.map(block, range(2))
        assert len(done) == 1
    assert threading.active_count() == before


def test_split_blocks_depend_on_the_length_alone():
    assert split(7, None) == [slice(0, 7)]
    blocks = split(784, Lanes(1))
    assert blocks == split(784, Lanes(1))
    assert [(b.start, b.stop) for b in blocks] == [(0, 196), (196, 392), (392, 588),
                                                   (588, 784)]
    assert split(2, Lanes(1)) == [slice(0, 1), slice(1, 2)]
    assert split(0, Lanes(1)) == [slice(0, 0)]


@pytest.mark.parametrize("threads", [0, -1])
def test_lanes_refuse_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        Lanes(threads)
