import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import torusparse as tp
from torusparse import posterior
from torusparse.posterior import (
    TABLE_CACHE_ENTRIES,
    batch_posterior,
    expected_rotation,
    grid_tables,
    log_likelihood,
    map_estimate,
    natural_params,
    posterior_grid,
    posterior_natural_params,
)
from torusparse.torus import (
    TWO_PI,
    FrequencyTable,
    build_frequency_table,
    frequency_table_auto,
)
from torusparse.training import BaselineState, baseline_model_params

from conftest import (
    brute_log_marginal,
    brute_posterior_weights,
    brute_posterior_weights_fast,
    dense_grid_table,
    fold_tables,
    point_mass_grid,
    small_model,
)


def hand_case_model():
    """D=2, one frequency-1 block, identity basis, single-atom dictionary."""
    freq = build_frequency_table(n=1, L=1, m=1, max_norm=1, include_zero=False)
    return tp.ModelParams(
        basis=np.eye(2),
        dictionary=np.eye(2)[:, :1],
        freq=freq,
        noise_var=0.01,
        sparsity=10.0,
        prior=tp.TorusPrior.uniform(1),
    )


class TestNaturalParams:
    def test_uniform_prior_is_zero(self):
        assert natural_params(tp.TorusPrior.uniform(4)).tolist() == [0.0] * 8

    def test_first_block_offset_zero(self):
        prior = tp.TorusPrior(kappa=[2.0, 0.0], mu=[0.0, 0.0])
        np.testing.assert_allclose(natural_params(prior), [2, 0, 0, 0], atol=1e-15)

    def test_quarter_offset(self):
        prior = tp.TorusPrior(kappa=[1.0], mu=[np.pi / 2])
        np.testing.assert_allclose(natural_params(prior), [0, 1], atol=1e-15)

    def test_negative_concentration_rejected(self):
        with pytest.raises(ValueError):
            tp.TorusPrior(kappa=[-1.0], mu=[0.0])

    @pytest.mark.parametrize("kappa, mu, message", [
        ([1.0, np.nan], [0.0, 0.0], r"prior kappa\[1\] is not finite"),
        ([np.inf, 1.0], [0.0, 0.0], r"prior kappa\[0\] is not finite"),
        ([1.0, 1.0], [0.0, np.nan], r"prior mu\[1\] is not finite"),
    ])
    def test_non_finite_prior_rejected_by_name(self, kappa, mu, message):
        with pytest.raises(ValueError, match=message):
            tp.TorusPrior(kappa=kappa, mu=mu)


class TestPosteriorNaturalParams:
    def test_zero_code_returns_prior(self):
        model = small_model(0, kappa_scale=2.0)
        eta = natural_params(model.prior)
        image = np.random.default_rng(1).standard_normal(model.dim)
        np.testing.assert_allclose(
            posterior_natural_params(image, np.zeros(model.n_atoms), model), eta,
            atol=1e-15,
        )

    def test_hand_case(self):
        model = hand_case_model()
        eta_hat = posterior_natural_params(np.array([0.0, 1.0]), np.array([1.0]), model)
        np.testing.assert_allclose(eta_hat, [0.0, 100.0], atol=1e-12)

    def test_linearity_in_image(self):
        model = small_model(2)
        rng = np.random.default_rng(3)
        image = rng.standard_normal(model.dim)
        code = rng.uniform(0, 1, model.n_atoms)
        base = posterior_natural_params(image, code, model)
        scaled = posterior_natural_params(2.5 * image, code, model)
        eta = natural_params(model.prior)
        np.testing.assert_allclose(scaled - eta, 2.5 * (base - eta), atol=1e-12)

    def test_dimension_mismatch(self):
        model = small_model(4)
        with pytest.raises(ValueError):
            posterior_natural_params(np.zeros(model.dim + 1), np.zeros(model.n_atoms), model)
        with pytest.raises(ValueError):
            posterior_natural_params(np.zeros(model.dim), np.zeros(model.n_atoms + 1), model)


class TestPosteriorGrid:
    def test_uniform_when_flat(self):
        freq = build_frequency_table(n=2, L=3, m=1, max_norm=1)
        grid = posterior_grid(np.zeros(6), freq, 10)
        np.testing.assert_allclose(grid.weights, 1.0 / 100, atol=1e-15)
        assert abs(grid.log_norm - 2 * math.log(TWO_PI)) < 1e-12

    def test_concentrated_hand_case(self):
        freq = build_frequency_table(n=1, L=1, m=1, max_norm=1, include_zero=False)
        grid = posterior_grid(np.array([0.0, 100.0]), freq, 50)
        peak = map_estimate(grid)[0]
        assert abs(peak - np.pi / 2) <= TWO_PI / 50

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for trial in range(15):
            n = 1 + trial % 2
            model = small_model(trial, d=12, L=3, k=2, n=n, noise_var=0.05,
                                kappa_scale=1.5)
            image = rng.standard_normal(12)
            image /= np.linalg.norm(image)
            code = rng.uniform(0, 1.5, 2)
            eta_hat = posterior_natural_params(image, code, model)
            grid = posterior_grid(eta_hat, model.freq, 16)
            brute = brute_posterior_weights(image, code, model, 16)
            assert np.abs(grid.weights - brute).max() < 1e-10

    def test_weights_normalized_even_for_huge_parameters(self):
        freq = build_frequency_table(n=1, L=4, m=1, max_norm=4)
        rng = np.random.default_rng(6)
        for scale in (1.0, 100.0, 2500.0):
            eta_hat = rng.standard_normal(8) * scale
            grid = posterior_grid(eta_hat, freq, 64)
            assert np.isfinite(grid.weights).all()
            assert abs(grid.weights.sum() - 1.0) < 1e-12
            assert (grid.weights >= 0).all()

    def test_grid_size_limits(self):
        freq = build_frequency_table(n=3, L=4, m=1, max_norm=1)
        with pytest.raises(ValueError, match="limit"):
            posterior_grid(np.zeros(8), freq, 500)
        with pytest.raises(ValueError):
            posterior_grid(np.zeros(8), freq, 1)

    @pytest.mark.parametrize("eta_hat, message", [
        (np.zeros(6), "eta_hat has shape (6,); expected (4,), two entries per block "
                      "for L = 2"),
        (np.zeros(3), "eta_hat has shape (3,); expected (4,)"),
        (np.zeros((1, 4)), "eta_hat has shape (1, 4); expected (4,)"),
        (np.full(4, np.nan), "eta_hat[0] is nan; must be finite"),
        ([0.0, 1.0, -np.inf, 0.0], "eta_hat[2] is -inf; must be finite"),
    ], ids=["extra-block", "odd", "batch", "all-nan", "inf"])
    def test_bad_eta_hat_refused_by_name(self, eta_hat, message):
        # unchecked, an extra block would be dropped, an odd length would fail
        # inside a numpy view and NaN would give log_norm nan
        freq = build_frequency_table(n=2, L=2, m=1, max_norm=1)
        with pytest.raises(ValueError) as info:
            posterior_grid(eta_hat, freq, 8)
        assert message in str(info.value)

    def test_log_likelihood_of_a_nan_image_refused_by_name(self):
        model = small_model(0, d=12, L=3, k=2, n=2)
        with pytest.raises(ValueError, match=r"^eta_hat\[0\] is nan; must be finite$"):
            log_likelihood(np.full(12, np.nan), np.ones(2), model, 8)


class TestExpectedRotation:
    def test_uniform_grid(self):
        freq = build_frequency_table(n=1, L=3, m=1, max_norm=3)
        grid = posterior_grid(np.zeros(6), freq, 40)
        rbar = expected_rotation(grid, freq)
        np.testing.assert_allclose(rbar[:2], [1.0, 0.0], atol=1e-12)  # zero block
        assert np.abs(rbar[2:]).max() < 1e-12

    def test_point_mass(self):
        model = small_model(7, d=8, L=2, k=2, n=1)
        idx = 13
        grid = point_mass_grid(model, 32, idx)
        rbar = expected_rotation(grid, model.freq)
        s_star = TWO_PI * idx / 32
        theta = model.freq.entries[:, 0] * s_star
        np.testing.assert_allclose(rbar[0::2], np.cos(theta), atol=1e-14)
        np.testing.assert_allclose(rbar[1::2], np.sin(theta), atol=1e-14)

    def test_components_bounded(self):
        freq = build_frequency_table(n=2, L=4, m=1, max_norm=1)
        rng = np.random.default_rng(8)
        for _ in range(20):
            grid = posterior_grid(rng.standard_normal(8) * 30, freq, 20)
            rbar = expected_rotation(grid, freq)
            assert (np.abs(rbar) <= 1.0 + 1e-12).all()


class TestMapEstimate:
    def test_uniform_tie_break(self):
        freq = build_frequency_table(n=2, L=2, m=1, max_norm=1)
        grid = posterior_grid(np.zeros(4), freq, 8)
        np.testing.assert_array_equal(map_estimate(grid), [0.0, 0.0])

    def test_point_mass_coordinates(self):
        model = small_model(9, n=2, L=3, d=12)
        grid = point_mass_grid(model, 10, 57)
        np.testing.assert_allclose(map_estimate(grid), TWO_PI * np.array([5, 7]) / 10)


class TestLogLikelihood:
    def test_zero_code_closed_form(self):
        model = small_model(10, noise_var=0.07)
        image = np.random.default_rng(11).standard_normal(model.dim)
        got = log_likelihood(image, np.zeros(model.n_atoms), model, 20)
        want = -image @ image / (2 * 0.07) - model.dim / 2 * math.log(TWO_PI * 0.07)
        assert abs(got - want) < 1e-10

    def test_matches_brute_marginalization(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            n = 1 + trial % 2
            model = small_model(100 + trial, d=12, L=3, k=2, n=n,
                                noise_var=0.05, kappa_scale=1.0)
            image = rng.standard_normal(12)
            image /= np.linalg.norm(image)
            code = rng.uniform(0, 1.5, 2)
            got = log_likelihood(image, code, model, 24)
            want = brute_log_marginal(image, code, model, 24)
            assert abs(got - want) / abs(want) < 1e-8

    def test_invariant_under_grid_aligned_transform(self):
        model = small_model(13, d=12, L=3, k=2, n=1, noise_var=0.05)
        rng = np.random.default_rng(14)
        # image inside the basis span so the transform is an isometry of it
        image = model.basis @ rng.standard_normal(6)
        image /= np.linalg.norm(image)
        code = rng.uniform(0.1, 1.0, 2)
        n_grid = 24
        base = log_likelihood(image, code, model, n_grid)
        op = model.operator()
        for j in (3, 11, 17):
            moved = tp.apply_transform(op, [TWO_PI * j / n_grid], image)
            assert abs(log_likelihood(moved, code, model, n_grid) - base) < 1e-8

    def test_quadrature_convergence(self):
        model = small_model(15, d=12, L=3, k=2, n=1, noise_var=0.05)
        rng = np.random.default_rng(16)
        image = rng.standard_normal(12)
        image /= np.linalg.norm(image)
        code = rng.uniform(0, 1.0, 2)
        eta_hat = posterior_natural_params(image, code, model)
        assert np.abs(eta_hat).max() <= 50
        coarse = log_likelihood(image, code, model, 50)
        fine = log_likelihood(image, code, model, 100)
        assert abs(coarse - fine) < 1e-6

    def test_gradient_continuity_probe(self):
        # finite differences around a strictly positive code agree with the
        # exact code gradient to 1e-4 relative at h=1e-5
        model = small_model(17, d=12, L=3, k=3, n=1, noise_var=0.05)
        rng = np.random.default_rng(18)
        image = rng.standard_normal(12)
        image /= np.linalg.norm(image)
        code = rng.uniform(0.3, 1.2, 3)
        n_grid = 32
        eta_hat = posterior_natural_params(image, code, model)
        rbar = expected_rotation(posterior_grid(eta_hat, model.freq, n_grid), model.freq)
        grad = tp.code_gradient(image, code, model, rbar, "exact")
        h = 1e-5
        fd = np.zeros(3)
        for k in range(3):
            delta = np.zeros(3)
            delta[k] = h
            fd[k] = (
                log_likelihood(image, code + delta, model, n_grid)
                - log_likelihood(image, code - delta, model, n_grid)
            ) / (2 * h)
        assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-4


def test_concentrated_prior_drives_posterior_without_data():
    # zero code removes the data term; the posterior then peaks where the
    # prior concentrates
    freq = build_frequency_table(n=1, L=1, m=1, max_norm=1, include_zero=False)
    model = tp.ModelParams(
        basis=np.eye(4)[:, :2],
        dictionary=np.eye(4)[:, :1],
        freq=freq,
        noise_var=0.05,
        sparsity=1.0,
        prior=tp.TorusPrior(kappa=[5.0], mu=[2.1]),
    )
    eta_hat = posterior_natural_params(np.zeros(4), np.zeros(1), model)
    grid = posterior_grid(eta_hat, freq, 200)
    assert abs(map_estimate(grid)[0] - 2.1) <= TWO_PI / 200


def test_fast_oracle_agrees_with_loop_oracle():
    model = small_model(19, d=12, L=3, k=2, n=1, noise_var=0.05, kappa_scale=1.0)
    rng = np.random.default_rng(20)
    image = rng.standard_normal(12)
    image /= np.linalg.norm(image)
    code = rng.uniform(0, 1, 2)
    slow = brute_posterior_weights(image, code, model, 16)
    fast = brute_posterior_weights_fast(image, code, model, 16)
    np.testing.assert_allclose(slow, fast, atol=1e-14)


@st.composite
def frequency_tables(draw):
    """Canonical-sign rate vectors in random order, later components of
    either sign, optionally led by the zero rate, each repeated m times."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    raw = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                        min_size=1, max_size=8))
    rows = []
    for row in raw:
        if next((x for x in row if x), 0) < 0:
            row = [-x for x in row]
        if any(row) and row not in rows:
            rows.append(row)
    if draw(st.booleans()) or not rows:
        rows.insert(0, [0] * n)
    entries = np.array([row for row in rows for _ in range(m)], dtype=np.int64)
    return FrequencyTable(n=n, entries=entries, multiplicity=m)


def check_batch_posterior_against_direct(freq, N, scale, seed):
    rng = np.random.default_rng(seed)
    width, atoms = 2 * freq.L, 2
    post, weights = batch_posterior(
        rng.uniform(-scale, scale, (3, width)) / 2,
        rng.uniform(0, 1, (3, atoms)),
        rng.uniform(-1, 1, (width, atoms)),
        rng.uniform(-scale, scale, width) / 2,
        1.0, freq, N,
    )
    table = dense_grid_table(freq, N)
    energy = post.eta_hat @ table.T
    want = np.exp(energy - energy.max(axis=1, keepdims=True))
    want /= want.sum(axis=1, keepdims=True)
    tol = 1e-12 * (1.0 + np.abs(post.eta_hat).sum(axis=1, keepdims=True))
    assert weights.shape == (3, N**freq.n)
    assert (np.abs(weights - want) <= tol).all()
    assert (np.abs(post.rbar - want @ table) <= tol).all()


@settings(max_examples=80, deadline=None)
@given(freq=frequency_tables(), N=st.integers(2, 9),
       scale=st.floats(0.0, 1e3), seed=st.integers(0, 2**32 - 1))
def test_batch_posterior_matches_direct_evaluation(freq, N, scale, seed):
    check_batch_posterior_against_direct(freq, N, scale, seed)


@pytest.mark.parametrize("scale", [0.0, 1.0, 1e3])
def test_batch_posterior_on_the_baseline_all_zero_table(scale):
    freq = baseline_model_params(BaselineState(np.eye(8)[:, :3]), 0.01, 1.0).freq
    check_batch_posterior_against_direct(freq, 11, scale, 7)


def test_batch_posterior_keeps_clear_of_subnormal_weights():
    # images equal to their coded templates scaled to |u| = 7 at sigma^2 =
    # 0.01 put thousands of nats between an image's peak and its trough:
    # unclamped, exp(energy - max) gives subnormal weights and slows 10-15x
    cfg = tp.TrainConfig(grid_size=100)
    model = tp.init_model(cfg, 5)
    rng = np.random.default_rng(6)
    codes = rng.uniform(0, 1, (13, cfg.n_atoms))
    coupling = model.basis.T @ model.dictionary
    codes *= 7.0 / np.linalg.norm(codes @ coupling.T, axis=1, keepdims=True)
    images_coeff = codes @ coupling.T
    post, weights = batch_posterior(images_coeff, codes, coupling,
                                    natural_params(model.prior), cfg.noise_var,
                                    model.freq, cfg.grid_size)
    assert weights.min() >= np.finfo(float).tiny
    table = dense_grid_table(model.freq, cfg.grid_size)
    energy = post.eta_hat @ table.T
    assert (energy.max(axis=1) - energy.min(axis=1)).min() > 1000.0
    want = np.exp(energy - energy.max(axis=1, keepdims=True))
    want = want @ table / want.sum(axis=1, keepdims=True)
    assert np.abs(post.rbar - want).max() <= 1e-12


def test_grid_tables_hold_under_one_megabyte_at_paper_shape():
    # the separable factors replace a dense (N**n, 2L) table of 20.5 MB
    tables = grid_tables(frequency_table_auto(2, 128, 1), 100)
    assert sum(t.nbytes for t in tables) < 1e6


def test_half_spectrum_boxes_at_paper_shape():
    # folding each rate with a negative last component onto its negation
    # leaves the last axis the 9 rates 0..8, and the exact-mode pair box
    # 33 x 17 in place of 25 x 33
    freq = frequency_table_auto(2, 128, 1)
    N = 50
    tables = grid_tables(freq, N)
    folded = np.where(freq.entries[:, -1:] < 0, -freq.entries, freq.entries)
    assert (folded[:, -1] >= 0).all()
    last = np.unique(folded[:, -1])
    assert last.tolist() == list(range(9))
    assert tables[0].shape == (N, 17) and tables[1].shape == (N, 9)
    np.testing.assert_allclose(
        tables[1], np.exp(2j * np.pi * np.outer(np.arange(N), last) / N), atol=1e-13)
    e = freq.entries
    pairs = np.concatenate([e[:, None] - e[None], e[:, None] + e[None]])
    pair_tables = grid_tables(FrequencyTable(2, pairs.reshape(-1, 2), 1), N)
    assert pair_tables[0].shape == (N, 33) and pair_tables[1].shape == (N, 17)


@st.composite
def folded_tables(draw):
    """Rate vectors of any sign, so the fold meets mixed, all-negative or
    all-zero last components, optionally with the zero rate, each repeated
    m times (duplicate cells)."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    last = draw(st.sampled_from(["mixed", "negative", "zero"]))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                         min_size=1, max_size=8))
    if last == "negative":
        rows = [row[:-1] + [-1 - abs(row[-1])] for row in rows]
    elif last == "zero":
        rows = [row[:-1] + [0] for row in rows]
    if draw(st.booleans()):
        rows.insert(0, [0] * n)
    entries = np.array([row for row in rows for _ in range(m)], dtype=np.int64)
    return FrequencyTable(n=n, entries=entries, multiplicity=m)


@settings(max_examples=80, deadline=None)
@given(freq=folded_tables(), N=st.integers(2, 9),
       scale=st.floats(0.0, 1e3), seed=st.integers(0, 2**32 - 1))
def test_half_spectrum_pass_matches_direct_evaluation(freq, N, scale, seed):
    check_batch_posterior_against_direct(freq, N, scale, seed)


def test_table_cache_keeps_the_newest_entries(monkeypatch):
    monkeypatch.setattr(posterior, "_TABLE_CACHE", {})
    freq = build_frequency_table(n=2, L=4, m=1, max_norm=1)
    built = [grid_tables(freq, N) for N in range(2, 22)]
    assert len(posterior._TABLE_CACHE) <= TABLE_CACHE_ENTRIES
    assert grid_tables(freq, 21) is built[-1]
    assert grid_tables(freq, 2) is not built[0]  # the oldest was evicted


def test_table_cache_stays_bounded_under_concurrent_builds(monkeypatch):
    # more threads than cores, switching often, each cycling through more
    # keys than the cache holds: evictions race with inserts and hits
    import sys
    import threading

    monkeypatch.setattr(posterior, "_TABLE_CACHE", {})
    freq = build_frequency_table(n=2, L=4, m=1, max_norm=1)
    sizes = list(range(2, 2 + TABLE_CACHE_ENTRIES + 4))
    errors = []

    def work(shift):
        try:
            for step in range(150):
                N = sizes[(shift + step) % len(sizes)]
                assert grid_tables(freq, N)[0].shape[0] == N
                assert len(posterior._TABLE_CACHE) <= TABLE_CACHE_ENTRIES
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(posterior._TABLE_CACHE) <= TABLE_CACHE_ENTRIES


@settings(max_examples=60, deadline=None)
@given(freq=fold_tables(), N=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
def test_fold_round_trips_and_is_idempotent_bit_for_bit(freq, N, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 2 * freq.L))
    x[rng.random(x.shape) < 0.2] = -0.0
    tables = grid_tables(freq, N)
    folded = posterior._fold(x, tables)
    assert np.array_equal(posterior._unfold(folded, tables).view(np.uint64),
                          x.view(np.uint64))
