"""Operator-level and driver-level checks for the GA and Adam solvers."""

import inspect

import numpy as np
import pytest

from risuav.bcd import BcdConfig, initial_solution
from risuav.channel import instance_terms, sample_scattering
from risuav.objective import placement_objective
from risuav.optim import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, DEFAULT_THETA_SIGMA,
                          POWER_FLOOR, POWER_MUTATION_FRAC, AdamConfig, GaConfig,
                          adam_maximize, crossover_blend, crossover_single_point,
                          finite_diff_gradient, ga_binary_run, ga_continuous_run,
                          mutate_continuous, repair_power, selection_sample,
                          wrap_phase)
from risuav.scenario import (RngStream, default_scenario, sample_gu_positions,
                             with_gu_positions)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

def test_selection_proportional_frequencies():
    rng = np.random.default_rng(0)
    draws = np.array([selection_sample([1.0, 3.0], rng) for _ in range(20000)])
    assert np.mean(draws == 1) == pytest.approx(0.75, abs=0.02)


def test_selection_uniform_for_equal_fitnesses():
    rng = np.random.default_rng(1)
    draws = np.array([selection_sample([2.0, 2.0, 2.0, 2.0], rng)
                      for _ in range(20000)])
    counts = np.bincount(draws, minlength=4) / draws.size
    np.testing.assert_allclose(counts, 0.25, atol=0.02)


@pytest.mark.parametrize("size", [None, 1, 7, 50])
def test_selection_draws_what_generator_choice_draws(size):
    f = np.random.default_rng(30).uniform(0.0, 3.0, size=13) ** 3
    f[[2, 9]] = 0.0
    rng, rng_ref = np.random.default_rng(31), np.random.default_rng(31)
    for _ in range(5):
        idx = selection_sample(f, rng, size=size)
        ref = rng_ref.choice(f.size, size=size, p=f / f.sum())
        if size is None:
            assert type(idx) is int and idx == ref
        else:
            assert idx.dtype == ref.dtype
            np.testing.assert_array_equal(idx, ref)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_selection_rejects_bad_fitnesses():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        selection_sample([1.0, -0.5], rng)
    with pytest.raises(ValueError):
        selection_sample([0.0, 0.0], rng)
    with pytest.raises(ValueError):
        selection_sample([1.0, np.inf], rng)


# ---------------------------------------------------------------------------
# Crossover and mutation
# ---------------------------------------------------------------------------

def test_crossover_blend_children_are_mirrored_convex_mixes():
    rng = np.random.default_rng(3)
    a = np.array([0.0, 0.0, 5.0])
    b = np.array([2.0, 2.0, -1.0])
    c1, c2 = crossover_blend(a, b, rng)
    np.testing.assert_allclose(c1 + c2, a + b, rtol=1e-12)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    for c in (c1, c2):
        assert np.all(c >= lo - 1e-12) and np.all(c <= hi + 1e-12)


def test_crossover_blend_identical_parents_fixed_point():
    rng = np.random.default_rng(4)
    a = np.array([1.5, -0.3])
    c1, c2 = crossover_blend(a, a.copy(), rng)
    np.testing.assert_allclose(c1, a, rtol=1e-12)
    np.testing.assert_allclose(c2, a, rtol=1e-12)


def test_crossover_blend_shape_mismatch():
    with pytest.raises(ValueError):
        crossover_blend(np.zeros(2), np.zeros(3), np.random.default_rng(0))


def test_crossover_single_point_swaps_tails():
    c1, c2 = crossover_single_point(np.zeros(4), np.ones(4), 2)
    np.testing.assert_array_equal(c1, [0, 0, 1, 1])
    np.testing.assert_array_equal(c2, [1, 1, 0, 0])


def test_crossover_single_point_cut_bounds():
    with pytest.raises(ValueError):
        crossover_single_point(np.zeros(4), np.ones(4), 0)
    with pytest.raises(ValueError):
        crossover_single_point(np.zeros(4), np.ones(4), 4)


def test_mutate_continuous_zero_sigma_is_identity():
    rng = np.random.default_rng(5)
    g = np.array([0.3, 1.2, 4.0])
    np.testing.assert_array_equal(mutate_continuous(g, 0.0, rng), g)


def test_mutate_continuous_sample_variance():
    rng = np.random.default_rng(6)
    out = mutate_continuous(np.zeros(10000), 0.15, rng)
    assert np.var(out) == pytest.approx(0.15 ** 2, rel=0.05)


def test_mutate_continuous_per_entry_sigma_broadcast():
    rng = np.random.default_rng(7)
    g = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = mutate_continuous(g, np.array([0.0, 1.0]), rng)
    np.testing.assert_array_equal(out[:, 0], g[:, 0])
    assert not np.allclose(out[:, 1], g[:, 1])


def test_mutate_continuous_matches_the_unfused_form():
    g = np.random.default_rng(32).uniform(-3.0, 3.0, size=(6, 5))
    sigma = np.array([0.15, 0.15, 0.15, 0.02, 0.02])
    rng, rng_ref = np.random.default_rng(33), np.random.default_rng(33)
    out = mutate_continuous(g, sigma, rng)
    ref = g + rng_ref.standard_normal(g.shape) * sigma
    assert out.tobytes() == ref.tobytes()
    assert rng.bit_generator.state == rng_ref.bit_generator.state


# ---------------------------------------------------------------------------
# Wrap and repair
# ---------------------------------------------------------------------------

def _ref_wrap(theta):
    """The np.mod form of the phase wrap, with 2*pi itself mapped to 0."""
    t = np.mod(np.asarray(theta, dtype=float), TWO_PI)
    return np.where(t >= TWO_PI, 0.0, t)


_WRAP_EDGES = [0.0, -0.0, TWO_PI, -TWO_PI, 2 * TWO_PI, -2 * TWO_PI, 7 * TWO_PI, -5 * TWO_PI,
               np.nextafter(TWO_PI, 0.0), -np.nextafter(TWO_PI, 0.0), -5e-324, -1e-300,
               -1e-17, -1e-16, 1e-300, 6.4, -0.1, 1e300, -1e300,
               np.nan, -np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("theta", [
    *_WRAP_EDGES,
    np.float64(-0.0),
    np.array(-0.0),
    np.array(-TWO_PI),
    np.array(np.nan),
    np.array(_WRAP_EDGES),
    np.array(_WRAP_EDGES).reshape(1, -1)[:, ::2],
    np.empty(0),
    np.empty((50, 0)),
], ids=lambda v: repr(v) if np.ndim(v) == 0 else f"array{np.shape(v)}")
def test_wrap_phase_matches_mod_form_byte_for_byte(theta):
    with np.errstate(invalid="ignore"):
        out, ref = wrap_phase(theta), _ref_wrap(theta)
    assert type(out) is type(ref)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()


def test_wrap_phase_on_a_strided_population_block_byte_for_byte():
    # The mutate hook wraps children[:, :m], a view with the genome's row stride.
    rng = np.random.default_rng(34)
    brood = rng.uniform(-30.0, 30.0, (50, 248))
    brood[0, :len(_WRAP_EDGES)] = _WRAP_EDGES
    brood[1, :len(_WRAP_EDGES)] = np.negative(_WRAP_EDGES)
    view = brood[:, :240]
    with np.errstate(invalid="ignore"):
        out, ref = wrap_phase(view), _ref_wrap(view)
    assert out.shape == (50, 240) and out.tobytes() == ref.tobytes()
    bulk = rng.uniform(-30.0, 30.0, 600_000)
    assert wrap_phase(bulk).view(np.uint64).tolist() == _ref_wrap(bulk).view(np.uint64).tolist()


def test_repair_power_matches_clip_form_byte_for_byte():
    raw = np.array([[-0.0, 0.0, 1e-9, 0.3], [np.nan, 0.5, -2.0, 0.1],
                    [3.0, 1.0, 2.0, 4.0], [-np.inf, 0.2, 0.2, 0.2]])
    clipped = np.clip(raw, POWER_FLOOR, None)
    ref = clipped * (1.0 / np.maximum(clipped.sum(axis=-1, keepdims=True), 1.0))
    assert repair_power(raw, 1.0).tobytes() == ref.tobytes()


def test_wrap_phase_values():
    assert wrap_phase(6.4) == pytest.approx(6.4 - TWO_PI, rel=1e-12)
    assert wrap_phase(6.4) == pytest.approx(0.11681469282041377, abs=1e-12)
    assert wrap_phase(-0.1) == pytest.approx(TWO_PI - 0.1, rel=1e-12)
    assert wrap_phase(TWO_PI) == 0.0
    assert wrap_phase(0.0) == 0.0


def test_wrap_phase_range_bulk():
    rng = np.random.default_rng(8)
    t = wrap_phase(rng.uniform(-50, 50, 10000))
    assert np.all(t >= 0.0) and np.all(t < TWO_PI)


def test_repair_power_already_feasible():
    np.testing.assert_array_equal(repair_power(np.array([0.5, 0.5]), 1.0),
                                  [0.5, 0.5])


def test_repair_power_uniform_rescale():
    np.testing.assert_allclose(repair_power(np.array([2.0, 2.0]), 1.0),
                               [0.5, 0.5], rtol=1e-12)


def test_repair_power_clamp_then_no_rescale():
    out = repair_power(np.array([-0.1, 0.6]), 1.0, 1e-6)
    np.testing.assert_allclose(out, [1e-6, 0.6], rtol=1e-12)


def test_repair_power_batched_rows():
    raw = np.array([[0.2, 0.2], [3.0, 1.0], [-1.0, 0.1]])
    out = repair_power(raw, 1.0, 1e-6)
    assert np.all(out > 0.0)
    assert np.all(out.sum(axis=1) <= 1.0 + 1e-12)
    np.testing.assert_allclose(out[1], [0.75, 0.25], rtol=1e-12)


def test_repair_power_infeasible_bounds():
    with pytest.raises(ValueError, match="infeasible"):
        repair_power(np.ones(4), 1.0, p_min=0.5)


# ---------------------------------------------------------------------------
# Continuous GA
# ---------------------------------------------------------------------------

def test_ga_continuous_flat_landscape():
    best, fit, trace = ga_continuous_run(
        lambda pop: np.full(len(pop), 3.5), (2, 0),
        GaConfig(pop_pairs=5, generations=10), np.random.default_rng(0))
    assert fit == 3.5
    assert np.all(trace == 3.5)


def test_ga_continuous_concave_1d_phase():
    # f(theta) = 2 - cos(theta - 1), maximized on the circle at theta = 1 + pi.
    hits = 0
    for seed in range(10):
        best, _, _ = ga_continuous_run(
            lambda pop: 2.0 - np.cos(pop[:, 0] - 1.0), (1, 0),
            GaConfig(pop_pairs=20, generations=100), np.random.default_rng(seed))
        hits += abs(best[0] - (1.0 + np.pi)) < 0.1
    assert hits >= 9


def test_ga_continuous_trace_shape_and_monotone_with_elitism():
    rng = np.random.default_rng(1)
    _, _, trace = ga_continuous_run(
        lambda pop: 1.0 / (1.0 + np.sum(pop ** 2, axis=1)), (3, 2),
        GaConfig(pop_pairs=8, generations=40), rng)
    assert trace.shape == (41,)
    assert np.all(np.diff(trace) >= 0.0)


def test_ga_continuous_deterministic_under_seed():
    def fit(pop):
        return 1.0 + np.sin(pop[:, 0]) + pop[:, 1]
    a = ga_continuous_run(fit, (1, 1), GaConfig(pop_pairs=6, generations=20),
                          np.random.default_rng(42))
    b = ga_continuous_run(fit, (1, 1), GaConfig(pop_pairs=6, generations=20),
                          np.random.default_rng(42))
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1] == b[1]
    np.testing.assert_array_equal(a[2], b[2])


def test_ga_continuous_seed_genome_floor():
    # Injecting the known maximizer means the run can never end below its score.
    def fit(pop):
        return 2.0 - np.cos(pop[:, 0] - 1.0)
    optimum = np.array([1.0 + np.pi])
    _, best_fit, trace = ga_continuous_run(
        fit, (1, 0), GaConfig(pop_pairs=4, generations=5),
        np.random.default_rng(0), seed_genomes=optimum)
    assert best_fit >= 3.0 - 1e-12
    assert trace[0] == pytest.approx(3.0, rel=1e-12)


def test_ga_continuous_rejects_empty_dims():
    with pytest.raises(ValueError):
        ga_continuous_run(lambda pop: np.ones(len(pop)), (0, 0), GaConfig(),
                          np.random.default_rng(0))


def test_ga_continuous_power_entries_stay_feasible():
    seen = []

    def fit(pop):
        seen.append(pop.copy())
        return 1.0 + pop[:, -1]

    ga_continuous_run(fit, (2, 3), GaConfig(pop_pairs=5, generations=15),
                      np.random.default_rng(9), p_max=1.0, p_min=1e-6)
    for pop in seen:
        assert np.all(pop[:, :2] >= 0.0) and np.all(pop[:, :2] < TWO_PI)
        assert np.all(pop[:, 2:] > 0.0)
        assert np.all(pop[:, 2:].sum(axis=1) <= 1.0 + 1e-9)


# ---------------------------------------------------------------------------
# Binary GA
# ---------------------------------------------------------------------------

def test_ga_binary_onemax_converges():
    hits = 0
    for seed in range(10):
        best, fit, _ = ga_binary_run(
            lambda pop: pop.sum(axis=1).astype(float) + 1e-9, 4,
            GaConfig(pop_pairs=5, generations=50), np.random.default_rng(seed))
        hits += fit >= 4.0
    assert hits >= 9


def test_ga_binary_zero_mutation_identical_population_is_fixed():
    seen = []

    def fit(pop):
        seen.append(pop.copy())
        return np.ones(len(pop))

    seeds = np.tile(np.array([1, 0, 1, 0, 1]), (8, 1))
    ga_binary_run(fit, 5, GaConfig(pop_pairs=4, generations=10, mutation_scale=0.0),
                  np.random.default_rng(0), seed_genomes=seeds)
    for pop in seen:
        np.testing.assert_array_equal(pop, seeds)


def test_ga_binary_trace_monotone_with_elitism():
    _, _, trace = ga_binary_run(
        lambda pop: 1.0 + pop.sum(axis=1).astype(float), 12,
        GaConfig(pop_pairs=6, generations=30), np.random.default_rng(3))
    assert trace.shape == (31,)
    assert np.all(np.diff(trace) >= 0.0)


@pytest.mark.parametrize("config, keyword", [
    (GaConfig, "power_mutation_frac"),
    (AdamConfig, "beta1"),
    (AdamConfig, "beta2"),
    (AdamConfig, "eps"),
    (BcdConfig, "power_floor"),
])
def test_fixed_solver_constants_are_not_settings(config, keyword):
    with pytest.raises(TypeError, match=keyword):
        config(**{keyword: 0.5})


def test_power_floor_has_one_home():
    assert BcdConfig().power_floor == BcdConfig.power_floor == POWER_FLOOR == 1.0e-6
    for fn, name in ((repair_power, "p_min"), (ga_continuous_run, "p_min"),
                     (initial_solution, "power_floor")):
        assert inspect.signature(fn).parameters[name].default == POWER_FLOOR


def test_ga_binary_rejects_bad_flip_probability():
    with pytest.raises(ValueError, match="flip probability"):
        ga_binary_run(lambda pop: np.ones(len(pop)), 4,
                      GaConfig(mutation_scale=1.5), np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1])
@pytest.mark.parametrize("run", ["continuous", "binary"])
def test_ga_rejects_a_non_finite_or_negative_mutation_scale(run, bad):
    cfg = GaConfig(pop_pairs=2, generations=1, mutation_scale=bad)
    with pytest.raises(ValueError, match="mutation_scale must be finite and >= 0"):
        if run == "continuous":
            ga_continuous_run(lambda pop: np.ones(len(pop)), (3, 2), cfg,
                              np.random.default_rng(0))
        else:
            ga_binary_run(lambda pop: np.ones(len(pop)), 5, cfg, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
@pytest.mark.parametrize("name", ["step", "fd_step"])
def test_adam_rejects_a_non_finite_or_non_positive_step(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
        adam_maximize(lambda w: -float(w @ w), np.zeros(2), AdamConfig(**{name: bad}))


def _run_continuous(seed_genomes):
    return ga_continuous_run(lambda pop: np.ones(len(pop)), (3, 2),
                             GaConfig(pop_pairs=2, generations=1),
                             np.random.default_rng(0), seed_genomes=seed_genomes)


def _run_binary(seed_genomes):
    return ga_binary_run(lambda pop: np.ones(len(pop)), 5,
                         GaConfig(pop_pairs=2, generations=1),
                         np.random.default_rng(0), seed_genomes=seed_genomes)


@pytest.mark.parametrize("run, seed_genomes, match", [
    (_run_continuous, np.zeros(4), "seed genome length 4, expected 5"),
    (_run_continuous, np.zeros((2, 6)), "seed genome length 6, expected 5"),
    (_run_binary, np.zeros(4, dtype=int), "seed genome length 4, expected 5"),
    (_run_binary, [[0, 1, 2, 0, 1]], "0/1 patterns"),
], ids=["continuous-short", "continuous-long", "binary-short", "binary-not-bits"])
def test_ga_rejects_bad_seed_genomes(run, seed_genomes, match):
    with pytest.raises(ValueError, match=match):
        run(seed_genomes)


# ---------------------------------------------------------------------------
# Finite differences and Adam
# ---------------------------------------------------------------------------

def test_finite_diff_exact_on_affine():
    grad = finite_diff_gradient(lambda w: 3.0 * w[0] + 2.0 * w[1],
                                np.array([0.7, -1.2]), 0.5)
    np.testing.assert_allclose(grad, [3.0, 2.0], atol=1e-10)


def test_finite_diff_exact_on_quadratic():
    grad = finite_diff_gradient(lambda w: w[0] ** 2, np.array([1.0, 0.0]), 0.3)
    np.testing.assert_allclose(grad, [2.0, 0.0], atol=1e-10)


def test_finite_diff_constant_field():
    grad = finite_diff_gradient(lambda w: 4.2, np.array([5.0, 5.0]), 1.0)
    np.testing.assert_array_equal(grad, [0.0, 0.0])


def test_finite_diff_rejects_non_finite_objective():
    with pytest.raises(FloatingPointError):
        finite_diff_gradient(lambda w: np.nan, np.array([0.0, 0.0]), 0.5)


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_gradient(lambda w: 0.0, np.array([0.0]), 0.0)


def test_adam_first_step_magnitude_with_constant_gradient():
    # Bias correction makes the first update alpha * g / (|g| + eps) per axis.
    cfg = AdamConfig(step=0.1, iters=1, fd_step=0.5)
    w, _ = adam_maximize(lambda v: 3.0 * v[0] + 2.0 * v[1], np.zeros(2), cfg)
    np.testing.assert_allclose(np.abs(w), 0.1, rtol=1e-6)


def test_adam_recovers_quadratic_maximum():
    cfg = AdamConfig(step=0.1, iters=2000, fd_step=0.5)
    w, trace = adam_maximize(
        lambda v: -((v[0] - 3.0) ** 2 + (v[1] - 4.0) ** 2), np.zeros(2), cfg)
    assert np.linalg.norm(w - np.array([3.0, 4.0])) < 0.01
    assert trace.shape == (2001,)


def test_adam_zero_gradient_never_moves():
    cfg = AdamConfig(step=0.5, iters=25)
    w, trace = adam_maximize(lambda v: 7.0, np.array([2.0, -3.0]), cfg)
    np.testing.assert_array_equal(w, [2.0, -3.0])
    assert np.all(trace == 7.0)


def _ref_adam_maximize(f, w0, cfg):
    """Adam as one scalar call per point: f(w0), then per step the four stencil
    points (+e_0, -e_0, +e_1, -e_1) and the new iterate."""
    w = np.asarray(w0, dtype=float).copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    f_cur = float(f(w))
    trace = [f_cur]
    best_w, best_f = w.copy(), f_cur
    for i in range(1, cfg.iters + 1):
        g = np.empty(w.size)
        for j in range(w.size):
            e = np.zeros(w.size)
            e[j] = cfg.fd_step
            g[j] = (float(f(w + e)) - float(f(w - e))) / (2.0 * cfg.fd_step)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** i)
        v_hat = v / (1.0 - ADAM_BETA2 ** i)
        w = w + cfg.step * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        f_cur = float(f(w))
        trace.append(f_cur)
        if f_cur > best_f:
            best_w, best_f = w.copy(), f_cur
    return best_w, np.asarray(trace)


def placement_field(seed=2):
    """The placement objective of a K=4, M=60 instance with random phases."""
    scn = with_gu_positions(default_scenario(),
                            sample_gu_positions(RngStream(seed, "gu-positions"), 4))
    scatter = sample_scattering(RngStream(seed, "scatter"), 4, scn.num_elements)
    rng = np.random.default_rng(seed)
    return placement_objective(scn, instance_terms(scn, scatter), np.ones(60),
                               rng.uniform(0, TWO_PI, 60), np.full(4, 0.25))


class CountingField:
    """Records every point the wrapped field is called on, one list per call."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, w):
        self.calls.append(np.array(w, copy=True))
        return self.f(w)


def test_adam_vectorized_matches_scalar_path_on_placement_field():
    field = placement_field()
    cfg = AdamConfig(step=1.0, iters=30, fd_step=0.5)
    start = np.array([150.0, 90.0])
    scalar, batched, ref = CountingField(field), CountingField(field), CountingField(field)
    w_s, trace_s = adam_maximize(scalar, start, cfg)
    w_v, trace_v = adam_maximize(batched, start, cfg, vectorized=True)
    w_r, trace_r = _ref_adam_maximize(ref, start, cfg)
    assert np.array_equal(w_v, w_s) and np.array_equal(w_s, w_r)
    assert np.array_equal(trace_v, trace_s) and np.array_equal(trace_s, trace_r)
    assert trace_v.shape == (cfg.iters + 1,)
    # The scalar path visits the points of the one-call-per-point loop, in order.
    assert len(scalar.calls) == len(ref.calls) == 5 * cfg.iters + 1
    for a, b in zip(scalar.calls, ref.calls):
        assert np.array_equal(a, b)
    # The vectorized path makes one call per step, iterate plus stencil, and
    # scores the last iterate alone; the points come in the same order.
    assert len(batched.calls) == cfg.iters + 1
    assert [len(c) for c in batched.calls] == [5] * cfg.iters + [1]
    assert np.array_equal(np.concatenate(batched.calls), np.array(ref.calls))


def test_adam_vectorized_rejects_a_scalar_objective():
    with pytest.raises(ValueError, match="shape"):
        adam_maximize(lambda v: 3.0 * v[0] + 2.0 * v[1], np.zeros(2),
                      AdamConfig(iters=2), vectorized=True)


def test_adam_vectorized_rejects_non_finite_stencil():
    def field(w):
        values = -np.sum(w ** 2, axis=-1)
        values[1:] = np.nan
        return values
    with pytest.raises(FloatingPointError):
        adam_maximize(field, np.ones(2), AdamConfig(iters=3), vectorized=True)


def test_default_theta_sigma_value():
    assert DEFAULT_THETA_SIGMA == 0.15


# ---------------------------------------------------------------------------
# Batched operators against per-pair reference loops
# ---------------------------------------------------------------------------
# The drivers draw all parents and build all children of a generation with one
# call per operator. The loops below are the per-individual and per-pair form
# the drivers used to run. Selection, mutation and the phase wrap are written out
# with Generator.choice, an unfused sum and np.mod, not the library's operators.
# The batched form must consume the generator the same way and give
# bit-identical children.

def _ref_select(f, rng):
    return int(rng.choice(f.size, p=f / f.sum()))


def _ref_blend(a, b, rng):
    w = rng.uniform()
    return w * a + (1.0 - w) * b, (1.0 - w) * a + w * b


def _ref_single_point(a, b, cut):
    return np.concatenate([a[:cut], b[cut:]]), np.concatenate([b[:cut], a[cut:]])


def _ref_ga_continuous(fitness, dims, cfg, rng, p_max=1.0, p_min=POWER_FLOOR,
                       seed_genomes=None):
    m, k = dims
    n = 2 * cfg.pop_pairs
    sigma_theta = DEFAULT_THETA_SIGMA if cfg.mutation_scale is None else cfg.mutation_scale
    sigma = np.concatenate([np.full(m, sigma_theta),
                            np.full(k, POWER_MUTATION_FRAC * p_max)])
    pop = np.empty((n, m + k))
    pop[:, :m] = rng.uniform(0.0, TWO_PI, size=(n, m))
    if k:
        pop[:, m:] = repair_power(rng.uniform(0.0, p_max, size=(n, k)), p_max, p_min)
    if seed_genomes is not None:
        injected = np.atleast_2d(np.asarray(seed_genomes, dtype=float))[:n]
        pop[:len(injected), :m] = _ref_wrap(injected[:, :m])
        if k:
            pop[:len(injected), m:] = repair_power(injected[:, m:], p_max, p_min)
    fit = np.asarray(fitness(pop), dtype=float)
    best_i = int(np.argmax(fit))
    best, best_fit = pop[best_i].copy(), float(fit[best_i])
    trace = [float(fit.max())]
    for _ in range(cfg.generations):
        idx = [_ref_select(fit, rng) for _ in range(n)]
        children = np.empty_like(pop)
        for pair in range(cfg.pop_pairs):
            children[2 * pair], children[2 * pair + 1] = _ref_blend(
                pop[idx[2 * pair]], pop[idx[2 * pair + 1]], rng)
        children = children + rng.standard_normal(children.shape) * sigma
        children[:, :m] = _ref_wrap(children[:, :m])
        if k:
            children[:, m:] = repair_power(children[:, m:], p_max, p_min)
        child_fit = np.asarray(fitness(children), dtype=float)
        gi = int(np.argmax(child_fit))
        if child_fit[gi] > best_fit:
            best, best_fit = children[gi].copy(), float(child_fit[gi])
        if best_fit > child_fit[gi]:
            worst = int(np.argmin(child_fit))
            children[worst] = best
            child_fit[worst] = best_fit
        pop, fit = children, child_fit
        trace.append(float(fit.max()))
    return best, best_fit, np.asarray(trace)


def _ref_ga_binary(fitness, m, cfg, rng, seed_genomes=None):
    mu = min(1.0 / m, 0.5) if cfg.mutation_scale is None else cfg.mutation_scale
    n = 2 * cfg.pop_pairs
    pop = rng.integers(0, 2, size=(n, m))
    if seed_genomes is not None:
        injected = np.atleast_2d(np.asarray(seed_genomes))[:n]
        pop[:len(injected)] = injected.astype(pop.dtype)
    fit = np.asarray(fitness(pop), dtype=float)
    best_i = int(np.argmax(fit))
    best, best_fit = pop[best_i].copy(), float(fit[best_i])
    trace = [float(fit.max())]
    for _ in range(cfg.generations):
        idx = [_ref_select(fit, rng) for _ in range(n)]
        children = np.empty_like(pop)
        for pair in range(cfg.pop_pairs):
            a, b = pop[idx[2 * pair]], pop[idx[2 * pair + 1]]
            if m >= 2:
                c1, c2 = _ref_single_point(a, b, int(rng.integers(1, m)))
            else:
                c1, c2 = a.copy(), b.copy()
            children[2 * pair], children[2 * pair + 1] = c1, c2
        flips = rng.uniform(size=children.shape) < mu
        children = np.where(flips, 1 - children, children)
        child_fit = np.asarray(fitness(children), dtype=float)
        gi = int(np.argmax(child_fit))
        if child_fit[gi] > best_fit:
            best, best_fit = children[gi].copy(), float(child_fit[gi])
        if best_fit > child_fit[gi]:
            worst = int(np.argmin(child_fit))
            children[worst] = best
            child_fit[worst] = best_fit
        pop, fit = children, child_fit
        trace.append(float(fit.max()))
    return best, best_fit, np.asarray(trace)


def _recording(fitness):
    seen = []

    def fit(pop):
        seen.append(pop.copy())
        return fitness(pop)
    return fit, seen


def _assert_same_run(batched, reference, rng_b, rng_r):
    (best_b, fit_b, trace_b), seen_b = batched
    (best_r, fit_r, trace_r), seen_r = reference
    np.testing.assert_array_equal(best_b, best_r)
    assert fit_b == fit_r
    np.testing.assert_array_equal(trace_b, trace_r)
    assert len(seen_b) == len(seen_r)
    for pop_b, pop_r in zip(seen_b, seen_r):
        assert pop_b.dtype == pop_r.dtype
        np.testing.assert_array_equal(pop_b, pop_r)
    assert rng_b.bit_generator.state == rng_r.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_selection_batched_equals_scalar_calls(n):
    f = np.random.default_rng(10).uniform(0.0, 3.0, size=13)
    f[4] = 0.0
    rng_b, rng_r = np.random.default_rng(11), np.random.default_rng(11)
    batched = selection_sample(f, rng_b, size=n)
    reference = [selection_sample(f, rng_r) for _ in range(n)]
    assert all(isinstance(i, int) for i in reference)
    np.testing.assert_array_equal(batched, reference)
    assert rng_b.bit_generator.state == rng_r.bit_generator.state


def test_crossover_blend_batched_equals_pair_loop():
    rng_b, rng_r = np.random.default_rng(12), np.random.default_rng(12)
    a = np.random.default_rng(13).normal(size=(9, 5))
    b = np.random.default_rng(14).normal(size=(9, 5))
    c1, c2 = crossover_blend(a, b, rng_b)
    ref = [_ref_blend(x, y, rng_r) for x, y in zip(a, b)]
    np.testing.assert_array_equal(c1, [r[0] for r in ref])
    np.testing.assert_array_equal(c2, [r[1] for r in ref])
    assert rng_b.bit_generator.state == rng_r.bit_generator.state


def test_crossover_single_point_per_row_cuts_equal_pair_loop():
    a = np.random.default_rng(15).integers(0, 2, size=(8, 6))
    b = np.random.default_rng(16).integers(0, 2, size=(8, 6))
    cuts = np.random.default_rng(17).integers(1, 6, size=8)
    c1, c2 = crossover_single_point(a, b, cuts)
    ref = [_ref_single_point(x, y, int(c)) for x, y, c in zip(a, b, cuts)]
    assert c1.dtype == a.dtype
    np.testing.assert_array_equal(c1, [r[0] for r in ref])
    np.testing.assert_array_equal(c2, [r[1] for r in ref])
    with pytest.raises(ValueError, match="cut must be in"):
        crossover_single_point(a, b, np.where(cuts == cuts[0], 6, cuts))


@pytest.mark.parametrize("dims, seeded", [((5, 3), False), ((4, 0), False),
                                          ((0, 3), False), ((5, 3), True),
                                          ((240, 8), False)])
def test_ga_continuous_matches_pair_loop(dims, seeded):
    m, k = dims
    cfg = GaConfig(pop_pairs=6, generations=25)
    seeds = np.full((2, m + k), 0.2) if seeded else None

    def fitness(pop):
        return 2.0 + np.cos(pop[:, :m]).sum(axis=1) / (m or 1) + pop[:, m:].sum(axis=1)

    rng_b, rng_r = np.random.default_rng(20), np.random.default_rng(20)
    fit_b, seen_b = _recording(fitness)
    fit_r, seen_r = _recording(fitness)
    batched = ga_continuous_run(fit_b, dims, cfg, rng_b, p_max=1.0, seed_genomes=seeds)
    reference = _ref_ga_continuous(fit_r, dims, cfg, rng_r, p_max=1.0, seed_genomes=seeds)
    _assert_same_run((batched, seen_b), (reference, seen_r), rng_b, rng_r)


# The last case flips with probability 0.4, so most children flip many bits.
@pytest.mark.parametrize("m, mutation_scale", [(1, None), (2, None), (9, None), (60, 0.4)],
                         ids=["1", "2", "9", "60-flip0.4"])
def test_ga_binary_matches_pair_loop(m, mutation_scale):
    cfg = GaConfig(pop_pairs=5, generations=25, mutation_scale=mutation_scale)
    weights = np.linspace(1.0, 2.0, m)

    def fitness(pop):
        return 1.0 + pop @ weights

    rng_b, rng_r = np.random.default_rng(21), np.random.default_rng(21)
    fit_b, seen_b = _recording(fitness)
    fit_r, seen_r = _recording(fitness)
    batched = ga_binary_run(fit_b, m, cfg, rng_b, seed_genomes=np.ones(m, dtype=int))
    reference = _ref_ga_binary(fit_r, m, cfg, rng_r, seed_genomes=np.ones(m, dtype=int))
    _assert_same_run((batched, seen_b), (reference, seen_r), rng_b, rng_r)

