"""Inner solvers: continuous and binary genetic algorithms, and Adam over 2-D space.

All three treat the objective as a black box and maximize it. The continuous GA
works on genomes [theta | P] (phases then powers), the binary GA on on-off bit
vectors, and Adam on UAV coordinates with central finite-difference gradients,
scoring each iterate and its stencil in one call when the objective takes a batch.

The crossover and mutation operators are pure maps with no knowledge of genome
layout. Both GA drivers run one shared generation loop and differ only in the
crossover and mutation hooks they hand it; the continuous hook applies phase
wrapping and power repair right after mutation so every individual in every
generation is feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Default mutation scale for phase entries, radians.
DEFAULT_THETA_SIGMA = 0.15
# Mutation sigma of power entries, as a fraction of P_max.
POWER_MUTATION_FRAC = 0.02
# Lower bound on every transmit power in the repair projection, watts.
POWER_FLOOR = 1.0e-6
# Adam's moment decay rates and the denominator guard of its update.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1.0e-8


@dataclass(frozen=True)
class GaConfig:
    """Hyperparameters shared by both GAs.

    pop_pairs is L; the population holds 2L individuals. mutation_scale is the
    Gaussian sigma for phase entries (continuous GA) or the per-bit flip
    probability (binary GA); None resolves to 0.15 rad and min(1/m, 0.5)
    respectively; power entries always mutate with sigma POWER_MUTATION_FRAC *
    P_max. Elitism is always on: a generation that loses the best genome so
    far gets it back in place of its worst child. The random stream is the
    generator each driver is handed, not part of the config.
    """

    pop_pairs: int = 25
    generations: int = 100
    mutation_scale: float | None = None


@dataclass(frozen=True)
class AdamConfig:
    """Adam hyperparameters plus the finite-difference step.

    step defaults to 1.0 m, sized for placement coordinates that span tens of
    meters; iters is the iteration budget; fd_step is the central-difference h.
    The moment decays and the guard are ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.
    The update always climbs: every caller maximizes.
    """

    step: float = 1.0
    iters: int = 50
    fd_step: float = 0.5


def _check_ga_config(cfg: GaConfig) -> None:
    if cfg.pop_pairs < 1:
        raise ValueError(f"pop_pairs must be >= 1, got {cfg.pop_pairs}")
    if cfg.generations < 1:
        raise ValueError(f"generations must be >= 1, got {cfg.generations}")
    if cfg.mutation_scale is not None and not 0 <= cfg.mutation_scale < math.inf:
        raise ValueError(f"mutation_scale must be finite and >= 0, got {cfg.mutation_scale}")


def _check_adam_config(cfg: AdamConfig) -> None:
    # A NaN or infinite step would end the climb as a rejected placement, not an error.
    for name in ("step", "fd_step"):
        value = getattr(cfg, name)
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if cfg.iters < 1:
        raise ValueError(f"iters must be >= 1, got {cfg.iters}")


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def selection_sample(fitnesses, rng: np.random.Generator, size=None):
    """Indices drawn with probability proportional to fitness.

    Without size, one int; with size, an array of that many independent draws
    taken in one call, which consumes the generator exactly as size scalar calls.
    """
    f = np.asarray(fitnesses, dtype=float)
    if (f < 0).any() or not np.isfinite(f).all():
        raise ValueError("fitnesses must be finite and nonnegative")
    total = f.sum()
    if total <= 0.0:
        raise ValueError("all-zero fitnesses: selection PMF undefined")
    # The cdf search Generator.choice(f.size, size, p=f / total) runs when drawing
    # with replacement, without its second check of p: the same indices, and the
    # generator left in the same state.
    cdf = (f / total).cumsum()
    cdf /= cdf[-1]
    idx = cdf.searchsorted(rng.random(size), side="right")
    return int(idx) if size is None else idx


def crossover_blend(a, b, rng: np.random.Generator):
    """Weighted-sum crossover: one weight w ~ U[0,1] per pair, two mirrored children.

    Pairs run along any leading axes (rows of a and b pair up), with one weight
    drawn per pair. Children are convex combinations, so every child coordinate
    lies between the parents' coordinates.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"parent shapes differ: {a.shape} vs {b.shape}")
    w = rng.uniform(size=a.shape[:-1])[..., None]
    v = 1.0 - w
    c1 = w * a
    c1 += v * b
    c2 = v * a
    c2 += w * b
    return c1, c2


def crossover_single_point(a, b, cut):
    """Swap tails at the cut index: children a[:cut]+b[cut:] and b[:cut]+a[cut:].

    Pairs run along any leading axes; cut is one index for all pairs or one per
    pair (shape a.shape[:-1]).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"parent shapes differ: {a.shape} vs {b.shape}")
    m = a.shape[-1]
    cut = np.asarray(cut)
    if (cut < 1).any() or (cut > m - 1).any():
        raise ValueError(f"cut must be in [1, {m - 1}], got {cut}")
    head = np.arange(m) < cut[..., None]
    return np.where(head, a, b), np.where(head, b, a)


def mutate_continuous(genome, sigma, rng: np.random.Generator) -> np.ndarray:
    """Add Gaussian(0, sigma^2) noise to every element.

    sigma may be a scalar or broadcast along the last axis for per-entry scales.
    Wrapping and repair are the caller's job.
    """
    g = np.asarray(genome, dtype=float)
    noise = rng.standard_normal(g.shape)
    noise *= sigma
    noise += g
    return noise


def wrap_phase(theta) -> np.ndarray:
    """Wrap angles into [0, 2*pi): the bits of np.mod(theta, 2*pi), with 2*pi mapped to 0.

    fmod then a 2*pi shift of negative remainders is np.mod's own rule for a
    positive divisor, at a third of its cost. A zero remainder becomes +0.0, as
    in np.mod, and a tiny negative that rounds up to 2*pi wraps to 0. The three
    passes write one fresh array, so a 0-d input gives a 0-d array.
    """
    x = np.asarray(theta, dtype=float)
    t = np.fmod(x, TWO_PI, out=np.empty(x.shape))
    # A zero of either sign takes the shift to 2*pi, which the last pass makes +0.0.
    np.add(t, TWO_PI, out=t, where=t <= 0.0)
    np.copyto(t, 0.0, where=t >= TWO_PI)
    return t


def repair_power(p_raw, p_max: float, p_min: float = POWER_FLOOR) -> np.ndarray:
    """Project raw powers onto the feasible set: each >= p_min, sum <= p_max.

    Entries are clamped up to p_min first; if the sum then exceeds p_max, all
    entries are rescaled uniformly. Operates along the last axis, so whole
    populations can be repaired in one call.
    """
    p = np.asarray(p_raw, dtype=float)
    k = p.shape[-1] if p.ndim else p.size
    if p_min <= 0:
        raise ValueError(f"p_min must be > 0, got {p_min}")
    if k and p_min * k >= p_max:
        raise ValueError(f"infeasible bounds: p_min*K = {p_min * k} >= p_max = {p_max}")
    p = np.maximum(p, p_min)
    s = p.sum(axis=-1, keepdims=True)
    # Exactly 1.0 unless s > p_max, with no zero divisor for an empty power block.
    return p * (p_max / np.maximum(s, p_max))


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def _seed_rows(seed_genomes, n: int, length: int) -> np.ndarray:
    """The first n seed genomes as rows, checked to have the genome length."""
    rows = np.atleast_2d(np.asarray(seed_genomes))[:n]
    if rows.shape[1] != length:
        raise ValueError(f"seed genome length {rows.shape[1]}, expected {length}")
    return rows


def _ga_loop(fitness, pop: np.ndarray, cfg: GaConfig, rng: np.random.Generator,
             crossover, mutate):
    """The generation cycle of both GAs: score, select, cross, mutate, keep the elite.

    crossover(a, b) maps paired parent rows to two child arrays, interleaved into
    the brood; mutate(children) returns the perturbed brood. Returns (best genome,
    best fitness, per-generation best trace).
    """
    n = len(pop)
    fit = np.asarray(fitness(pop), dtype=float)
    best_i = int(np.argmax(fit))
    best, best_fit = pop[best_i].copy(), float(fit[best_i])
    trace = [float(fit.max())]

    for _ in range(cfg.generations):
        idx = selection_sample(fit, rng, size=n)
        children = np.empty_like(pop)
        children[0::2], children[1::2] = crossover(pop[idx[0::2]], pop[idx[1::2]])
        children = mutate(children)

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


def ga_continuous_run(fitness, dims: tuple[int, int], cfg: GaConfig,
                      rng: np.random.Generator, p_max: float = 1.0,
                      p_min: float = POWER_FLOOR, seed_genomes=None):
    """Run the continuous GA over [theta | P] genomes.

    fitness maps an (n, m+k) population to (n,) nonnegative values. dims is
    (m, k); either part may be empty (m=0 gives a power-only search). Returns
    (best genome, best fitness, per-generation best trace). The trace has
    generations+1 entries, the first being the initial population's best.

    seed_genomes, if given, replace leading members of the otherwise uniform
    initial population; the outer loop passes the incumbent solution here so
    successive passes refine instead of restarting.
    """
    _check_ga_config(cfg)
    m, k = dims
    if m < 0 or k < 0 or m + k == 0:
        raise ValueError(f"dims must be nonnegative with m+k >= 1, got {dims}")
    n = 2 * cfg.pop_pairs
    sigma_theta = DEFAULT_THETA_SIGMA if cfg.mutation_scale is None else cfg.mutation_scale
    sigma = np.concatenate([np.full(m, sigma_theta),
                            np.full(k, POWER_MUTATION_FRAC * p_max)])

    pop = np.empty((n, m + k))
    pop[:, :m] = rng.uniform(0.0, TWO_PI, size=(n, m))
    pop[:, m:] = repair_power(rng.uniform(0.0, p_max, size=(n, k)), p_max, p_min)
    if seed_genomes is not None:
        injected = _seed_rows(seed_genomes, n, m + k)
        pop[:len(injected), :m] = wrap_phase(injected[:, :m])
        pop[:len(injected), m:] = repair_power(injected[:, m:], p_max, p_min)

    def mutate(children):
        # Wrap and repair, so every individual in every generation is feasible.
        children = mutate_continuous(children, sigma, rng)
        # The checks are single reductions, NaN failing each; an empty block passes.
        if m:
            theta = wrap_phase(children[:, :m])
            assert theta.min() >= 0.0 and theta.max() < TWO_PI
            children[:, :m] = theta
        if k:
            p = repair_power(children[:, m:], p_max, p_min)
            assert p.min() > 0.0
            assert p.sum(axis=1).max() <= p_max * (1.0 + 1.0e-9)
            children[:, m:] = p
        return children

    return _ga_loop(fitness, pop, cfg, rng, lambda a, b: crossover_blend(a, b, rng), mutate)


def ga_binary_run(fitness, m: int, cfg: GaConfig, rng: np.random.Generator,
                  seed_genomes=None):
    """Run the binary GA over length-m bit vectors.

    Single-point crossover (for m >= 2) and independent per-bit flips with
    probability mu. Returns (best pattern, best fitness, per-generation trace).
    seed_genomes, if given, replace leading members of the random initial
    population (the outer loop passes the incumbent on-off pattern here).
    """
    _check_ga_config(cfg)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    mu = min(1.0 / m, 0.5) if cfg.mutation_scale is None else cfg.mutation_scale
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"flip probability must lie in [0, 1), got {mu}")
    n = 2 * cfg.pop_pairs

    pop = rng.integers(0, 2, size=(n, m))
    if seed_genomes is not None:
        injected = _seed_rows(seed_genomes, n, m)
        if not np.isin(injected, (0, 1)).all():
            raise ValueError("seed genomes must be 0/1 patterns")
        pop[:len(injected)] = injected.astype(pop.dtype)

    def crossover(a, b):
        if m < 2:
            return a, b
        return crossover_single_point(a, b, rng.integers(1, m, size=len(a)))

    def mutate(children):
        # Flip in place: the brood is a fresh array.
        np.subtract(1, children, out=children, where=rng.uniform(size=children.shape) < mu)
        return children

    return _ga_loop(fitness, pop, cfg, rng, crossover, mutate)


def _stencil(w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Rows w, w + h*e_0, w - h*e_0, w + h*e_1, ...: a point and its central stencil.

    e is the offsets h*I, built once per run.
    """
    rows = np.empty((2 * w.size + 1, w.size))
    rows[0] = w
    rows[1::2] = w + e
    rows[2::2] = w - e
    return rows


def _stencil_gradient(values: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient from f at _stencil(w, h)[1:], in that row order."""
    f_plus, f_minus = values[0::2], values[1::2]
    if not (np.isfinite(f_plus).all() and np.isfinite(f_minus).all()):
        raise FloatingPointError(
            f"objective non-finite at finite-difference stencil around {w}")
    return (f_plus - f_minus) / (2.0 * h)


def finite_diff_gradient(f, w, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar f at w with step h per coordinate.

    f is called once per stencil point, in the order w + h*e_0, w - h*e_0,
    w + h*e_1, ...; a non-finite value raises FloatingPointError.
    """
    if h <= 0:
        raise ValueError(f"h must be > 0, got {h}")
    w = np.asarray(w, dtype=float)
    values = np.array([float(f(x)) for x in _stencil(w, h * np.eye(w.size))[1:]])
    return _stencil_gradient(values, w, h)


def adam_maximize(f, w0, cfg: AdamConfig, vectorized: bool = False):
    """Adam ascent with bias-corrected moments over a scalar field on R^2.

    Gradients are central finite differences, as in finite_diff_gradient. Each
    step evaluates the new iterate together with the stencil around it, so the
    whole run makes cfg.iters + 1 evaluation calls. With vectorized=False, f
    maps one point (n,) to a scalar and is called once per row; with
    vectorized=True, f maps a (P, n) batch of points to (P,) values in one call.
    Returns (best-observed coordinates, trace of f at every iterate including
    w0).
    """
    _check_adam_config(cfg)
    batch_f = f if vectorized else (lambda points: np.array([float(f(x)) for x in points]))

    def evaluate(points: np.ndarray) -> np.ndarray:
        values = np.asarray(batch_f(points), dtype=float)
        if values.shape != (len(points),):
            raise ValueError(f"objective returned shape {values.shape} for "
                             f"{len(points)} points, expected ({len(points)},)")
        return values

    w = np.asarray(w0, dtype=float).copy()
    e = cfg.fd_step * np.eye(w.size)
    # The moments and the step run per coordinate in Python floats: the same
    # correctly rounded operations, in the same order, as the array form.
    m = [0.0] * w.size
    v = [0.0] * w.size

    values = evaluate(_stencil(w, e))
    f_cur = float(values[0])
    trace = [f_cur]
    best_w, best_f = w.copy(), f_cur

    for i in range(1, cfg.iters + 1):
        g = _stencil_gradient(values[1:], w, cfg.fd_step).tolist()
        c1 = 1.0 - ADAM_BETA1 ** i
        c2 = 1.0 - ADAM_BETA2 ** i
        w_next = w.tolist()
        for j, g_j in enumerate(g):
            m[j] = ADAM_BETA1 * m[j] + (1.0 - ADAM_BETA1) * g_j
            v[j] = ADAM_BETA2 * v[j] + (1.0 - ADAM_BETA2) * g_j * g_j
            w_next[j] += cfg.step * (m[j] / c1) / (math.sqrt(v[j] / c2) + ADAM_EPS)
        w = np.array(w_next)
        # The last iterate needs no gradient, so it is scored alone.
        values = evaluate(_stencil(w, e) if i < cfg.iters else w[None, :])
        f_cur = float(values[0])
        trace.append(f_cur)
        if f_cur > best_f:
            best_w, best_f = w, f_cur

    return best_w, np.asarray(trace)
