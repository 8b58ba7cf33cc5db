"""Monte Carlo engine for the full two-factor model.

simulate_terminal, the conditional engine, simulates the variance only,
with Euler and full truncation (V replaced by max(V, 0) wherever it is
consumed).  Given one variance path, log S_T is Gaussian, so a path
contributes the Black price at its conditional forward and total variance
(the mixing estimator), exact in S.  It samples one way, with no switch:
antithetic pairs, and equiprobable stratification of the first step's
shock.  price_option_mc prices one contract with it, and both experiments
simulate with it through simulate_surface and price the paths they get
with price_surface_mc.  It advances one initial (spot, variance) or several
on one draw stream, drawing each step's normals once (common random
numbers), and each gets the bits a call of its own would give.  The static
experiment simulates all its scenarios in one call; the time series
simulates all the observations of a sample path in one call, SURFACE_BYTES
of paths at a time.  On more than STEP_CHUNK base paths, the caller draws
step k + 1's normals while one helper thread runs step k, and
price_surface_mc splits its chunks between the two threads (_overlap).  The
draws keep their order and each element its arithmetic, so the bits do not
depend on the threads.

step_euler, the joint (S, V) Euler step, advances only the time series'
weekly state.  The tests keep a joint (S, V) Euler engine as the
independent reference the conditional engine is checked against.

All draws come from a counter-based Philox generator so a fixed (seed,
config) pair reproduces bit-identical results regardless of how callers
parallelize around this module.  The stratified first step's inverse
normal CDF, scipy.special.ndtri, is imported on first use, so importing
this module does not import scipy.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .analytic import bs_price
from .errors import InvalidParams
from .params import MgParams, OptionSpec, check_counts

DAYS_PER_YEAR = 365.0
#: paths per bs_price call when pricing from the conditional engine
PRICE_CHUNK = 8192
#: base paths per chunk of simulate_terminal's step (one chunk at 10^4 paths)
STEP_CHUNK = 8192
#: most bytes of (forwards, variances) that one of generate_time_series's
#: simulations holds: a sample path's observations go this many bytes at a
#: time, and at least one at a time
SURFACE_BYTES = 32 * 2**20
#: K/S of the strikes both studies quote: 10 points from 0.9 to 1.1
MONEYNESS = tuple(np.round(np.linspace(0.9, 1.1, 10), 6))


def _philox(*words):
    """Philox generator keyed by up to two 64-bit words.

    The key must be an explicit uint64 array: a plain int list would be
    converted through float64 and silently lose the low key bits.  Each word
    is reduced mod 2^64 as a Python int, since a numpy int64 overflows on it.
    """
    padded = list(words) + [0] * (2 - len(words))
    key = np.array([int(w) % 2**64 for w in padded], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    steps_per_day: int = 10
    n_strata: int = 50
    seed: int = 0

    def __post_init__(self):
        check_counts(self, "n_paths", "steps_per_day", "n_strata", "seed")
        if self.n_paths < 2 or self.n_paths % 2:
            raise InvalidParams(f"n_paths must be a positive even number, got {self.n_paths}")
        if self.steps_per_day < 1:
            raise InvalidParams(f"steps_per_day must be >= 1, got {self.steps_per_day}")
        if self.n_strata < 1 or self.n_base % self.n_strata:
            raise InvalidParams(f"n_strata = {self.n_strata} must divide the {self.n_base} pairs")

    @property
    def n_base(self) -> int:
        """Independent draw count (antithetic partners are mirrored)."""
        return self.n_paths // 2


@dataclass(frozen=True)
class McPrice:
    estimate: float
    std_error: float
    n_effective: int


@dataclass(frozen=True)
class TimeSeriesSpec:
    """Layout of the simulated weekly option panel: n_obs weekly observations
    on each of n_sample_paths sample paths, each priced on the constant
    maturities (days) x moneyness (K/S) grid.  mc.seed is never read:
    generate_time_series keys its streams by its own seed argument."""

    spot0: ClassVar[float] = 100.0
    obs_step_days: ClassVar[float] = 7.0
    v0_init: ClassVar[float] = 0.0823
    maturities: ClassVar[tuple] = (7, 30, 60, 90, 120, 180)
    moneyness: ClassVar[tuple] = MONEYNESS
    n_sample_paths: int = 10
    n_obs: int = 12
    mc: McConfig = field(
        default_factory=lambda: McConfig(n_paths=10_000, steps_per_day=20)
    )

    def __post_init__(self):
        check_counts(self, "n_sample_paths", "n_obs")
        if self.n_sample_paths < 1 or self.n_obs < 1:
            raise InvalidParams("n_sample_paths and n_obs must be >= 1")


def step_euler(s, v, dt, z_s, z_v, mg: MgParams, work):
    """One explicit Euler step, in place; the drift/diffusion consume V+ = max(V, 0).

    S' = S + (r S) dt + (S sqrt(V+ dt)) z_s
    V' = V + (kappa (theta - V+)) dt + ((xi V+^alpha) sqrt(dt)) z_v

    s and v are float arrays, updated in place through work, three float
    arrays shaped like s, so the step allocates nothing.  It keeps the
    association order above, so it gives the same bytes as evaluating it
    directly.  The r term is skipped when r == 0 (s + 0.0 == s) and the
    power when alpha == 1 (v**1.0 == v), both exact.
    """
    v_plus, a, b = work
    np.maximum(v, 0.0, out=v_plus)

    np.multiply(v_plus, dt, out=a)
    np.sqrt(a, out=a)
    np.multiply(s, a, out=a)
    np.multiply(a, z_s, out=a)
    if mg.r != 0.0:
        np.multiply(mg.r, s, out=b)
        np.multiply(b, dt, out=b)
        np.add(s, b, out=s)
    np.add(s, a, out=s)

    np.subtract(mg.theta, v_plus, out=a)
    np.multiply(mg.kappa, a, out=a)
    np.multiply(a, dt, out=a)
    np.add(v, a, out=v)
    if mg.alpha != 1.0:
        np.power(v_plus, mg.alpha, out=v_plus)
    np.multiply(mg.xi, v_plus, out=a)
    np.multiply(a, math.sqrt(dt), out=a)
    np.multiply(a, z_v, out=a)
    np.add(v, a, out=v)
    return s, v


def _stratified_normals(rng, n_strata, out):
    """Fill out with standard normals, len(out) // n_strata from each
    equiprobable stratum of the uniform, stratum by stratum."""
    rng.random(out=out)
    strata = out.reshape(n_strata, -1)  # a view: the offsets are added in place
    strata += np.arange(n_strata, dtype=float)[:, None]
    out /= n_strata
    from scipy.special import ndtri

    return ndtri(out, out=out)


def _correlate(rng, rho, lead, other, own):
    """Draw own, then set other = rho lead + sqrt(1 - rho^2) own in place, so
    other carries correlation rho against lead, which the caller has drawn.
    own is scratch shaped like lead."""
    rng.standard_normal(out=own)
    np.multiply(rho, lead, out=other)
    np.multiply(math.sqrt(1.0 - rho**2), own, out=own)
    np.add(other, own, out=other)


@contextmanager
def _overlap(cfg: McConfig):
    """Yield together(job, other), which runs both and returns once both are
    done.  Above STEP_CHUNK base paths, job runs on one helper thread while
    the caller runs other; at or below it, the caller runs job and then other.

    The gate is on width: one chunk's work is too short to hide a handoff.
    The helper's pool lives for the with block only, so no thread outlives
    the call; a pool kept between calls hangs in processes forked after its
    thread has run.
    """
    if cfg.n_base <= STEP_CHUNK:
        def together(job, other):
            job()
            other()

        yield together
        return
    with ThreadPoolExecutor(1) as helper:
        def together(job, other):
            pending = helper.submit(job)
            try:
                other()
            finally:
                pending.result()

        yield together


def simulate_terminal(
    spot,
    variance,
    mg: MgParams,
    cfg: McConfig,
    maturity_steps,
    dt: float,
    rng=None,
):
    """Simulate the variance paths; return S's conditional law at each
    requested step count.

    Given the variance path, log S_t is Gaussian with mean
    log(spot) + r t - I/2 + rho J and variance (1 - rho^2) I, where
    I = sum V+ dt and J = sum sqrt(V+ dt) z_v.  Returns (forwards,
    variances), each of shape (len(maturity_steps), n_paths): the
    conditional forward F = spot e^(r t) e^(rho J - rho^2 I / 2) and the
    total variance W = (1 - rho^2) I.  A payoff's conditional mean is then
    a Black formula in (F, W), exact in S; only V is discretised.

    variance is one initial variance or a 1-D sequence of them.  For a
    sequence the outputs gain a leading axis, one entry per variance, and
    all variances advance on the same draws (common random numbers): each
    step's normals are drawn once.  spot is one spot for every variance or
    a 1-D sequence of the same length, one per variance.  Each entry is
    bit-identical to a call with that spot and variance alone; a float is a
    sequence of one in the same loop.

    V takes step_euler's scheme with its constants folded: at alpha = 1,
    V' = V + V+ f + kappa theta dt with f = +-xi sqrt(dt) z - kappa dt;
    otherwise V' = (V - V+ kappa dt) + V+^alpha f + kappa theta dt with
    f = +-xi sqrt(dt) z.  So V matches step_euler up to rounding.  f depends
    on z alone, so it is built once per step and chunk for every variance,
    and each variance keeps the bits of a call of its own.

    Each step draws one normal per base path (stratified on the first
    step).  The antithetic half is not mirrored into a second draw array:
    f's second row carries the shock negated, and that half keeps J negated,
    so both halves add sqrt(V+) z and its snapshot scales J by -rho sqrt(dt).
    IEEE negation is exact, so the half gets the bits a draw of -z gives.
    The sums are kept as sum V+ and sum sqrt(V+) z and scaled by dt and
    sqrt(dt) at the snapshots.

    On more than STEP_CHUNK base paths one helper thread runs step k, its
    snapshots included, while the caller draws step k + 1's normals
    (_overlap); numpy's ufuncs and the generator release the GIL, so the
    draws cost no wall time.  On one chunk the caller does both in turn:
    there a handoff per step would cost more than the draw it hides.

    Memory: per variance the state V and the sums, which live in the output
    rows of the last step; shared by all variances, two half-path draw
    buffers (step k's normals are row k % 2, so the next step's can be drawn
    while step k reads its own) and three scratch arrays (V+, a product and
    f) of STEP_CHUNK base paths, as the step runs chunk by chunk.  Only one
    thread steps at a time, so the scratch is not doubled.
    """
    if rng is None:
        rng = _philox(cfg.seed)
    start = np.asarray(variance, dtype=float)
    if start.ndim > 1:
        raise InvalidParams(f"variance must be a float or a 1-D sequence, got shape {start.shape}")
    spots = np.asarray(spot, dtype=float)
    if spots.ndim and spots.shape != start.shape:
        raise InvalidParams(
            f"spot must be a float or a 1-D sequence shaped like variance {start.shape}, "
            f"got shape {spots.shape}"
        )
    spots = np.broadcast_to(spots, start.shape).reshape(-1).tolist()
    maturity_steps = list(maturity_steps)
    n_steps = max(maturity_steps)
    n = cfg.n_base
    shape = (start.size, len(maturity_steps), cfg.n_paths)
    if not start.size:  # no variance to advance: draw nothing
        return np.empty(shape), np.empty(shape)
    rho = mg.rho
    snap_at = {}  # step count -> every row that asks for it
    for i, step in enumerate(maturity_steps):
        snap_at.setdefault(step, []).append(i)

    # axes (variance, row, half, base path): each half of a row is contiguous
    v = np.empty((start.size, 2, n))
    v[...] = start.reshape(-1, 1, 1)
    forwards = np.empty((start.size, len(maturity_steps), 2, n))
    variances = np.empty_like(forwards)
    # the sums accumulate in the first row that snapshots the last step,
    # which is written last and in place
    last = snap_at[n_steps][0]
    sum_root, sum_v = forwards[:, last], variances[:, last]
    sum_root.fill(0.0)
    sum_v.fill(0.0)
    draws = np.empty((2, n))  # step k's normals are row k % 2
    width = min(n, STEP_CHUNK)
    v_plus, a, factor = np.empty((3, 2, width))
    mean_rev, pull, vol_dt = mg.kappa * dt, mg.kappa * mg.theta * dt, mg.xi * math.sqrt(dt)
    # J's factor per half: the antithetic half's J is stored negated
    root_scale = np.array([[rho * math.sqrt(dt)], [-(rho * math.sqrt(dt))]])

    # every view a step or a snapshot uses, made once: per chunk of base
    # paths, then per variance
    step_views, snap_views = [], []
    for c in range(0, n, width):
        part = slice(c, c + width)
        vp, sc, fac = (buf[:, : min(width, n - c)] for buf in (v_plus, a, factor))
        views = list(zip(v[..., part], sum_v[..., part], sum_root[..., part]))
        step_views.append((draws[:, part], vp, sc, fac, views))
        snap_views += [(s_v, s_root, sc, fw, var, spot_j) for (_, s_v, s_root), fw, var, spot_j
                       in zip(views, forwards[..., part], variances[..., part], spots)]

    def snapshot(k):
        drift = math.exp(mg.r * k * dt)
        for s_v, s_root, sc, fw, var, spot_j in snap_views:
            growth = spot_j * drift
            for i in reversed(snap_at[k]):
                f, w = fw[i], var[i]
                np.multiply(s_root, root_scale, out=f)
                np.multiply(s_v, 0.5 * rho**2 * dt, out=sc)
                np.subtract(f, sc, out=f)
                np.exp(f, out=f)
                np.multiply(f, growth, out=f)
                np.multiply(s_v, (1.0 - rho**2) * dt, out=w)

    def draw(k):
        """Step k's normals into draws[k % 2]; none past the last step."""
        if k == 1:
            _stratified_normals(rng, cfg.n_strata, draws[1])
        elif k <= n_steps:
            rng.standard_normal(out=draws[k % 2])

    def advance(k):
        """Step k over every chunk, on draws[k % 2], then its snapshots."""
        for z, vp, sc, fac, views in step_views:
            zc = z[k % 2]
            np.multiply(zc, vol_dt, out=fac[0])
            np.negative(fac[0], out=fac[1])
            if mg.alpha == 1.0:
                np.subtract(fac, mean_rev, out=fac)
            for vj, s_v, s_root in views:
                np.maximum(vj, 0.0, out=vp)
                np.add(s_v, vp, out=s_v)
                np.sqrt(vp, out=sc)
                np.multiply(sc, zc, out=sc)
                np.add(s_root, sc, out=s_root)
                if mg.alpha != 1.0:
                    np.multiply(vp, mean_rev, out=sc)
                    np.subtract(vj, sc, out=vj)
                    np.power(vp, mg.alpha, out=vp)
                np.multiply(vp, fac, out=sc)
                np.add(vj, sc, out=vj)
                np.add(vj, pull, out=vj)
        if k in snap_at:
            snapshot(k)

    if 0 in snap_at:
        snapshot(0)
    draw(1)
    with _overlap(cfg) as together:
        for k in range(1, n_steps + 1):
            together(lambda: advance(k), lambda: draw(k + 1))
    forwards, variances = forwards.reshape(shape), variances.reshape(shape)
    return (forwards[0], variances[0]) if start.ndim == 0 else (forwards, variances)


def _estimate(payoffs: np.ndarray, cfg: McConfig, discount: float) -> McPrice:
    """Discounted mean of the pair means; stratified SE unless strata hold one pair each."""
    n = cfg.n_base
    samples = 0.5 * (payoffs[:n] + payoffs[n:])
    est = discount * float(samples.mean())
    per_stratum = samples.reshape(cfg.n_strata, -1)
    n_i = per_stratum.shape[1]
    if n_i > 1:
        var = float(np.sum(per_stratum.var(axis=1, ddof=1) / n_i)) / cfg.n_strata**2
    else:
        var = float(samples.var(ddof=1)) / samples.size
    return McPrice(estimate=est, std_error=discount * math.sqrt(var), n_effective=samples.size)


def maturity_step_count(tau_cal: float, steps_per_day: int) -> int:
    return max(1, round(tau_cal * DAYS_PER_YEAR * steps_per_day))


def price_option_mc(opt: OptionSpec, mg: MgParams, cfg: McConfig) -> McPrice:
    """Discounted Monte Carlo estimate with standard error, on the conditional
    engine: each path's payoff is its Black price, call or put, at its
    conditional forward and total variance (simulate_terminal at
    dt = tau_cal / steps)."""
    if opt.tau_cal <= 0:
        raise InvalidParams("price_option_mc requires tau_cal > 0")
    n_steps = maturity_step_count(opt.tau_cal, cfg.steps_per_day)
    forwards, variances = simulate_terminal(opt.spot, opt.variance, mg, cfg, [n_steps],
                                            opt.tau_cal / n_steps)
    payoff = bs_price(forwards[0], opt.strike, 1.0, 0.0, np.sqrt(variances[0]), opt.kind)
    return _estimate(payoff, cfg, math.exp(-mg.r * opt.tau_cal))


def simulate_surface(spot, variance, maturities_days, mg: MgParams, cfg: McConfig, rng=None):
    """simulate_terminal on the step grid of a surface: one snapshot per
    maturity in days, at cfg.steps_per_day steps a day.  spot, variance and
    rng as there, so a sequence of variances shares one draw stream."""
    steps = [maturity_step_count(m / DAYS_PER_YEAR, cfg.steps_per_day) for m in maturities_days]
    dt = 1.0 / (DAYS_PER_YEAR * cfg.steps_per_day)
    return simulate_terminal(spot, variance, mg, cfg, steps, dt, rng)


def price_surface_mc(
    spot: float,
    variance: float,
    maturities_days,
    strikes,
    mg: MgParams,
    cfg: McConfig,
    paths=None,
):
    """Price a maturity x strike grid of calls from one shared path set.

    Returns a dict {(maturity_days, strike): McPrice}.  Sharing paths across
    the surface is what makes desk-scale path counts affordable; estimates
    for different contracts are correlated but individually unbiased.

    The experiments pass paths = (forwards, variances), one contract set's
    entry of a simulate_surface call on these maturities and cfg.  Only
    with paths=None are spot and variance read: simulate_surface then makes
    the paths here on cfg.seed's stream.  Pricing overwrites the variances
    with their square roots.  A path's payoff is its undiscounted Black
    call price at (F, W).  bs_price runs on PRICE_CHUNK paths at a time, so
    its temporaries stay small whatever the path count.  On more than
    STEP_CHUNK base paths one helper thread prices every other chunk while
    the caller prices the rest (_overlap), and each estimate is taken once
    both are done.
    """
    maturities_days = list(maturities_days)
    strikes = list(strikes)
    if paths is None:
        paths = simulate_surface(spot, variance, maturities_days, mg, cfg)
    forwards, variances = paths
    out = {}
    payoff = np.empty(forwards.shape[1])
    chunks = [slice(c, c + PRICE_CHUNK) for c in range(0, payoff.size, PRICE_CHUNK)]

    def price(parts):
        for part in parts:
            payoff[part] = bs_price(forwards[i, part], k, 1.0, 0.0, vol[part])

    with _overlap(cfg) as together:
        for i, m_days in enumerate(maturities_days):
            discount = math.exp(-mg.r * m_days / DAYS_PER_YEAR)
            vol = np.sqrt(variances[i], out=variances[i])
            for k in strikes:
                together(lambda: price(chunks[1::2]), lambda: price(chunks[::2]))
                out[(m_days, k)] = _estimate(payoff, cfg, discount)
    return out


@dataclass(frozen=True)
class PanelRow:
    path_id: int
    obs_index: int
    obs_time_years: float
    v_true: float
    maturity_days: float
    strike: float
    moneyness: float
    mc_price: float
    mc_std_error: float


def generate_time_series(spec: TimeSeriesSpec, mg: MgParams, seed: int = 0, paths=None):
    """Simulate the weekly observation panel of Monte Carlo option prices.

    For every sample path: a weekly Euler trajectory of (S, V) on the
    path's state stream, and at each observation the full maturity x
    moneyness grid priced by Monte Carlo from the current (S, V+) state.
    Deterministic given (spec, mg, seed).

    The states are known before any pricing, so one simulate_surface call
    advances all of a path's observations on one pricing stream (common
    random numbers): each observation gets the bits a call of its own on
    that stream would give.  Observations go SURFACE_BYTES of paths at a
    time, and each group restarts the stream, so the rows do not depend on
    the grouping.

    paths lists the sample path ids to simulate (default: all of them).  A
    path's streams are keyed by (seed, path id) alone, so its rows are the
    same whichever other paths are simulated with it.  seed is an integer,
    as McConfig's.
    """
    if not isinstance(seed, numbers.Integral):
        raise InvalidParams(f"seed must be an integer, got {seed!r}")
    paths = range(spec.n_sample_paths) if paths is None else list(paths)
    if not all(0 <= p < spec.n_sample_paths for p in paths):
        raise InvalidParams(f"path ids must be in [0, {spec.n_sample_paths}), got {paths}")
    rows = []
    dt_obs = spec.obs_step_days / DAYS_PER_YEAR
    surface_bytes = 2 * len(spec.maturities) * spec.mc.n_paths * 8
    per_call = max(1, SURFACE_BYTES // surface_bytes)
    (z_s, z_v, own), work = np.empty((3, 1)), np.empty((3, 1))
    for path_id in paths:
        path_rng = _philox(seed, path_id)
        s, v = np.array([spec.spot0]), np.array([spec.v0_init])
        spots, v_plus = [spec.spot0], [max(spec.v0_init, 0.0)]
        for _ in range(spec.n_obs - 1):  # the weekly state, one Euler step a week
            _correlate(path_rng, mg.rho, path_rng.standard_normal(out=z_v), z_s, own)
            step_euler(s, v, dt_obs, z_s, z_v, mg, work)
            spots.append(float(s[0]))
            v_plus.append(max(float(v[0]), 0.0))
        for first in range(0, spec.n_obs, per_call):
            last = min(first + per_call, spec.n_obs)
            # pricing stream distinct from the state stream: different first
            # key word, the path id in the second word's high half
            rng = _philox(int(seed) ^ 0x9E3779B97F4A7C15, path_id << 32)
            forwards, variances = simulate_surface(
                spots[first:last], v_plus[first:last], spec.maturities, mg, spec.mc, rng
            )
            for j, obs in enumerate(range(first, last)):
                strikes = [m * spots[obs] for m in spec.moneyness]
                prices = price_surface_mc(
                    spots[obs], v_plus[obs], spec.maturities, strikes, mg, spec.mc,
                    paths=(forwards[j], variances[j]),
                )
                for m_days in spec.maturities:
                    for money, strike in zip(spec.moneyness, strikes):
                        mp = prices[(m_days, strike)]
                        rows.append(
                            PanelRow(
                                path_id=path_id,
                                obs_index=obs,
                                obs_time_years=obs * dt_obs,
                                v_true=v_plus[obs],
                                maturity_days=float(m_days),
                                strike=float(strike),
                                moneyness=float(money),
                                mc_price=mp.estimate,
                                mc_std_error=mp.std_error,
                            )
                        )
            # freed before the next group is simulated, so one group's
            # paths are held at a time
            del forwards, variances
    return rows
