"""Monte Carlo engines for the full two-factor model.

Both engines discretise the variance the same way: Euler with full
truncation (V replaced by max(V, 0) wherever it is consumed).  They
sample one way, with no switch: antithetic pairs, and equiprobable
stratification of the first step's leading shock.

- simulate_terminal, the conditional engine, simulates the variance only.
  Given one variance path, log S_T is Gaussian, so a path contributes the
  Black price at its conditional forward and total variance (the mixing
  estimator).  price_surface_mc and generate_time_series price with it, so
  both experiments do.  It advances one initial variance or several on one
  draw stream: the static experiment simulates all its scenarios in one
  call, drawing each step's normals once (common random numbers), and each
  scenario gets the bits a call of its own would give.
- simulate_euler, the Euler reference, simulates (S, V) jointly.
  price_option_mc and `mgpert mc-price` use it, and the tests check the
  conditional engine against it.

All draws come from a counter-based Philox generator so a fixed (seed,
config) pair reproduces bit-identical results regardless of how callers
parallelize around this module.  The stratified first step's inverse
normal CDF, scipy.special.ndtri, is imported on first use, so importing
this module does not import scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import bs_price
from .errors import InvalidParams
from .params import MgParams, OptionSpec, _require_finite, check_kind

DAYS_PER_YEAR = 365.0
#: paths per bs_price call when pricing from the conditional engine
PRICE_CHUNK = 8192
#: base paths per chunk of simulate_terminal's step (one chunk at 10^4 paths)
STEP_CHUNK = 8192


def _philox(*words):
    """Philox generator keyed by up to two 64-bit words.

    The key must be an explicit uint64 array: a plain int list would be
    converted through float64 and silently lose the low key bits.
    """
    padded = list(words) + [0] * (2 - len(words))
    key = np.array([w % 2**64 for w in padded], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    steps_per_day: int = 10
    n_strata: int = 50
    seed: int = 0

    def __post_init__(self):
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
    """Layout of the simulated weekly option panel."""

    n_sample_paths: int = 10
    n_obs: int = 12
    obs_step_days: float = 7.0
    maturities: tuple = (7, 30, 60, 90, 120, 180)
    moneyness: tuple = tuple(np.round(np.linspace(0.9, 1.1, 10), 6))
    spot0: float = 100.0
    v0_init: float = 0.0823
    mc: McConfig = field(
        default_factory=lambda: McConfig(n_paths=10_000, steps_per_day=20)
    )

    def __post_init__(self):
        # maturity_step_count would price a maturity of 0 days or fewer as one step
        if not self.maturities or not all(0 < m < math.inf for m in self.maturities):
            raise InvalidParams(
                f"maturities must be non-empty, finite and > 0, got {self.maturities}"
            )
        if list(self.maturities) != sorted(self.maturities):
            raise InvalidParams("maturities must be sorted ascending")
        if not all(0 < m < math.inf for m in self.moneyness):
            raise InvalidParams(f"moneyness values must be finite and > 0, got {self.moneyness}")
        if self.n_sample_paths < 1 or self.n_obs < 1:
            raise InvalidParams("n_sample_paths and n_obs must be >= 1")
        _require_finite(self, "spot0", "v0_init", "obs_step_days")
        if not (self.spot0 > 0 and self.obs_step_days > 0):
            raise InvalidParams("spot0 and obs_step_days must be > 0")
        if not self.v0_init >= 0:
            raise InvalidParams(f"v0_init must be >= 0, got {self.v0_init}")


def step_euler(s, v, dt, z_s, z_v, mg: MgParams, work=None):
    """One explicit Euler step; the drift/diffusion consume V+ = max(V, 0).

    S' = S + (r S) dt + (S sqrt(V+ dt)) z_s
    V' = V + (kappa (theta - V+)) dt + ((xi V+^alpha) sqrt(dt)) z_v

    With work = three float arrays shaped like s, the step updates s and v
    in place through those buffers and allocates nothing; without it, new
    arrays are returned and the inputs are left unchanged.  Both forms keep
    the association order above, so they give the same bytes as evaluating
    it directly.  The r term is skipped when r == 0 (s + 0.0 == s) and the
    power when alpha == 1 (v**1.0 == v), both exact.
    """
    if work is None:
        s, v = np.array(s, dtype=float), np.array(v, dtype=float)
        work = (np.empty_like(s), np.empty_like(s), np.empty_like(s))
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

    _variance_drift_and_shock(v, v_plus, dt, z_v, mg, a)
    np.add(v, a, out=v)
    return s, v


def _variance_drift_and_shock(v, v_plus, dt, z_v, mg: MgParams, a):
    """The variance half of step_euler up to its last add, in place: v
    gains the drift, a becomes the shock term ((xi V+^alpha) sqrt(dt)) z_v,
    and v_plus (V+ on entry) is overwritten when alpha != 1."""
    np.subtract(mg.theta, v_plus, out=a)
    np.multiply(mg.kappa, a, out=a)
    np.multiply(a, dt, out=a)
    np.add(v, a, out=v)
    if mg.alpha != 1.0:
        np.power(v_plus, mg.alpha, out=v_plus)
    np.multiply(mg.xi, v_plus, out=a)
    np.multiply(a, math.sqrt(dt), out=a)
    np.multiply(a, z_v, out=a)


def _stratified_normals(rng, n_strata, out):
    """Fill out with standard normals, len(out) // n_strata from each
    equiprobable stratum of the uniform, stratum by stratum."""
    rng.random(out=out)
    strata = out.reshape(n_strata, -1)  # a view: the offsets are added in place
    strata += np.arange(n_strata, dtype=float)[:, None]
    out /= n_strata
    from scipy.special import ndtri

    return ndtri(out, out=out)


def _first_step_shocks(rng, cfg: McConfig, rho: float):
    """Stratified first-step shocks for the independent draws.

    Stratification is equiprobable on the asset-shock uniform; the variance
    shock is built to carry correlation rho against it.
    """
    n = cfg.n_base
    z_s = _stratified_normals(rng, cfg.n_strata, np.empty(n))
    z_v = rho * z_s + math.sqrt(1.0 - rho**2) * rng.standard_normal(n)
    return z_s, z_v


def _step_shocks(rng, n, rho, out=None):
    """Correlated normals for one step: z_v is drawn first, then the asset's
    own normal.  With out = (z_s, z_v, scratch), three n-wide buffers, the
    draws fill them in place."""
    z_s, z_v, own = out if out is not None else (np.empty(n), np.empty(n), np.empty(n))
    rng.standard_normal(out=z_v)
    rng.standard_normal(out=own)
    np.multiply(rho, z_v, out=z_s)
    np.multiply(math.sqrt(1.0 - rho**2), own, out=own)
    np.add(z_s, own, out=z_s)
    return z_s, z_v


def simulate_terminal(
    spot: float,
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
    step's normals are drawn once.  Each entry is bit-identical to a call
    with that variance alone; a float is a sequence of one in the same loop.

    Each step draws one normal per base path (stratified on the first
    step).  The antithetic half is not mirrored into a second draw array:
    it keeps J negated, so both halves add sqrt(V+) z, its V update
    subtracts the shock term and its snapshot scales J by -rho sqrt(dt).
    IEEE negation is exact and x + (-y) = x - y, so this gives the mirror's
    bits.  The sums are kept as sum V+ and sum sqrt(V+) z and scaled by dt
    and sqrt(dt) at the snapshots.  Memory: per variance the state V and
    the sums, which live in the output rows of the last step; shared by
    all variances, the draws and two scratch arrays of STEP_CHUNK base
    paths, since the step runs chunk by chunk along the path axis.
    """
    if rng is None:
        rng = _philox(cfg.seed)
    start = np.asarray(variance, dtype=float)
    if start.ndim > 1:
        raise InvalidParams(f"variance must be a float or a 1-D sequence, got shape {start.shape}")
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
    z = np.empty(n)
    width = min(n, STEP_CHUNK)
    v_plus, a = np.empty((2, width)), np.empty((2, width))
    # J's factor per half: the antithetic half's J is stored negated
    root_scale = np.array([[rho * math.sqrt(dt)], [-(rho * math.sqrt(dt))]])

    # every view a step or a snapshot uses, made once: per chunk of base
    # paths, then per variance
    step_views, snap_views = [], []
    for c in range(0, n, width):
        part = slice(c, c + width)
        vp, sc = v_plus[:, : min(width, n - c)], a[:, : min(width, n - c)]
        for j in range(start.size):
            vj, s_v, s_root = v[j, :, part], sum_v[j, :, part], sum_root[j, :, part]
            step_views.append((vj, s_v, s_root, z[part], vp, sc, *vj, *sc))
            snap_views.append((s_v, s_root, sc, forwards[j, :, :, part], variances[j, :, :, part]))

    def snapshot(k):
        growth = spot * math.exp(mg.r * k * dt)
        for s_v, s_root, sc, fw, var in snap_views:
            for i in reversed(snap_at[k]):
                f, w = fw[i], var[i]
                np.multiply(s_root, root_scale, out=f)
                np.multiply(s_v, 0.5 * rho**2 * dt, out=sc)
                np.subtract(f, sc, out=f)
                np.exp(f, out=f)
                np.multiply(f, growth, out=f)
                np.multiply(s_v, (1.0 - rho**2) * dt, out=w)

    if 0 in snap_at:
        snapshot(0)
    for k in range(1, n_steps + 1):
        if k == 1:
            _stratified_normals(rng, cfg.n_strata, z)
        else:
            rng.standard_normal(out=z)
        for vj, s_v, s_root, zc, vp, sc, v_up, v_down, shock_up, shock_down in step_views:
            np.maximum(vj, 0.0, out=vp)
            np.add(s_v, vp, out=s_v)
            np.sqrt(vp, out=sc)
            np.multiply(sc, zc, out=sc)
            np.add(s_root, sc, out=s_root)
            _variance_drift_and_shock(vj, vp, dt, zc, mg, sc)
            np.add(v_up, shock_up, out=v_up)
            np.subtract(v_down, shock_down, out=v_down)
        if k in snap_at:
            snapshot(k)
    forwards, variances = forwards.reshape(shape), variances.reshape(shape)
    return (forwards[0], variances[0]) if start.ndim == 0 else (forwards, variances)


def simulate_euler(
    spot: float,
    variance: float,
    mg: MgParams,
    cfg: McConfig,
    maturity_steps,
    dt: float,
    rng=None,
):
    """Simulate all paths, snapshotting S at each requested step count.

    Returns an array of shape (len(maturity_steps), n_paths).  Antithetic
    partners occupy the second half of the path axis.

    Every buffer is allocated once per call, and each step draws into it
    and advances the state in place (step_euler with work buffers).  The
    draws come in the same order from the same stream as with freshly
    allocated arrays, so the output is bit-identical to that form.
    """
    if rng is None:
        rng = _philox(cfg.seed)
    maturity_steps = list(maturity_steps)
    n_steps = max(maturity_steps)
    n, m = cfg.n_base, cfg.n_paths

    s = np.full(m, float(spot))
    v = np.full(m, float(variance))
    work = (np.empty(m), np.empty(m), np.empty(m))
    z_s, z_v = np.empty(m), np.empty(m)
    drawn = (z_s[:n], z_v[:n], np.empty(n))  # the independent half, and scratch
    snapshots = np.empty((len(maturity_steps), m))
    snap_at = {}  # step count -> every row that asks for it
    for i, step in enumerate(maturity_steps):
        snap_at.setdefault(step, []).append(i)
    if 0 in snap_at:
        snapshots[snap_at[0]] = s

    for k in range(1, n_steps + 1):
        if k == 1:
            z_s[:n], z_v[:n] = _first_step_shocks(rng, cfg, mg.rho)
        else:
            _step_shocks(rng, n, mg.rho, drawn)
        np.negative(z_s[:n], out=z_s[n:])
        np.negative(z_v[:n], out=z_v[n:])
        step_euler(s, v, dt, z_s, z_v, mg, work)
        if k in snap_at:
            snapshots[snap_at[k]] = s
    return snapshots


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
    """Discounted-payoff Monte Carlo estimate with standard error."""
    if opt.tau_cal <= 0:
        raise InvalidParams("price_option_mc requires tau_cal > 0")
    n_steps = maturity_step_count(opt.tau_cal, cfg.steps_per_day)
    dt = opt.tau_cal / n_steps
    s_t = simulate_euler(opt.spot, opt.variance, mg, cfg, [n_steps], dt)[0]
    if opt.is_call:
        payoff = np.maximum(s_t - opt.strike, 0.0)
    else:
        payoff = np.maximum(opt.strike - s_t, 0.0)
    return _estimate(payoff, cfg, math.exp(-mg.r * opt.tau_cal))


def simulate_surface(spot: float, variance, maturities_days, mg: MgParams, cfg: McConfig, rng=None):
    """simulate_terminal on the step grid of a surface: one snapshot per
    maturity in days, at cfg.steps_per_day steps a day.  variance and rng
    as there, so a sequence of variances shares one draw stream."""
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
    kind: str = "call",
    rng=None,
    paths=None,
):
    """Price a maturity x strike grid of options from one shared path set.

    Returns a dict {(maturity_days, strike): McPrice}.  Sharing paths across
    the surface is what makes desk-scale path counts affordable; estimates
    for different contracts are correlated but individually unbiased.

    The paths come from the conditional engine (simulate_surface; rng as
    there), or are passed as paths = (forwards, variances), one contract
    set's entry of a simulate_surface call on these maturities and cfg;
    pricing overwrites those variances with their square roots.  A path's
    payoff is its undiscounted Black price at (F, W), a put by parity on
    that path (call - F + K).  bs_price runs on PRICE_CHUNK paths at a
    time, so its temporaries stay small whatever the path count.  Raises
    InvalidParams unless kind is "call" or "put", before any path is
    simulated.
    """
    check_kind(kind)
    maturities_days = list(maturities_days)
    strikes = list(strikes)
    if paths is None:
        paths = simulate_surface(spot, variance, maturities_days, mg, cfg, rng)
    forwards, variances = paths
    out = {}
    payoff = np.empty(forwards.shape[1])
    for i, m_days in enumerate(maturities_days):
        discount = math.exp(-mg.r * m_days / DAYS_PER_YEAR)
        vol = np.sqrt(variances[i], out=variances[i])
        for k in strikes:
            for c in range(0, payoff.size, PRICE_CHUNK):
                part = slice(c, c + PRICE_CHUNK)
                payoff[part] = bs_price(forwards[i, part], k, 1.0, 0.0, vol[part], kind)
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

    For every sample path: a weekly Euler trajectory of (S, V), and at each
    observation the full maturity x moneyness grid priced by Monte Carlo
    from the current (S, V+) state.  Deterministic given (spec, mg, seed).

    paths lists the sample path ids to simulate (default: all of them).  A
    path's streams are keyed by (seed, path id) alone, so its rows are the
    same whichever other paths are simulated with it.
    """
    paths = range(spec.n_sample_paths) if paths is None else list(paths)
    if not all(0 <= p < spec.n_sample_paths for p in paths):
        raise InvalidParams(f"path ids must be in [0, {spec.n_sample_paths}), got {paths}")
    rows = []
    dt_obs = spec.obs_step_days / DAYS_PER_YEAR
    for path_id in paths:
        path_rng = _philox(seed, path_id)
        s, v = spec.spot0, spec.v0_init
        for obs in range(spec.n_obs):
            v_plus = max(v, 0.0)
            strikes = [m * s for m in spec.moneyness]
            # pricing stream distinct from the state stream: different first
            # key word, second word packs (path, observation)
            rng = _philox(seed ^ 0x9E3779B97F4A7C15, (path_id << 32) | obs)
            prices = price_surface_mc(s, v_plus, spec.maturities, strikes, mg, spec.mc, rng=rng)
            for m_days in spec.maturities:
                for money, strike in zip(spec.moneyness, strikes):
                    mp = prices[(m_days, strike)]
                    rows.append(
                        PanelRow(
                            path_id=path_id,
                            obs_index=obs,
                            obs_time_years=obs * dt_obs,
                            v_true=v_plus,
                            maturity_days=float(m_days),
                            strike=float(strike),
                            moneyness=float(money),
                            mc_price=mp.estimate,
                            mc_std_error=mp.std_error,
                        )
                    )
            # advance the weekly state with a single Euler step
            z_s, z_v = _step_shocks(path_rng, 1, mg.rho)
            s_arr, v_arr = step_euler(
                np.array([s]), np.array([v]), dt_obs, z_s, z_v, mg
            )
            s, v = float(s_arr[0]), float(v_arr[0])
    return rows
