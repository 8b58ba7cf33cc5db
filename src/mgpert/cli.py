"""Command-line interface: pricing, Monte Carlo, oracle checks, experiments.

Exit codes: 0 ok, 1 check failure, 2 validation error, 3 degenerate
parameters, 4 non-convergence.  All maturities are taken in days and
converted with a 365-day year.  Config files are flat UTF-8 key=value
lines ('#' starts a comment); precedence is flags > config file > defaults.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import os
import sys

import numpy as np

from .analytic import implied_vol, price_mg
from .errors import (
    DegenerateParams,
    InvalidParams,
    MgpertError,
    NoConvergence,
    NonpositiveVariance,
    OutOfBounds,
    QuadratureNotConverged,
)
from .experiments import (
    DATASETS,
    run_static_experiment,
    run_timeseries_experiment,
    write_static_report,
    write_timeseries_report,
)
from .heatkernel import QuadratureConfig, breaking_operator_grid, psi0, psi1_quadrature
from .mc import DAYS_PER_YEAR, McConfig, TimeSeriesSpec, price_option_mc
from .params import (
    MgParams,
    OptionSpec,
    PerturbParams,
    derive_params,
    tilt,
    to_heat_coords,
)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_NO_CONVERGENCE = 4


def _boolean(text):
    t = str(text).strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def fmt_float(x) -> str:
    """17 significant digits, enough to round-trip any double."""
    return f"{float(x):.17g}"


def dump_json(pairs) -> str:
    """Flat JSON object with stable key order and 17-digit floats."""
    items = []
    for key, value in pairs:
        if value is None:
            rep = "null"
        elif isinstance(value, bool):
            rep = "true" if value else "false"
        elif isinstance(value, (int, np.integer)):
            rep = str(int(value))
        elif isinstance(value, (float, np.floating)):
            # strict JSON has no Infinity/NaN tokens
            rep = fmt_float(value) if math.isfinite(value) else "null"
        else:
            rep = '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'
        items.append(f'"{key}": {rep}')
    return "{" + ", ".join(items) + "}"


def config_hash(ns: argparse.Namespace) -> str:
    """Short digest of the resolved options that change results, for output headers."""
    parts = []
    for key in sorted(vars(ns)):
        # where output goes and how many workers make it never change its contents
        if key in ("config", "func", "out", "out_dir", "threads"):
            continue
        parts.append(f"{key}={vars(ns)[key]!r}")
    blob = " ".join(parts)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def read_config_file(path, known_keys):
    """Flat key=value UTF-8 config; unknown keys are a validation error."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidParams(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in known_keys:
                    raise InvalidParams(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise InvalidParams(f"cannot read config file {path}: {exc}") from exc
    return values


class _FlagSpec:
    """One CLI option: flag name, type, default, help text with units."""

    def __init__(self, flag, type_, default, help_):
        self.flag = flag
        self.dest = flag.lstrip("-").replace("-", "_")
        self.type = type_
        self.default = default
        self.help = help_


MODEL_FLAGS = [
    _FlagSpec("--kappa", float, 1.5, "mean-reversion speed [1/year]"),
    _FlagSpec("--theta", float, 0.08, "long-run variance [1/year]"),
    _FlagSpec("--xi", float, 1.5, "vol-of-vol [year^(alpha-3/2)]"),
    _FlagSpec("--rho", float, -0.5, "driver correlation, in [-1, 1]"),
    _FlagSpec("--alpha", float, 1.0, "variance exponent [dimensionless]"),
    _FlagSpec("--rate", float, 0.0, "risk-free rate [1/year]"),
]

CONTRACT_FLAGS = [
    _FlagSpec("--spot", float, 100.0, "spot price [currency]"),
    _FlagSpec("--strike", float, 100.0, "strike [currency]"),
    _FlagSpec("--days", float, 30.0, "time to maturity [days, 365-day year]"),
    _FlagSpec("--kind", str, "call", "option kind: call or put"),
    _FlagSpec("--variance", float, 0.04, "current instantaneous variance [1/year]"),
]

SIGMA_FLAG = _FlagSpec("--sigma", float, 0.2, "averaged volatility [1/sqrt(year)]")
V0_FLAG = _FlagSpec("--v0", float, 1.0, "reference variance scale [1/year]")

MC_FLAGS = [
    _FlagSpec("--paths", int, 100_000, "Monte Carlo paths [count]"),
    _FlagSpec("--steps-per-day", int, 10, "Euler steps per day [count]"),
    _FlagSpec("--antithetic", _boolean, True, "antithetic mirroring [true/false]"),
    _FlagSpec("--stratified", _boolean, True, "first-step stratification [true/false]"),
    _FlagSpec("--strata", int, 50, "number of equiprobable strata [count]"),
    _FlagSpec("--seed", int, 0, "random seed [integer]"),
]

QUAD_FLAGS = [
    _FlagSpec("--nodes", int, 128, "spatial quadrature nodes per axis [count]"),
    _FlagSpec("--time-nodes", int, 64, "time-layer quadrature nodes [count]"),
    _FlagSpec("--half-width", float, 8.0, "spatial half-width [kernel-scale units]"),
    _FlagSpec("--fd-step", float, 1e-4, "finite-difference step [heat x units]"),
    _FlagSpec("--rel-tol", float, 1e-3, "quadrature refinement tolerance [relative]"),
]


def _add_flags(parser, specs):
    for s in specs:
        parser.add_argument(s.flag, dest=s.dest, type=s.type, default=argparse.SUPPRESS,
                            help=f"{s.help} (default: {s.default})")


def _defaults(specs):
    return {s.dest: s.default for s in specs}


def _mg_from_ns(ns) -> MgParams:
    return MgParams(kappa=ns.kappa, theta=ns.theta, xi=ns.xi, rho=ns.rho,
                    alpha=ns.alpha, r=ns.rate)


def _opt_from_ns(ns) -> OptionSpec:
    return OptionSpec(spot=ns.spot, strike=ns.strike, tau_cal=ns.days / DAYS_PER_YEAR,
                      kind=ns.kind, variance=ns.variance)


def cmd_price(ns) -> int:
    mg = _mg_from_ns(ns)
    opt = _opt_from_ns(ns)
    pert = PerturbParams.from_mg(mg, ns.sigma, ns.v0)
    breakdown = price_mg(opt, mg, pert)
    try:
        iv = implied_vol(breakdown.total, opt, mg.r)
    except (OutOfBounds, NoConvergence):
        iv = None
    print(dump_json([
        ("c0", breakdown.c0),
        ("c1", breakdown.c1),
        ("total", breakdown.total),
        ("d1", breakdown.d1),
        ("d2", breakdown.d2),
        ("implied_vol", iv),
    ]))
    return EXIT_OK


def cmd_mc_price(ns) -> int:
    mg = _mg_from_ns(ns)
    opt = _opt_from_ns(ns)
    cfg = McConfig(n_paths=ns.paths, steps_per_day=ns.steps_per_day,
                   antithetic=ns.antithetic, stratified=ns.stratified,
                   n_strata=ns.strata, seed=ns.seed)
    mp = price_option_mc(opt, mg, cfg)
    print(dump_json([
        ("estimate", mp.estimate),
        ("std_error", mp.std_error),
        ("n_effective", mp.n_effective),
    ]))
    return EXIT_OK


def cmd_oracle_check(ns) -> int:
    """Grid comparison of quadrature psi1 against the closed form.

    Emits one CSV row per grid point and a human-readable summary line;
    fails (exit 1) when any point misses the tolerance, which is
    max(rel_pass relative, abs_pass currency units).
    """
    for flag, value in (("--rel-pass", ns.rel_pass), ("--abs-pass", ns.abs_pass)):
        # a NaN tolerance would pass every point
        if not 0.0 <= value < math.inf:
            raise InvalidParams(f"{flag} must be finite and >= 0, got {value}")
    for flag, value in (("--moneyness-points", ns.moneyness_points),
                        ("--variance-points", ns.variance_points)):
        # an empty grid would pass with nothing checked
        if value < 1:
            raise InvalidParams(f"{flag} must be >= 1, got {value}")
    mg = _mg_from_ns(ns)
    pert = PerturbParams.from_mg(mg, ns.sigma, ns.v0)
    deriv = derive_params(mg, pert)
    qcfg = QuadratureConfig(half_width=ns.half_width, n_nodes=ns.nodes,
                            n_time=ns.time_nodes, fd_step=ns.fd_step,
                            rel_tol=ns.rel_tol)
    moneyness = np.linspace(ns.moneyness_min, ns.moneyness_max, ns.moneyness_points)
    variances = np.linspace(ns.variance_min, ns.variance_max, ns.variance_points)
    spot = 100.0

    rows, errs = [], []
    max_ratio = [0.0, 0.0, 0.0]  # drift, variance-diffusion, correlation terms
    n_fail = 0
    for m in moneyness:
        for v in variances:
            opt = OptionSpec(spot=spot, strike=m * spot, tau_cal=ns.days / DAYS_PER_YEAR,
                             kind="call", variance=float(v))
            hc = to_heat_coords(opt, pert)
            p0 = psi0(hc, deriv).value
            p1 = psi1_quadrature(hc, mg, pert, deriv, qcfg)
            bd = price_mg(opt, mg, pert)
            c1_quad = opt.strike * tilt(hc, deriv) * p1
            err = abs(c1_quad - bd.c1)
            tol = max(ns.abs_pass, ns.rel_pass * abs(bd.c1))
            # a NaN error is a failure, not a pass
            if not err <= tol:
                n_fail += 1
            errs.append(err)
            base = abs(breaking_operator_grid(hc.x, hc.y, 0.5 * hc.tau, mg, pert, deriv,
                                              1.0, 0.0, 0.0, 0.0, ns.fd_step))
            for i, flags in enumerate([(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]):
                term = abs(breaking_operator_grid(hc.x, hc.y, 0.5 * hc.tau, mg, pert,
                                                  deriv, *flags, ns.fd_step))
                max_ratio[i] = max(max_ratio[i], float(term / base) if base else 0.0)
            rows.append([fmt_float(hc.x), fmt_float(hc.y), fmt_float(hc.tau),
                         fmt_float(p0), fmt_float(p1), fmt_float(bd.c1), fmt_float(err)])

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", "y", "tau", "psi0", "psi1_quad", "c1_closed_form", "abs_err"])
    writer.writerows(rows)
    if ns.out:
        with open(ns.out, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# config {config_hash(ns)}\n")
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    status = "PASS" if n_fail == 0 else "FAIL"
    max_abs = np.max(errs)  # NaN propagates, unlike the builtin max
    print(f"oracle-check {status}: {len(rows)} points, max_abs_err={max_abs:.3e}, "
          f"annihilation_ratios=[{max_ratio[0]:.2e}, {max_ratio[1]:.2e}, "
          f"{max_ratio[2]:.2e}]")
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILURE


def cmd_experiment(ns) -> int:
    # every option is checked before the output directory is created
    if ns.experiment == "static":
        cfg = McConfig(n_paths=ns.paths, steps_per_day=ns.steps_per_day, seed=ns.seed,
                       n_strata=ns.strata)
    else:
        if ns.dataset not in DATASETS:
            raise InvalidParams(f"--dataset must be one of {sorted(DATASETS)}, got {ns.dataset}")
        if ns.full:
            sample_paths, obs, paths = 100, 52, 50_000
        else:
            sample_paths, obs, paths = ns.sample_paths, ns.obs, ns.paths
        spec = TimeSeriesSpec(n_sample_paths=sample_paths, n_obs=obs,
                              mc=McConfig(n_paths=paths, steps_per_day=ns.steps_per_day,
                                          n_strata=ns.strata, seed=ns.seed))
    try:
        os.makedirs(ns.out_dir, exist_ok=True)
        probe = os.path.join(ns.out_dir, ".write_probe")
        with open(probe, "w", encoding="utf-8"):
            pass
        os.remove(probe)
    except OSError as exc:
        raise InvalidParams(f"output directory {ns.out_dir!r} not writable: {exc}") from exc
    comment = f"config {config_hash(ns)}"

    if ns.experiment == "static":
        report = run_static_experiment(mc_cfg=cfg, maturity_days=ns.days)
        write_static_report(report, ns.out_dir, comment)
        print("v_init sigma_hat ivrmse")
        for row in report.rows:
            print(f"{row.v_init:.4f} {row.sigma_hat:.4f} {row.ivrmse:.4f}")
        return EXIT_OK

    report = run_timeseries_experiment(ns.dataset, spec=spec, seed=ns.seed,
                                       n_workers=ns.threads)
    write_timeseries_report(report, ns.out_dir, comment)
    print("dataset param true mean bias std")
    for s in report.param_stats:
        print(f"{s.dataset} {s.param} {s.true:.4f} {s.mean:.4f} {s.bias:.4f} {s.std:.4f}")
    print(f"ivrmse mean={report.ivrmse_mean:.4f} std={report.ivrmse_std:.4f}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mgpert",
        description="Perturbative stochastic-volatility pricing engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table = {}

    p = sub.add_parser("price", help="closed-form perturbative price")
    _add_flags(p, MODEL_FLAGS + CONTRACT_FLAGS + [SIGMA_FLAG, V0_FLAG])
    p.add_argument("--config", default=None, help="flat key=value config file [path]")
    table["price"] = (p, _defaults(MODEL_FLAGS + CONTRACT_FLAGS + [SIGMA_FLAG, V0_FLAG]),
                      cmd_price)

    p = sub.add_parser("mc-price", help="Monte Carlo price of one contract")
    _add_flags(p, MODEL_FLAGS + CONTRACT_FLAGS + MC_FLAGS)
    p.add_argument("--config", default=None, help="flat key=value config file [path]")
    table["mc-price"] = (p, _defaults(MODEL_FLAGS + CONTRACT_FLAGS + MC_FLAGS),
                         cmd_mc_price)

    p = sub.add_parser("oracle-check",
                       help="quadrature vs closed-form correction on a scenario grid")
    grid_flags = [
        _FlagSpec("--days", float, 30.0, "time to maturity [days, 365-day year]"),
        _FlagSpec("--moneyness-min", float, 0.9, "lowest S/K on the grid [ratio]"),
        _FlagSpec("--moneyness-max", float, 1.1, "highest S/K on the grid [ratio]"),
        _FlagSpec("--moneyness-points", int, 5, "moneyness grid points [count]"),
        _FlagSpec("--variance-min", float, 0.01, "lowest variance on the grid [1/year]"),
        _FlagSpec("--variance-max", float, 0.1225, "highest variance on the grid [1/year]"),
        _FlagSpec("--variance-points", int, 5, "variance grid points [count]"),
        _FlagSpec("--rel-pass", float, 1e-3, "pass tolerance [relative]"),
        _FlagSpec("--abs-pass", float, 5e-3, "pass tolerance [currency units]"),
        _FlagSpec("--out", str, "", "CSV output path; empty for stdout"),
    ]
    _add_flags(p, MODEL_FLAGS + [SIGMA_FLAG, V0_FLAG] + QUAD_FLAGS + grid_flags)
    p.add_argument("--config", default=None, help="flat key=value config file [path]")
    table["oracle-check"] = (
        p, _defaults(MODEL_FLAGS + [SIGMA_FLAG, V0_FLAG] + QUAD_FLAGS + grid_flags),
        cmd_oracle_check)

    p = sub.add_parser("experiment", help="static or time-series study, CSV reports")
    p.add_argument("experiment", choices=["static", "timeseries"],
                   help="which study to run")
    exp_flags = [
        _FlagSpec("--dataset", int, 1, "time-series data set id, 1-4"),
        _FlagSpec("--paths", int, 10_000, "Monte Carlo paths per option [count]"),
        _FlagSpec("--steps-per-day", int, 10, "Euler steps per day [count]"),
        _FlagSpec("--strata", int, 50, "number of equiprobable strata [count]"),
        _FlagSpec("--sample-paths", int, 10, "simulated market paths [count]"),
        _FlagSpec("--obs", int, 12, "weekly observations per path [count]"),
        _FlagSpec("--days", float, 30.0, "static-study maturity [days]"),
        _FlagSpec("--seed", int, 0, "random seed [integer]"),
        _FlagSpec("--out-dir", str, "out", "report output directory [path]"),
        _FlagSpec("--threads", int, os.cpu_count() or 1,
                  "worker processes; must not change results [count]"),
    ]
    _add_flags(p, exp_flags)
    p.add_argument("--full", action="store_true", default=argparse.SUPPRESS,
                   help="100 paths x 52 obs x 5*10^4 sims; excludes --paths, "
                        "--sample-paths and --obs")
    p.add_argument("--config", default=None, help="flat key=value config file [path]")
    defaults = _defaults(exp_flags)
    defaults["full"] = False
    table["experiment"] = (p, defaults, cmd_experiment)

    return parser, table


def _resolve(argv, parser, table):
    """defaults < config file < explicit flags; returns the options, the
    handler and the set of keys given by a flag or the config file."""
    ns = parser.parse_args(argv)
    command = ns.command
    cmd_parser, defaults, handler = table[command]
    resolved = dict(defaults)
    given = set()
    if getattr(ns, "config", None):
        specs = {s.dest: s for group in (MODEL_FLAGS, CONTRACT_FLAGS, MC_FLAGS,
                                         QUAD_FLAGS, [SIGMA_FLAG, V0_FLAG])
                 for s in group}
        raw = read_config_file(ns.config, set(defaults))
        given.update(raw)
        for key, text in raw.items():
            caster = specs[key].type if key in specs else type(defaults[key])
            if caster is bool:
                caster = _boolean
            resolved[key] = caster(text)
    for key, value in vars(ns).items():
        if key in ("config",):
            continue
        resolved[key] = value
        given.add(key)
    out = argparse.Namespace(**resolved)
    return out, handler, given


def main(argv=None) -> int:
    parser, table = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns, handler, given = _resolve(argv, parser, table)
        if getattr(ns, "full", False) and given & {"paths", "sample_paths", "obs"}:
            raise InvalidParams("--full sets the paths, sample paths and observations; "
                                "give none of --paths, --sample-paths, --obs with it")
        return handler(ns)
    except (InvalidParams, NonpositiveVariance, OutOfBounds) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DegenerateParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (QuadratureNotConverged, NoConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except MgpertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
