"""Spans for the traced run, and the patching that installs them.

A span is [name, start, end, parent]: perf_counter seconds and the index of
the enclosing span, or -1.  A wrapper is installed by replacing a function
in the module that calls it, because that is where the program looks the
name up; the benchmark's own calls go through the same module attributes.
Nothing in the program is edited.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import os
import time
from collections import defaultdict

import numpy as np
from mgpert.analytic import IV_PRICE_TOL
from mgpert.calibration import PENALTY_RESIDUAL

import checks


@contextlib.contextmanager
def patched(replacements):
    """Within the block, module.attr is make(original) for each
    ((module name, attr), make) pair; the originals come back in reverse
    order, so patches may nest."""
    saved = []
    try:
        for (mod_name, attr), make in replacements:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, make(original))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def tap(module_name, attr, sink):
    """Pass-through that appends every result of module.attr to sink."""

    def make(fn):
        def tapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result)
            return result

        return tapped

    return patched([((module_name, attr), make)])


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_simulate(rec, args, kwargs, result):
    cfg = _arg(args, kwargs, 3, "cfg")
    rec.counts["mc.path_steps"] += cfg.n_paths * max(_arg(args, kwargs, 4, "maturity_steps"))


def _count_step(rec, args, kwargs, result):
    rec.counts["mc.step_euler.path_steps"] += np.size(args[0])


def _count_elements(name):
    def count(rec, args, kwargs, result):
        rec.counts[name] += np.size(result)

    return count


def _count_iv_array(rec, args, kwargs, result):
    rec.counts["analytic.implied_vol_array.elements"] += np.size(result)
    # re-priced after the run, so the check costs no traced time
    rec.deferred_iv.append((args, kwargs, result))


def _count_calibrate(rec, args, kwargs, result):
    rec.counts["calibration.nm_iterations"] += result.iterations
    rec.counts["calibration.penalised_residuals"] += int(
        np.count_nonzero(result.residuals == PENALTY_RESIDUAL)
    )


def _count_report(rec, args, kwargs, result):
    out_dir = _arg(args, kwargs, 1, "out_dir")
    rec.counts["experiments.report_bytes"] += sum(
        e.stat().st_size for e in os.scandir(out_dir) if e.is_file()
    )


#: span name -> (calling-module attributes to replace, counter hook)
TARGETS = {
    "mc.simulate_terminal": ([("mgpert.mc", "simulate_terminal")], _count_simulate),
    "mc.step_euler": ([("mgpert.mc", "step_euler")], _count_step),
    "mc.price_surface_mc": ([("mgpert.experiments", "price_surface_mc")], None),
    "mc.generate_time_series": ([("mgpert.experiments", "generate_time_series")], None),
    "calibration.calibrate": (
        [("mgpert.calibration", "calibrate"), ("mgpert.experiments", "calibrate")],
        _count_calibrate,
    ),
    "calibration.ivrmse": ([("mgpert.calibration", "ivrmse")], None),
    "calibration.pert_price_grid": (
        [("mgpert.calibration", "pert_price_grid"), ("mgpert.experiments", "pert_price_grid")],
        None,
    ),
    "analytic.bs_price": (
        [("mgpert.analytic", "bs_price"), ("mgpert.calibration", "bs_price"),
         ("mgpert.experiments", "bs_price")],
        _count_elements("analytic.bs_price.elements"),
    ),
    "analytic.implied_vol_array": (
        [("mgpert.calibration", "implied_vol_array"),
         ("mgpert.experiments", "implied_vol_array")],
        _count_iv_array,
    ),
    "analytic.price_mg": ([("mgpert.analytic", "price_mg"), ("mgpert.cli", "price_mg")], None),
    "analytic.implied_vol": (
        [("mgpert.analytic", "implied_vol"), ("mgpert.cli", "implied_vol")], None),
    "heatkernel.psi1_quadrature": (
        [("mgpert.heatkernel", "psi1_quadrature"), ("mgpert.cli", "psi1_quadrature")], None),
    "heatkernel.breaking_operator_grid": (
        [("mgpert.heatkernel", "breaking_operator_grid")],
        _count_elements("heatkernel.integrand_points"),
    ),
    "experiments.run_static_experiment": (
        [("mgpert.experiments", "run_static_experiment")], None),
    "experiments.run_timeseries_experiment": (
        [("mgpert.experiments", "run_timeseries_experiment")], None),
    "experiments.write_report": (
        [("mgpert.experiments", "write_static_report"),
         ("mgpert.experiments", "write_timeseries_report")],
        _count_report,
    ),
}


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.deferred_iv = []
        self._open = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def installed(self):
        """Context in which every TARGETS function records a span."""
        replacements = []
        for name, (sites, count) in TARGETS.items():
            for site in sites:
                replacements.append(
                    (site, lambda fn, name=name, count=count: self.wrap(name, fn, count))
                )
        return patched(replacements)

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def span_totals(spans):
    """name -> [count, busy seconds, self seconds].

    Self time is a span's duration minus the durations of its direct
    children; busy time is the sum of durations.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, _) in enumerate(spans):
        t = totals[name]
        t[0] += 1
        t[1] += end - start
        t[2] += end - start - child[i]
    return totals


def _iv_unconverged(deferred):
    missed = 0
    for args, kwargs, out in deferred:
        prices, spot, strikes, tau, r = args[:5]
        kind = args[5] if len(args) > 5 else kwargs.get("kind", "call")
        prices, spot, strikes, out = np.broadcast_arrays(prices, spot, strikes, out)
        ok = np.isfinite(out)
        repriced = checks.bs_price_ref(spot[ok], strikes[ok], tau, r, out[ok], kind == "call")
        missed += int(np.count_nonzero(np.abs(repriced - prices[ok]) > IV_PRICE_TOL))
    return missed


def _per(num, den, scale=1.0):
    return scale * num / den if den else 0.0


#: per-layer metric name -> unit, in report order
LAYER_UNITS = {
    "mc.simulate_terminal.calls": "count",
    "mc.path_steps": "count",
    "mc.simulate_terminal.s": "s",
    "mc.ns_per_path_step": "ns",
    "mc.step_euler.s": "s",
    "mc.step_euler.ns_per_path_step": "ns",
    "mc.simulate_terminal.self_s": "s",
    "mc.payoff_self_s": "s",
    "calibration.calibrate.calls": "count",
    "calibration.calibrate.s": "s",
    "calibration.nm_iterations": "count",
    "calibration.ivrmse.calls": "count",
    "calibration.ivrmse.ms_per_call": "ms",
    "calibration.evals_per_iteration": "count/iter",
    "calibration.pert_price_grid.s": "s",
    "calibration.penalised_residuals": "count",
    "analytic.bs_price.calls": "count",
    "analytic.bs_price.elements": "count",
    "analytic.bs_price.s": "s",
    "analytic.implied_vol_array.calls": "count",
    "analytic.implied_vol_array.elements": "count",
    "analytic.implied_vol_array.s": "s",
    "analytic.iv_unconverged": "count",
    "analytic.price_mg.us_per_call": "us",
    "analytic.implied_vol.us_per_call": "us",
    "heatkernel.psi1_quadrature.calls": "count",
    "heatkernel.psi1_quadrature.s": "s",
    "heatkernel.integrand_points": "count",
    "heatkernel.ns_per_integrand_point": "ns",
    "experiments.run_static_experiment.self_s": "s",
    "experiments.run_timeseries_experiment.self_s": "s",
    "experiments.report_bytes": "bytes",
    "experiments.write_report.s": "s",
    "cli.python_numpy_s": "s",
    "cli.import_s": "s",
    "cli.main_price_ms": "ms",
    "trace.overhead_s": "s",
}


def layer_metrics(rec):
    """Every span-derived metric of LAYER_UNITS; zero for untouched layers."""
    t = span_totals(rec.spans)
    c = rec.counts

    def calls(name):
        return t[name][0]

    def busy(name):
        return t[name][1]

    def self_s(name):
        return t[name][2]

    path_steps = c["mc.path_steps"]
    nm_iterations = c["calibration.nm_iterations"]
    return {
        "mc.simulate_terminal.calls": calls("mc.simulate_terminal"),
        "mc.path_steps": path_steps,
        "mc.simulate_terminal.s": busy("mc.simulate_terminal"),
        "mc.ns_per_path_step": _per(busy("mc.simulate_terminal"), path_steps, 1e9),
        "mc.step_euler.s": busy("mc.step_euler"),
        "mc.step_euler.ns_per_path_step": _per(
            busy("mc.step_euler"), c["mc.step_euler.path_steps"], 1e9),
        "mc.simulate_terminal.self_s": self_s("mc.simulate_terminal"),
        "mc.payoff_self_s": self_s("mc.price_surface_mc") + self_s("mc.generate_time_series"),
        "calibration.calibrate.calls": calls("calibration.calibrate"),
        "calibration.calibrate.s": busy("calibration.calibrate"),
        "calibration.nm_iterations": nm_iterations,
        "calibration.ivrmse.calls": calls("calibration.ivrmse"),
        "calibration.ivrmse.ms_per_call": _per(
            busy("calibration.ivrmse"), calls("calibration.ivrmse"), 1e3),
        "calibration.evals_per_iteration": _per(calls("calibration.ivrmse"), nm_iterations),
        "calibration.pert_price_grid.s": busy("calibration.pert_price_grid"),
        "calibration.penalised_residuals": c["calibration.penalised_residuals"],
        "analytic.bs_price.calls": calls("analytic.bs_price"),
        "analytic.bs_price.elements": c["analytic.bs_price.elements"],
        "analytic.bs_price.s": busy("analytic.bs_price"),
        "analytic.implied_vol_array.calls": calls("analytic.implied_vol_array"),
        "analytic.implied_vol_array.elements": c["analytic.implied_vol_array.elements"],
        "analytic.implied_vol_array.s": busy("analytic.implied_vol_array"),
        "analytic.iv_unconverged": _iv_unconverged(rec.deferred_iv),
        "analytic.price_mg.us_per_call": _per(
            busy("analytic.price_mg"), calls("analytic.price_mg"), 1e6),
        "analytic.implied_vol.us_per_call": _per(
            busy("analytic.implied_vol"), calls("analytic.implied_vol"), 1e6),
        "heatkernel.psi1_quadrature.calls": calls("heatkernel.psi1_quadrature"),
        "heatkernel.psi1_quadrature.s": busy("heatkernel.psi1_quadrature"),
        "heatkernel.integrand_points": c["heatkernel.integrand_points"],
        "heatkernel.ns_per_integrand_point": _per(
            busy("heatkernel.psi1_quadrature"), c["heatkernel.integrand_points"], 1e9),
        "experiments.run_static_experiment.self_s": self_s("experiments.run_static_experiment"),
        "experiments.run_timeseries_experiment.self_s": self_s(
            "experiments.run_timeseries_experiment"),
        "experiments.report_bytes": c["experiments.report_bytes"],
        "experiments.write_report.s": busy("experiments.write_report"),
    }
