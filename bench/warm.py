"""Warm-workload worker: one fresh process driving a closed loop, one client.

    python3 bench/warm.py WORKLOAD SEED SECONDS TRACE SPANS_OUT [--setup-only]

The package must be importable (PYTHONPATH=<checkout>/src).  The worker
times its own set-up, from before ``import exciton_eit`` to the end of
an untimed warm-up operation on the default working point, then runs
seeded operations until SECONDS have passed.  With TRACE = 1 it runs
each operation twice, untraced and with spans around every call into the
package, and writes the spans to SPANS_OUT.  The last stdout line is one
JSON object with the raw samples; bench/run.py turns them into metrics.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import exciton_eit  # noqa: E402
import numpy as np  # noqa: E402
from exciton_eit import (CONST, DensityMatrixState, PropagationParams,  # noqa: E402
                         gaussian_envelope, susceptibility)

import checks  # noqa: E402
import scenarios  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

API_NAMES = ("parse_config", "compute_spectrum", "window_metrics",
             "locate_absorption_peaks", "sweep_control", "level_table",
             "integrate_bloch", "integrate_linearized", "propagate_pulse")

# Bloch horizon in units of 1/gamma_ab: long enough that the Bloch layer
# takes a share of the study comparable to susceptibility and levels.
BLOCH_HORIZON = 1000.0


def package_api() -> SimpleNamespace:
    """The package functions the operations call, rebindable for tracing."""
    return SimpleNamespace(**{name: getattr(exciton_eit, name) for name in API_NAMES})


def study(api, text):
    """One parameter study of one medium; returns everything the checks need."""
    cfg = api.parse_config(text)
    system = cfg.build_system()
    drive = cfg.build_drive(system)
    center = drive.delta1 - drive.delta2
    om2 = abs(drive.Omega2)
    grid = np.linspace(center - cfg.omega_half_span, center + cfg.omega_half_span,
                       cfg.omega_points)
    spectra = []
    for factor in (0.0, 0.4, 1.0, 2.0):
        d = drive.with_control(factor * om2)
        spectra.append((d, api.compute_spectrum(system, d, grid)))
    for v in np.geomspace(om2 / 5.0, 4.0 * om2, 100):
        api.window_metrics(system, drive.with_control(v))
    peak_drives = [drive.with_control(v) for v in np.linspace(5.0, 10.0, 40) * system.gamma_ab]
    peaks = [api.locate_absorption_peaks(system, d) for d in peak_drives]
    sweep_grid = np.linspace(cfg.omega2_min, cfg.omega2_max, cfg.omega2_points)
    sweep = api.sweep_control(system, drive, sweep_grid)
    level_params = cfg.build_level_params()
    levels = api.level_table(level_params, n_max=cfg.levels_n_max, l_max=cfg.levels_l_max)
    T = BLOCH_HORIZON / system.gamma_ab
    trajectories = {mode: api.integrate_bloch(DensityMatrixState.ground(), drive, system, T,
                                              t_eval=np.linspace(0.0, T, 101),
                                              decay_mode=mode)
                    for mode in ("literal", "standard")}
    linearized = api.integrate_linearized(drive, system, 20.0 / system.gamma_bc)
    return SimpleNamespace(system=system, drive=drive, spectra=spectra,
                           peak_drives=peak_drives, peaks=peaks,
                           sweep_grid=sweep_grid, sweep=sweep,
                           level_params=level_params, levels=levels,
                           trajectories=trajectories, linearized=linearized)


def check_study(r) -> list[str]:
    failures = []
    for d, table in r.spectra:
        failures += checks.chi_oracle(r.system, d, table)
        failures += checks.passive(table.chi_im, f"spectrum at Omega2 = {abs(d.Omega2):.3g}")
    failures += checks.doublet(r.system, r.peak_drives, r.peaks)
    for mode, trajectory in r.trajectories.items():
        failures += checks.trace_conserved(trajectory, f"{mode} Bloch run")
    failures += checks.reaches_steady_state(r.linearized, r.drive, r.system)
    failures += checks.secular(r.level_params, [(row.n, row.energy) for row in r.levels
                                                if row.branch in ("2P", "10S")])
    return failures


def pulse(api, text):
    """One thick-slab pulse, sized the way the CLI sizes it."""
    cfg = api.parse_config(text)
    system = cfg.build_system()
    drive = cfg.build_drive(system)
    metrics = api.window_metrics(system, drive)
    sigma = 10.0 / metrics.width
    span = 18.0 * sigma + 2.0 * cfg.slab_length * max(metrics.ng_center, 1.0) / CONST.c
    params = PropagationParams.from_system(system, drive, cfg.slab_length,
                                           cfg.z_steps, cfg.t_steps, span)
    envelope = gaussian_envelope(params.t_grid, 9.0 * sigma, sigma,
                                 amplitude=complex(drive.Omega1))
    record = api.propagate_pulse(envelope, params, drive, system)
    return SimpleNamespace(system=system, drive=drive, params=params, record=record)


def check_pulse(r) -> list[str]:
    return checks.pulse(r.record, r.params, r.drive, r.system)


WORKLOADS = {"study-warm": (study, check_study), "pulse-warm": (pulse, check_pulse)}


def attempt(op, check, api, text, tracer=None, index=None):
    """Run one operation; returns (seconds, failure messages, result)."""
    try:
        if tracer is None:
            start = time.perf_counter()
            result = op(api, text)
            seconds = time.perf_counter() - start
        else:
            tracer.op = index
            with tracer.span("op") as span:
                result = op(api, text)
            seconds = span["end"] - span["start"]
        return seconds, check(result), result
    except Exception:
        return None, [traceback.format_exc(limit=-3)], None


class Traced:
    """The same operations with spans around every call into the package."""

    def __init__(self, workload: str):
        self.workload = workload
        self.tracer = tracing.Tracer()
        self.api = package_api()
        tracing.instrument(self.tracer, self.api, API_NAMES)
        self.counted_chi = self.tracer.count_points(susceptibility.chi)
        self.threads2 = self.tracer.wrap(susceptibility.sweep_control,
                                         name="susceptibility.sweep_control_threads2")

    def attempt(self, op, check, text, index):
        plain_chi = susceptibility.chi
        susceptibility.chi = self.counted_chi   # counts points only while traced
        try:
            dt, failures, r = attempt(op, check, self.api, text, self.tracer, index)
            if r is not None and self.workload == "study-warm":
                # traced only: the thread-pool sweep must equal the serial one
                pooled = self.threads2(r.system, r.drive, r.sweep_grid, threads=2)
                if not (np.array_equal(pooled.ng_center, r.sweep.ng_center)
                        and np.array_equal(pooled.chi_im_center, r.sweep.chi_im_center)):
                    failures = failures + ["threads=2 sweep differs from threads=1"]
        finally:
            susceptibility.chi = plain_chi
        return dt, failures


def main(argv):
    workload, seed, seconds, trace, spans_out = argv[:5]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    op, check = WORKLOADS[workload]
    api = package_api()

    _, warm_failures, _ = attempt(op, check, api, scenarios.warmup(workload))
    out = {"setup_s": time.perf_counter() - T0,
           "failures": [[-1, warm_failures]] if warm_failures else [],
           "attempted": 1}
    if "--setup-only" in argv:
        print(json.dumps(out))
        return

    traced = Traced(workload) if trace else None
    times, traced_times, probes = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        index = len(times)
        text = scenarios.scenario(seed, workload, index)
        probes.append(speed.probe())
        # the traced run of each operation alternates sides with the
        # untraced one, so drift in machine speed cancels from the overhead
        sides = ((False, True) if index % 2 == 0 else (True, False)) if trace else (False,)
        for side in sides:
            if side:
                dt, failures = traced.attempt(op, check, text, index)
                traced_times.append(dt)
            else:
                dt, failures, _ = attempt(op, check, api, text)
                times.append(dt)
            out["attempted"] += 1
            if failures:
                out["failures"].append([index, failures])
    out["times"] = times
    out["probes"] = probes
    if trace:
        out["traced_times"] = traced_times
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(traced.tracer.spans, fh)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
