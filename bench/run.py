"""Benchmark of the exciton_eit package: one command, three workloads.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the package in that
checkout's ``src/`` tree (PYTHONPATH, nothing installed) and writes only
under ``.bench_build/`` there: a temporary directory for CLI output,
removed at the end, and the span file of a traced run.

Workloads (why each exists is recorded in BENCHMARK.json, the metrics are
explained in bench/GLOSSARY.md):

  cli-cold    fresh ``python -m exciton_eit.cli`` processes, four commands
              round-robin on the default working point
  study-warm  seeded parameter studies in one warm worker process
  pulse-warm  seeded thick-slab pulses in one warm worker process

Every operation's output is checked.  Times are reported at the nominal
speed of a reference kernel timed throughout the run (bench/speed.py),
which takes out about half of the drift in a shared machine's speed; a
warm operation is first set to the run's median speed from the kernel
passes around it.  The report also prints every wall value.  The report lists every metric with
its unit and sample count; the last stdout line is one JSON object with
the ``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``, where every operation runs both
untraced and traced, and the difference is the tracing overhead).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # nothing lands in the checkout's tree

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SCRATCH = ROOT / ".bench_build"
WORKLOADS = ("cli-cold", "study-warm", "pulse-warm")
# fresh processes whose set-up time is measured, per run
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import exciton_eit; "
                  "print(time.perf_counter() - t)")
IMPORTTIME_KEYS = ("exciton_eit", "scipy.signal", "scipy.optimize", "scipy.integrate",
                   "scipy.linalg", "scipy.special")
# spans recorded only by the traced run, outside the timed operation
TRACED_ONLY = ("susceptibility.sweep_control_threads2_s",)


def child_env() -> dict:
    """The package from this checkout's tree; no bytecode written anywhere."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")


def import_seconds() -> float:
    """Wall time of ``import exciton_eit`` in one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def import_breakdown(repeats: int = 3) -> dict[str, float]:
    """Median cumulative import time (s) of the package and scipy submodules.

    Read from ``python -X importtime``; submodule times nest (scipy.signal
    includes what it is first to import), so they do not add up.
    """
    samples: dict[str, list[float]] = {key: [] for key in IMPORTTIME_KEYS}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import exciton_eit"],
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                samples[fields[2].strip()].append(int(fields[1]) * 1e-6)
    return {key: statistics.median(v) if v else 0.0 for key, v in samples.items()}


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it.

    With fewer than 21 samples no percentile above the median has ten
    beyond it; the rule then keeps half the samples beyond, so the tail
    never drops below the median.  Returns (value, percentile).
    """
    v = sorted(values)
    n = len(v)
    beyond = min(10, (n - 1) // 2)
    return v[n - 1 - beyond], 100.0 * (n - beyond) / n


def latency(times: list[float]) -> dict:
    tail_s, pct = tail(times)
    return {"scenario_p50_s": statistics.median(times), "scenario_tail_s": tail_s,
            "scenarios_per_s": len(times) / sum(times), "tail_pct": pct, "n": len(times)}


def accounting(totals: dict, n_ops: int, untraced: list, traced: list) -> dict:
    """Layer self times against operation time, untraced and traced.

    Averages run over the operations that completed both untraced and traced.
    """
    both = [i for i, (u, t) in enumerate(zip(untraced, traced))
            if u is not None and t is not None]
    op_u = statistics.fmean(untraced[i] for i in both)
    op_t = statistics.fmean(traced[i] for i in both)
    layer_sum = sum(v for k, v in totals.items()
                    if k.endswith("_s") and k not in TRACED_ONLY) / n_ops
    return {"trace.op_untraced_s": op_u, "trace.op_traced_s": op_t,
            "trace.overhead_s": op_t - op_u, "trace.layer_self_sum_s": layer_sum,
            "trace.unattributed_s": op_t - layer_sum}


def layer_metrics(spans: list[dict], n_ops: int, imports: dict) -> tuple[dict, dict]:
    """Per-operation layer metrics from spans, plus the raw totals."""
    totals = tracing.layer_totals(spans)
    out = {k: v / n_ops for k, v in totals.items()}
    calls = totals.get("propagation.propagate_pulse_calls", 0)
    out["propagation.converged_frac"] = (
        totals.get("propagation.converged", 0) / calls if calls else 0.0)
    for command in ("spectrum", "sweep", "levels", "propagate"):
        out[f"cli.run_{command}_self_s"] = out.get(f"cli.run_{command}_s", 0.0)
    out["import.total_s"] = imports["exciton_eit"]
    for key in ("signal", "optimize", "integrate", "linalg", "special"):
        out[f"import.scipy.{key}_s"] = imports[f"scipy.{key}"]
    return out, totals


def run_cold(args, tmp: Path) -> dict:
    import cold

    setups, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(speed.probe())
        setups.append(import_seconds())
    run = cold.ColdRun(ROOT, child_env(), tmp, args.seed)
    rounds, traced, by_command = run.rounds(args.seconds, traced=bool(args.trace))
    result = {"setup": setups, "probes": probes + run.probes,
              "times": rounds, "attempted": run.attempted,
              "failures": run.failures, "by_command": by_command,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    if args.trace:
        result.update(traced_times=traced, spans=run.spans, imports=import_breakdown())
    return result


def worker(args, spans_out: Path, setup_only: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "warm.py"), args.workload, str(args.seed),
           repr(args.seconds), str(args.trace), str(spans_out)]
    proc = subprocess.run(cmd + (["--setup-only"] if setup_only else []), env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_warm(args, tmp: Path) -> dict:
    spans_out = tmp / "spans.json"
    probes, extra = [], []
    for _ in range(SETUP_REPEATS - 1):
        probes.append(speed.probe())
        extra.append(worker(args, spans_out, True))
    probes.append(speed.probe())
    main = worker(args, spans_out, False)
    result = {"setup": [r["setup_s"] for r in extra + [main]],
              "probes": probes + main["probes"],
              "attempted": sum(r["attempted"] for r in extra + [main]),
              "failures": sum((r["failures"] for r in extra + [main]), []),
              "times": [None if any(f[0] == i for f in main["failures"]) else t
                        for i, t in enumerate(main["times"])],
              "peak_rss_mb": main["peak_rss_mb"]}
    result["steady"] = speed.steady(result["times"], main["probes"])
    if args.trace:
        result.update(traced_times=main["traced_times"],
                      spans=json.loads(spans_out.read_text()),
                      imports=import_breakdown())
    return result


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report_rows(result: dict, e2e: dict, failed: int) -> list[tuple]:
    """(name, value, unit, samples, note) for every end-to-end metric."""
    tail_note = f"p{e2e['tail_pct']:.0f}"
    rows = [("setup_s", e2e["setup_s"], "s", len(result["setup"]), ""),
            ("scenario_p50_s", e2e["scenario_p50_s"], "s", e2e["n"], ""),
            ("scenario_tail_s", e2e["scenario_tail_s"], "s", e2e["n"], tail_note),
            ("scenarios_per_s", e2e["scenarios_per_s"], "1/s", e2e["n"], ""),
            ("peak_rss_mb", e2e["peak_rss_mb"], "MB", 1, ""),
            ("failed_frac", failed / result["attempted"], "ratio", result["attempted"], "")]
    for command, walls in result.get("by_command", {}).items():
        if walls:
            value, pct = tail(walls)
            rows.append((f"cli_{command}_s", statistics.median(walls), "s", len(walls), ""))
            rows.append((f"cli_{command}_tail_s", value, "s", len(walls), f"p{pct:.0f}"))
    return rows


def at_nominal(value: float, unit: str, k: float) -> float:
    """A wall-clock value at the reference kernel's nominal speed."""
    return value * k if unit == "s" else value / k if unit == "1/s" else value


def traced_values(args, result: dict, k: float) -> dict:
    """Per-layer metrics of a traced run; writes its spans and prints the accounting."""
    n_ops = len(result["traced_times"])
    values, totals = layer_metrics(result["spans"], n_ops, result["imports"])
    values.update(accounting(totals, n_ops, result["times"], result["traced_times"]))
    (SCRATCH / "traces").mkdir(exist_ok=True)
    trace_file = SCRATCH / "traces" / f"{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps(result["spans"]), encoding="utf-8")
    print(f"spans: {len(result['spans'])} written to {trace_file.relative_to(ROOT)}")
    print(f"accounting: layer self times sum to {values['trace.layer_self_sum_s'] * k:.4f} s "
          f"of a {values['trace.op_traced_s'] * k:.4f} s traced operation; unattributed "
          f"{values['trace.unattributed_s'] * k:+.4f} s against a tracing overhead of "
          f"{values['trace.overhead_s'] * k:+.4f} s per operation")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "exciton_eit" / "__init__.py").is_file():
        print(f"bench: no package tree at {ROOT / 'src' / 'exciton_eit'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()

    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        result = (run_cold if args.workload == "cli-cold" else run_warm)(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ok = [t for t in result.get("steady", result["times"]) if t is not None]
    failed = len(result["failures"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for op, messages in result["failures"][:10]:
        print(f"FAILED op {op}: {' | '.join(m.strip() for m in messages)}")
    if not ok:
        print("bench: no operation completed", file=sys.stderr)
        return 1
    e2e = {"setup_s": statistics.median(result["setup"]), **latency(ok),
           "peak_rss_mb": result["peak_rss_mb"]}
    rows = report_rows(result, e2e, failed)
    k = speed.factor(result["probes"])
    print(f"speed: reference kernel median {statistics.median(result['probes']) * 1e3:.3f} ms "
          f"over {len(result['probes'])} passes (nominal {speed.NOMINAL_S * 1e3:g} ms); "
          f"times below are wall times x {k:.4f}, the last column is the wall value"
          + ("; each warm operation is first set to the run's median speed from the "
             f"{speed.WINDOW} kernel passes around it" if "steady" in result else ""))
    if args.trace:
        values = traced_values(args, result, k)
        rows += [(m["name"], values.get(m["name"], 0.0), m["unit"], len(result["traced_times"]),
                  "per op") for m in spec["per_layer"]]
        # a layer the workload bypasses reads 0
        metrics = {m["name"]: {"value": at_nominal(values.get(m["name"], 0.0), m["unit"], k),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": at_nominal(e2e[m["name"]], m["unit"], k),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for name, value, unit, n, note in rows:
        print(f"  {name:44s} {at_nominal(value, unit, k):14.6g} {unit:6s} n={n:<5d} "
              f"{note:6s} {value:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
