"""Traced launch of one CLI command in a fresh process.

    python3 bench/launch.py SPANS_OUT <exciton-eit arguments>

Times ``import exciton_eit``, rebinds the public names that
``exciton_eit.cli`` calls to span-recording wrappers from outside the
package, runs ``cli.main`` and writes the spans, with the process's own
first and last clock readings, to SPANS_OUT.  Exits with main's code.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402

CLI_NAMES = ("parse_config", "compute_spectrum", "sweep_control", "window_metrics",
             "level_table", "propagate_pulse", "write_csv", "write_json")


def main(spans_out: str, argv: list[str]) -> int:
    tracer = tracing.Tracer()
    with tracer.span("import.exciton_eit"):
        from exciton_eit import cli, susceptibility
    tracing.instrument(tracer, cli, CLI_NAMES)
    susceptibility.chi = tracer.count_points(susceptibility.chi)
    with tracer.span(f"cli.run_{argv[-1]}"):
        code = cli.main(argv)
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump({"t0": T0, "t_end": time.perf_counter(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
