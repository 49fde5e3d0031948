"""cli-cold: fresh CLI processes on the default working point.

One operation is one launch of ``python -m exciton_eit.cli --format both
--out <tmp> --config <default> <command>``; the four commands run
round-robin and a round of all four is the unit the scenario metrics
time.  Launches run one at a time (one client, closed loop).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import scenarios
import speed

COMMANDS = ("spectrum", "sweep", "levels", "propagate")
LAUNCH_TIMEOUT_S = 120


class ColdRun:
    """Launches, checks and, when traced, the spans of one cli-cold run."""

    def __init__(self, root: Path, env: dict, tmp: Path, seed: int):
        self.root, self.env, self.tmp, self.seed = root, env, tmp, seed
        self.config_text = scenarios.render()
        self.config = tmp / "default.cfg"
        self.config.write_text(self.config_text, encoding="utf-8")
        self.first_digest: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[list] = []
        self.spans: list[dict] = []
        self.probes: list[float] = []

    def launch(self, command: str, round_index: int, traced: bool) -> float | None:
        """One fresh process; returns its wall time, or None if it failed."""
        tag = f"{'t' if traced else 'u'}{round_index:04d}-{command}"
        out = self.tmp / tag
        argv = ["--config", str(self.config), "--format", "both", "--out", str(out), command]
        spans_file = self.tmp / f"{tag}.spans.json"
        if traced:
            cmd = [sys.executable, str(self.root / "bench" / "launch.py"), str(spans_file), *argv]
        else:
            cmd = [sys.executable, "-m", "exciton_eit.cli", *argv]
        self.attempted += 1
        self.probes.append(speed.probe())
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=LAUNCH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.failures.append([tag, [f"no exit within {LAUNCH_TIMEOUT_S} s"]])
            return None
        done = time.perf_counter()
        failures = self._check(command, proc, out)
        if traced and proc.returncode == 0:
            self._merge_spans(spans_file, round_index, start, done)
        shutil.rmtree(out, ignore_errors=True)
        if failures:
            self.failures.append([tag, failures])
            return None
        return done - start

    def _check(self, command: str, proc, out: Path) -> list[str]:
        if proc.returncode != 0 or "Traceback" in proc.stderr:
            return [f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
        try:
            digest = checks.digest(out)
            first = self.first_digest.setdefault(command, digest)
            failures = [] if digest == first else ["output bytes differ from the first launch"]
            return failures + checks.cli_outputs(command, out, self.config_text)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _merge_spans(self, spans_file: Path, round_index: int, start: float, done: float):
        doc = json.loads(spans_file.read_text())
        offset = len(self.spans)
        for s in doc["spans"]:
            s["id"] += offset
            if s["parent"] is not None:
                s["parent"] += offset
            s["op"] = round_index
            self.spans.append(s)
        # interpreter start-up before the launcher's first statement, and
        # teardown after it wrote its spans
        for name, a, b in (("launch.startup", start, doc["t0"]),
                           ("launch.exit", doc["t_end"], done)):
            self.spans.append({"id": len(self.spans), "name": name, "op": round_index,
                               "parent": None, "start": a, "end": b, "counts": {}})

    def rounds(self, seconds: float, traced: bool = False):
        """Run whole rounds until ``seconds`` pass.

        With ``traced``, each launch is paired with a traced launch of the
        same command, alternating which goes first, so drift in machine
        speed cancels from the tracing overhead.  Returns untraced and
        traced round times (None for a round with a failed launch) and
        the untraced launch times per command.
        """
        plain, with_spans = [], []
        by_command = {c: [] for c in COMMANDS}
        start = time.perf_counter()
        r = 0
        while time.perf_counter() - start < seconds:
            walls = {False: [], True: []}
            for k, command in enumerate(scenarios.cli_order(self.seed, r, COMMANDS)):
                sides = ((False, True) if (r + k) % 2 == 0 else (True, False)) if traced else (False,)
                for side in sides:
                    wall = self.launch(command, r, side)
                    walls[side].append(wall)
                    if wall is not None and not side:
                        by_command[command].append(wall)
            plain.append(None if None in walls[False] else sum(walls[False]))
            if traced:
                with_spans.append(None if None in walls[True] else sum(walls[True]))
            r += 1
        return plain, with_spans, by_command
