"""The irrbase benchmark: run a workload through the CLI, check every output, print metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's steps run as ``python -m irrbase``
subprocesses from the checkout's ``src``, one at a time (a closed loop with one
client), in passes until ``--seconds`` would be exceeded (at least one pass).
Every child runs on one CPU next to the speed probe (speed.py), and each
invocation's time is its wall time without the probe's share, scaled to the
probe's reference speed.  A step's time is the median of its invocations; the
end-to-end metrics are:

    wall_s        summed time of every invocation of a pass, median over passes
    chain_s       time to a self-verified certificate on disk, summed over chain steps
    verify_s      time to a verdict, summed over verify steps
    oracle_s      time to an exact mibs value, summed over oracle steps
    setup_s       median of several runs of setup_probe.py: interpreter start, import
                  irrbase and every group construction the workload's invocations pay
    peak_rss_mib  largest per-child peak RSS, from os.wait4
    ok_frac       share of attempted invocations with the right exit code and output

With ``--trace 1`` the same steps run in-process through the library with
spans (see tracing.py), and the metrics are the per-layer ones.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  With ``--trace 0`` the line before it is a JSON object
``{"raw_wall": {...}}`` with the five time metrics computed the same way from
unscaled wall times.  Problems found by the correctness gate go to standard error.
Work files live under ``.bench_work/`` in the checkout and are removed at the
end; the traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from speed import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
UNITS = {"wall_s": "s", "chain_s": "s", "verify_s": "s", "oracle_s": "s", "setup_s": "s",
         "peak_rss_mib": "MiB", "ok_frac": "ratio"}


def time_metrics(steps: list, times: dict, pass_walls: list, setup_s: float) -> dict:
    """The five time metrics from per-step invocation times and per-pass totals."""
    med = {label: statistics.median(ts) for label, ts in times.items()}

    def total(kind):
        return sum(med[s.label] for s in steps if isinstance(s, kind))

    return {"wall_s": statistics.median(pass_walls), "chain_s": total(wl.Chain),
            "verify_s": total(wl.Verify), "oracle_s": total(wl.Oracle), "setup_s": setup_s}


class CliRun:
    """The untraced run: every step through the CLI, checked as it completes."""

    def __init__(self, steps: list, work: Path, seed: int, env: dict, probe: SpeedProbe):
        self.steps, self.work, self.seed, self.env, self.probe = steps, work, seed, env, probe
        self.times = {step.label: [] for step in steps}  # scaled to the reference speed
        self.raw_walls = {step.label: [] for step in steps}
        self.pass_walls = []  # (scaled, raw) summed over a pass's invocations
        self.peak_rss_mib = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_output = {}  # label -> bytes of pass 0, which later passes must repeat
        self.certs = {}  # chain label -> certificate text

    def _outputs(self, step, inv) -> tuple:
        """(problems, output text that must repeat across passes)."""
        if isinstance(step, wl.Chain):
            text = (self.work / f"{step.label}.json").read_text()
            if step.label not in self.certs:
                self.certs[step.label] = text
                for v in self.steps:
                    if isinstance(v, wl.Verify) and v.chain == step:
                        wl.prepare_verify_input(v, self.work, text, self.seed)
            return wl.check_chain(step, text), text
        if isinstance(step, wl.Verify):
            orders = wl.certificate_orders(self.certs[step.chain.label])
            return wl.check_verify_report(step.label, inv.rc, inv.stdout, orders), inv.stdout
        problems = wl.check_oracle_stdout(step, inv.stdout)
        if not step.out:
            return problems, inv.stdout
        witness = step.witness_path(self.work).read_text()
        return problems + wl.check_witness(step, witness), inv.stdout + witness

    def run_pass(self) -> None:
        """Every step once in order, then further rounds of the steps that repeat."""
        pass_s = pass_raw = 0.0
        for round_index in range(max(step.repeats for step in self.steps)):
            for step in self.steps:
                if round_index < step.repeats:
                    scaled, raw = self._invoke(step)
                    self.times[step.label].append(scaled)
                    self.raw_walls[step.label].append(raw)
                    pass_s += scaled
                    pass_raw += raw
        self.pass_walls.append((pass_s, pass_raw))

    def _invoke(self, step) -> tuple:
        """One checked invocation; returns (time at the reference speed, wall time)."""
        before = self.probe.snapshot()
        inv = wl.run_cli(step.argv(self.work), self.env, self.work)
        scaled = self.probe.scale(before, self.probe.snapshot(), inv.wall_s)
        self.attempted += 1
        self.peak_rss_mib = max(self.peak_rss_mib, inv.peak_rss_mib)
        if inv.rc != 0:
            problems = [f"{step.label}: exit {inv.rc}: {inv.stderr.strip()[-300:]}"]
        else:
            try:
                problems, output = self._outputs(step, inv)
            except (OSError, ValueError, KeyError, TypeError) as e:
                problems, output = [f"{step.label}: unreadable output ({e!r})"], None
            if self.first_output.setdefault(step.label, output) != output:
                problems.append(f"{step.label}: output differs from the first invocation")
        self._fail(problems)
        return scaled, inv.wall_s

    def _fail(self, problems: list) -> None:
        if problems:
            self.failed += 1
            self.problems += problems

    def verify_witnesses(self) -> None:
        """Every witness written by the oracle must pass ``irrbase verify`` (untimed)."""
        for step in self.steps:
            if isinstance(step, wl.Oracle) and step.out and step.label in self.first_output:
                path = step.witness_path(self.work)
                inv = wl.run_cli(["verify", str(path)], self.env, self.work)
                self.attempted += 1
                try:
                    orders = wl.certificate_orders(path.read_text())
                except (OSError, ValueError, KeyError, TypeError) as e:
                    self._fail([f"{step.label}: unreadable witness ({e!r})"])
                    continue
                self._fail(wl.check_verify_report(f"{step.label} witness", inv.rc, inv.stdout,
                                                  orders))

    def setup_s(self) -> tuple:
        """(scaled, raw) median time of SETUP_REPEATS runs of setup_probe.py."""
        specs = [c for step in self.steps for c in wl.setup_constructions(step, self.work)]
        cmd = [sys.executable, str(BENCH / "setup_probe.py"), json.dumps(specs)]
        scaled, raw = [], []
        for _ in range(SETUP_REPEATS):
            before = self.probe.snapshot()
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=self.env, cwd=self.work, capture_output=True,
                                  text=True, timeout=wl.STEP_TIMEOUT_S)
            raw.append(time.perf_counter() - t0)
            scaled.append(self.probe.scale(before, self.probe.snapshot(), raw[-1]))
            if proc.returncode != 0:
                self.problems.append(f"setup probe failed: {proc.stderr.strip()[-300:]}")
        return statistics.median(scaled), statistics.median(raw)

    def metrics(self) -> tuple:
        """(end-to-end metrics, the time metrics from unscaled wall times)."""
        setup_s, setup_raw = self.setup_s()
        scaled = time_metrics(self.steps, self.times, [p[0] for p in self.pass_walls], setup_s)
        raw = time_metrics(self.steps, self.raw_walls, [p[1] for p in self.pass_walls],
                           setup_raw)
        return {**scaled, "peak_rss_mib": self.peak_rss_mib,
                "ok_frac": 1 - self.failed / self.attempted}, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "irrbase" / "__init__.py").is_file():
        print(f"no irrbase sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS or args.seed < 0 or args.seconds <= 0:
        print(f"workload must be one of {sorted(wl.WORKLOADS)}; seed >= 0; seconds > 0",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    steps = wl.WORKLOADS[args.workload]
    env = wl.cli_env(SRC, args.seed)
    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl.write_generator_files(work, args.seed)
        if args.trace:
            import tracing

            values, attempted, failed, problems = tracing.measure(
                steps, work, args.seed, args.seconds, env,
                work_root / f"trace-{args.workload}-seed{args.seed}.json")
            metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in values.items()}
        else:
            probe = SpeedProbe(work)
            try:
                run = CliRun(steps, work, args.seed, env, probe)
                wl.run_passes(run.run_pass, args.seconds)
                run.verify_witnesses()
                values, raw = run.metrics()
            finally:
                probe.close()
            attempted, failed, problems = run.attempted, run.failed, run.problems
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
            raw_wall = {k: {"value": v, "unit": UNITS[k]} for k, v in raw.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(problem, file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:12} {name:36} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        for name, m in raw_wall.items():
            print(f"{args.workload:12} {'raw ' + name:36} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps({"raw_wall": raw_wall}))
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
