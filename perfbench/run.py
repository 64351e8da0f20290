#!/usr/bin/env python3
"""The kgdelta benchmark: scan, validate and simulate, timed through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kgdelta checkout (``src/kgdelta`` must exist there).
Workloads: ``region_scan``, ``cross_validate``, ``lattice_stable``,
``lattice_unstable``, or ``all`` to run each in turn.

With ``--trace 0`` a run first starts ``python3 -c "import kgdelta"`` a few
times (the set-up cost every CLI call pays), then repeats its workload's
``kgdelta`` command as a fresh process for ``--seconds`` seconds, each
after a calibration process, timing both and checking every output
against ``checks.py``.  With
``--trace 1`` it instead reads ``-X importtime`` and runs ``traced.py``,
which times the public functions of each module from outside.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Outputs go to
``.bench_runs/<workload>/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters started to time ``import kgdelta``; the median is reported.
SETUP_REPEATS = 5
#: ``-X importtime`` runs in a traced run; the median per module is reported.
IMPORTTIME_REPEATS = 5
#: A run ends within this many seconds, or it kills what it started and fails.
RUN_BUDGET_S = 170.0

#: A fixed job that does not touch kgdelta, timed as a fresh process right
#: before every timed call: the same imports kgdelta makes, scalar complex
#: arithmetic like the cubic pipeline, and small-array numpy like the lattice
#: and the oracle.  The machine this runs on is shared and its speed drifts
#: by 10-20% over minutes; dividing each call by the calibration next to it
#: cancels most of that drift (see README.md).
CALIBRATION = """
import cmath
import numpy as np, scipy.integrate, scipy.interpolate, scipy.linalg, scipy.optimize
s = 0j
for i in range(200000):
    z = complex(i % 97, 1.0)
    s += cmath.sqrt(z * z - 1.0)
a = np.linspace(0.0, 1.0, 3000)
for _ in range(2000):
    a = a + 0.5 * np.roll(a, 1) - 0.5 * a
"""

# metric names and units are defined once, in BENCHMARK.json
_DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _DEFINITION["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DEFINITION["per_layer"]}


class BenchError(RuntimeError):
    """The benchmark cannot run here; it prints no result."""


@dataclass
class Call:
    exit_code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    relative: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)

    def problem(self, lines: list[str]) -> None:
        for line in lines:
            if line not in self.problems and len(self.problems) < 40:
                self.problems.append(line)


class Runner:
    """Starts Python children with ``src`` on the path, each waited for in full."""

    def __init__(self, root: Path, workdir: Path, deadline: float) -> None:
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("KGDELTA_THREADS", None)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def python(self, args: list[str]) -> Call:
        """Run ``python3 ARGS`` to completion; wall time and peak RSS come from wait4."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before starting {args[:3]}")
        out_path = self.workdir / "child.stdout"
        err_path = self.workdir / "child.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.workdir, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise BenchError(f"{args[:3]} was killed after {wall:.1f} s")
        return Call(
            exit_code=proc.returncode,
            wall_s=wall,
            # ru_maxrss is in KiB on Linux
            maxrss_mb=usage.ru_maxrss * 1024 / 1e6,
            stdout=out_path.read_text(),
            stderr=err_path.read_text(),
        )

    def kgdelta(self, argv: list[str]) -> Call:
        return self.python(["-m", "kgdelta", *argv])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One timed ``kgdelta`` call per round, checked after it returns."""

    name = ""

    def __init__(self, spec: dict, seed: int, runner: Runner) -> None:
        self.spec = spec
        self.seed = seed
        self.runner = runner

    def prepare(self, tally: Tally) -> None:
        """Untimed reference runs and negative controls."""

    def round(self, tally: Tally) -> None:
        raise NotImplementedError

    def _timed(self, argv: list[str], tally: Tally) -> Call:
        calibration = self.runner.python(["-c", CALIBRATION])
        if calibration.exit_code != 0:
            raise BenchError(f"calibration failed: {calibration.stderr[-500:]}")
        call = self.runner.kgdelta(argv)
        tally.walls.append(call.wall_s)
        tally.relative.append(call.wall_s / calibration.wall_s)
        tally.rss.append(call.maxrss_mb)
        return call


class RegionScan(Workload):
    name = "region_scan"

    def prepare(self, tally: Tally) -> None:
        grid = self.spec["scan"]
        call = self.runner.kgdelta(workloads.scan_argv(grid, "serial.csv", threads=1))
        if call.exit_code != 0:
            tally.problem([f"serial reference scan exited {call.exit_code}: {call.stderr[-300:]}"])
            self.reference = b""
            return
        self.reference = (self.runner.workdir / "serial.csv").read_bytes()
        tally.problem(checks.check_scan_csv(self.reference.decode(), grid))

    def round(self, tally: Tally) -> None:
        grid = self.spec["scan"]
        cells = workloads.scan_cells(grid)
        call = self._timed(workloads.scan_argv(grid, "scan.csv"), tally)
        tally.attempted += cells
        if call.exit_code != 0:
            tally.failed += cells
            tally.problem([f"scan exited {call.exit_code}: {call.stderr[-300:]}"])
            return
        if (self.runner.workdir / "scan.csv").read_bytes() != self.reference:
            tally.problem(["parallel scan CSV differs from the serial one"])


class CrossValidate(Workload):
    name = "cross_validate"

    def prepare(self, tally: Tally) -> None:
        call = self.runner.kgdelta(workloads.validate_argv(self.spec["validate"], perturb_q=1e-3))
        tally.problem(checks.check_validate_negative(call.stdout, call.exit_code))

    def round(self, tally: Tally) -> None:
        spec = self.spec["validate"]
        call = self._timed(workloads.validate_argv(spec), tally)
        expected = checks.validate_expected_checks(spec["grid"], spec["sweep"])
        printed = checks.parse_validate(call.stdout)
        tally.attempted += sum(expected.values())
        tally.failed += sum(
            printed[name][2] if name in printed else count for name, count in expected.items()
        )
        tally.problem(checks.check_validate(call.stdout, call.exit_code, spec["grid"], spec["sweep"]))


class LatticeRun(Workload):
    run_name = ""

    def round(self, tally: Tally) -> None:
        run = self.spec[self.run_name]
        call = self._timed(workloads.simulate_argv(run, self.seed, self.run_name), tally)
        tally.attempted += 1
        if call.exit_code != 0:
            tally.failed += 1
            tally.problem([f"{self.run_name} simulate exited {call.exit_code}: {call.stderr[-300:]}"])
            return
        tally.problem(check_simulate_files(self.runner.workdir / self.run_name, run, self.seed))


class LatticeStable(LatticeRun):
    name = "lattice_stable"
    run_name = "stable"


class LatticeUnstable(LatticeRun):
    name = "lattice_unstable"
    run_name = "unstable"


def check_simulate_files(prefix: Path, run: dict, seed: int) -> list[str]:
    """Check the ``PREFIX.json`` summary and ``PREFIX.csv`` series of one run."""
    try:
        summary = json.loads(prefix.with_suffix(".json").read_text())
        series = prefix.with_suffix(".csv").read_text()
    except (OSError, ValueError) as exc:
        return [f"{prefix.name}: unreadable simulate output ({exc})"]
    return checks.check_simulate(summary, series, run, seed)


WORKLOADS = {w.name: w for w in (RegionScan, CrossValidate, LatticeStable, LatticeUnstable)}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def check_checkout(root: Path) -> None:
    if not (root / "src" / "kgdelta" / "__init__.py").is_file():
        raise BenchError(f"no kgdelta sources under {root / 'src'}; run from a kgdelta checkout")


def measure_setup(runner: Runner) -> float:
    """Median wall time of a fresh interpreter that imports kgdelta."""
    walls = []
    for _ in range(SETUP_REPEATS):
        call = runner.python(["-c", "import kgdelta, sys; sys.stdout.write(kgdelta.__file__)"])
        if call.exit_code != 0:
            raise BenchError(f"import kgdelta failed: {call.stderr[-500:]}")
        where = Path(call.stdout).resolve()
        if runner.root / "src" not in where.parents:
            raise BenchError(f"import kgdelta found {where}, not the checkout's src/")
        walls.append(call.wall_s)
    return statistics.median(walls)


def timed_run(workload: Workload, seconds: float) -> tuple[Tally, dict]:
    tally = Tally()
    setup_s = measure_setup(workload.runner)
    workload.prepare(tally)
    start = time.monotonic()
    while not tally.walls or time.monotonic() - start < seconds:
        workload.round(tally)
    metrics = {
        "setup_s": setup_s,
        "cli_rel": statistics.median(tally.relative),
        "peak_rss_mb": max(tally.rss),
    }
    print(f"{workload.name}: {len(tally.walls)} timed calls in {time.monotonic() - start:.1f} s; "
          f"median call {statistics.median(tally.walls):.4f} s")
    return tally, metrics


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import time in ms of each kgdelta module, from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if parts[2].split(".")[0] == "kgdelta" and parts[1].isdigit():
            out[parts[2]] = int(parts[1]) / 1e3
    return out


def traced_run(runner: Runner, seed: int, spec: dict) -> tuple[Tally, dict]:
    tally = Tally()
    metrics: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_REPEATS):
        call = runner.python(["-X", "importtime", "-c", "import kgdelta.cli"])
        if call.exit_code != 0:
            raise BenchError(f"import kgdelta.cli failed: {call.stderr[-500:]}")
        for module, ms in parse_importtime(call.stderr).items():
            samples.setdefault(module, []).append(ms)
    for module in ("model", "dispersion", "lattice"):
        metrics[f"{module}.import_ms"] = statistics.median(samples[f"kgdelta.{module}"])
    # kgdelta.cli's cumulative time holds the whole package it imports first;
    # report what the CLI module adds on top of ``import kgdelta``
    metrics["cli.import_ms"] = statistics.median(
        c - k for c, k in zip(samples["kgdelta.cli"], samples["kgdelta"]))

    call = runner.python([str(HERE / "traced.py"), "--spec", json.dumps(spec),
                          "--seed", str(seed), "--workdir", str(runner.workdir)])
    if call.exit_code != 0:
        raise BenchError(f"traced run exited {call.exit_code}: {call.stderr[-1500:]}")
    result = json.loads(call.stdout.splitlines()[-1])
    metrics.update(result["metrics"])
    codes = result["exit_codes"]

    try:
        check_traced_outputs(tally, runner.workdir, codes, seed, spec)
    except OSError as exc:
        tally.problem([f"traced run left no output: {exc}"])
    return tally, metrics


def check_traced_outputs(tally: Tally, out: Path, codes: dict, seed: int, spec: dict) -> None:
    """The traced calls' outputs pass the same checks as the timed runs."""
    grid = spec["scan"]
    cells = workloads.scan_cells(grid)
    for name in ("scan_untraced", "scan_traced", "scan_pool"):
        tally.attempted += cells
        if codes[name] != 0:
            tally.failed += cells
            tally.problem([f"{name} exited {codes[name]}"])
    reference = (out / "scan_untraced.csv").read_text()
    tally.problem(checks.check_scan_csv(reference, grid))
    for name in ("scan_traced.csv", "scan_pool.csv"):
        if (out / name).read_text() != reference:
            tally.problem([f"{name} differs from the untraced serial scan"])
    v = spec["validate"]
    for name in ("untraced", "traced"):
        text = (out / f"validate_{name}.txt").read_text()
        tally.attempted += sum(checks.validate_expected_checks(v["grid"], v["sweep"]).values())
        tally.failed += sum(s[2] for s in checks.parse_validate(text).values())
        tally.problem(checks.check_validate(text, codes[f"validate_{name}"], v["grid"], v["sweep"]))
    for run_name in ("stable", "unstable"):
        for mode in ("untraced", "traced"):
            prefix = out / f"{run_name}_{mode}"
            tally.attempted += 1
            if codes[f"{run_name}_{mode}"] != 0:
                tally.failed += 1
                tally.problem([f"{run_name}_{mode} simulate exited {codes[f'{run_name}_{mode}']}"])
                continue
            tally.problem(check_simulate_files(prefix, spec[run_name], seed))


def run_one(name: str, seed: int, seconds: float, trace: bool, spec: dict, root: Path) -> dict:
    """One benchmark run of one workload; returns the result object."""
    check_checkout(root)
    workdir = root / ".bench_runs" / name
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    runner = Runner(root, workdir, time.monotonic() + RUN_BUDGET_S)
    if trace:
        tally, metrics = traced_run(runner, seed, spec)
        units = PER_LAYER
    else:
        tally, metrics = timed_run(WORKLOADS[name](spec, seed, runner), seconds)
        units = END_TO_END
    for line in tally.problems:
        print(f"CHECK FAILED: {line}")
    for key, unit in units.items():
        print(f"{name}: {key} = {metrics[key]:.6g} {unit}")
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1, help="feeds simulate --seed")
    ap.add_argument("--seconds", type=float, default=20.0, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [
            run_one(name, args.seed, args.seconds, bool(args.trace), workloads.FULL, ROOT)
            for name in names
        ]
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
