"""Traced in-process run of the kgdelta calls behind every workload.

Run by ``run.py --trace 1`` as a child process with ``src`` on the path:

    python3 perfbench/traced.py --spec '<workloads spec JSON>' --seed N --workdir DIR

It wraps kgdelta's public functions at the module boundary (the names the
calling module looks up, e.g. ``kgdelta.cli.classify_point_spectrum`` and
``kgdelta.dispersion.candidate_roots``), drives the same ``kgdelta``
command lines as the timed runs through ``kgdelta.cli.main``, and computes
the per-layer metrics from the spans.  Spans stay in memory and are
written to ``DIR/trace_spans.json`` when the run ends.  The scan is traced
serially, because spans recorded in pool workers would be lost.  Each call
is also made untraced, and the difference is reported as the tracing
overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import workloads


class Tracer:
    """Spans (name, group, parent, start, end) and counters, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.groups: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.group = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_call=None):
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.groups.append(self.group)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.starts[idx] = start
                self.ends[idx] = end
            if on_call is not None:
                on_call(self, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch each ``(owner, attribute, span name, on_call)`` while inside."""
        saved = []
        try:
            for owner, attr, name, on_call in targets:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, on_call))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def count(self, key: str, amount: float) -> None:
        self.counts[(self.group, key)] += amount

    def spans(self, name: str, group: str) -> list[int]:
        return [i for i, (n, g) in enumerate(zip(self.names, self.groups)) if n == name and g == group]

    def duration(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def total(self, name: str, group: str) -> float:
        return sum(self.duration(i) for i in self.spans(name, group))

    def mean(self, name: str, group: str) -> float:
        idx = self.spans(name, group)
        return sum(self.duration(i) for i in idx) / len(idx)

    def mean_self(self, name: str, group: str, own: list[float]) -> float:
        idx = self.spans(name, group)
        return sum(own[i] for i in idx) / len(idx)

    def dump(self, path: str) -> None:
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        t0 = min(self.starts, default=0.0)
        rows = [
            [ids[n], g, p, round((s - t0) * 1e9), round((e - t0) * 1e9)]
            for n, g, p, s, e in zip(self.names, self.groups, self.parents, self.starts, self.ends)
        ]
        with open(path, "w") as fh:
            json.dump({"names": table, "columns": ["name", "group", "parent", "start_ns", "end_ns"],
                       "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")


class StampedOut:
    """A stdout stand-in that keeps the time each piece of text arrived."""

    def __init__(self) -> None:
        self.parts: list[tuple[float, str]] = []

    def write(self, text: str) -> int:
        self.parts.append((perf_counter(), text))
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(t for _, t in self.parts)

    def stamp_of(self, prefix: str) -> float:
        return next(t for t, s in self.parts if s.startswith(prefix))


def _count_candidates(tracer: Tracer, args, out) -> None:
    tracer.count("candidates", len(out))
    tracer.count("accepted", sum(1 for c in out if c.accepted))


def _count_node_updates(tracer: Tracer, args, out) -> None:
    tracer.count("node_updates", args[1].psi.size)


def targets(cli, dispersion, lattice) -> list[tuple]:
    """Every boundary the trace wraps: (owner, attribute, span name, on_call)."""
    lat = lattice.DefectLattice
    return [
        (cli, "write_scan_csv", "cli.write_scan_csv", None),
        (cli, "scan_rows", "cli.scan_rows", None),
        (cli, "classify_point_spectrum", "dispersion.classify_point_spectrum", None),
        (cli, "region_code_from_report", "cli.region_code_from_report", None),
        (cli, "cubic_data", "dispersion.cubic_data", None),
        (cli, "oracle_mismatches", "dispersion.oracle_mismatches", None),
        (dispersion, "candidate_roots", "dispersion.candidate_roots", _count_candidates),
        (dispersion, "cubic_data", "dispersion.cubic_data", None),
        (dispersion, "cubic_roots", "dispersion.cubic_roots", None),
        (dispersion, "accepted_roots", "dispersion.accepted_roots", None),
        (dispersion, "axis_scan_roots", "dispersion.axis_scan_roots", None),
        (dispersion, "brentq", "scipy.brentq", None),
        (dispersion, "sigma_ess_A", "spectra.sigma_ess_A", None),
        (dispersion, "zero_jordan_structure", "spectra.zero_jordan_structure", None),
        (dispersion, "stability_verdict", "spectra.stability_verdict", None),
        (lattice, "solve_amplitude", "model.solve_amplitude", None),
        (lat, "discrete_stationary", "lattice.discrete_stationary", None),
        (lat, "step", "lattice.step", _count_node_updates),
        (lat, "energy", "lattice.energy", None),
        (lat, "charge", "lattice.charge", None),
        (lat, "orbital_distance", "lattice.orbital_distance", None),
        (lat, "run_experiment", "lattice.run_experiment", None),
        (lattice.RunReport, "write_csv", "lattice.write_csv", None),
    ]


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one.

    The traced-minus-untraced difference is only as good as the machine's
    run-to-run noise; this figure times the wrapper alone.
    """
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    elapsed = []
    for fn in (noop, wrapped):
        start = perf_counter()
        for _ in range(calls):
            fn()
        elapsed.append(perf_counter() - start)
    return (elapsed[1] - elapsed[0]) / calls


def _call(cli, argv: list[str], out) -> tuple[int, float]:
    with contextlib.redirect_stdout(out):
        start = perf_counter()
        code = cli.main(argv)
        wall = perf_counter() - start
    return code, wall


def run(spec: dict, seed: int, workdir: str) -> dict:
    import kgdelta.cli as cli
    import kgdelta.dispersion as dispersion
    import kgdelta.lattice as lattice

    full = targets(cli, dispersion, lattice)
    top = [t for t in full if t[2] in ("cli.write_scan_csv", "cli.scan_rows")]
    tracer = Tracer()
    light = Tracer()
    metrics: dict[str, float] = {}
    codes: dict[str, int] = {}
    untraced = traced = 0.0

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    log = open(path("traced_stdout.txt"), "w")
    try:
        # -- region scan: serial, once with top-level spans only, once traced,
        # then through the pool at two workers
        grid = spec["scan"]
        light.group = "serial"
        with light.installed(top):
            codes["scan_untraced"], wall = _call(cli, workloads.scan_argv(grid, path("scan_untraced.csv"), 1), log)
        untraced += wall
        tracer.group = "scan"
        with tracer.installed(full):
            codes["scan_traced"], wall = _call(cli, workloads.scan_argv(grid, path("scan_traced.csv"), 1), log)
        traced += wall
        light.group = "pool"
        with light.installed(top):
            codes["scan_pool"], _ = _call(cli, workloads.scan_argv(grid, path("scan_pool.csv"), 2), log)

        # -- validate: the suite boundaries come from when each result line
        # is printed, in the untraced call
        argv = workloads.validate_argv(spec["validate"])
        plain = StampedOut()
        start = perf_counter()
        codes["validate_untraced"], wall = _call(cli, argv, plain)
        untraced += wall
        tracer.group = "validate"
        stamped = StampedOut()
        with tracer.installed(full):
            codes["validate_traced"], wall = _call(cli, argv, stamped)
        traced += wall
        for name, out in (("untraced", plain), ("traced", stamped)):
            with open(path(f"validate_{name}.txt"), "w") as fh:
                fh.write(out.text())

        # -- the two lattice runs
        for run_name in ("stable", "unstable"):
            codes[f"{run_name}_untraced"], wall = _call(
                cli, workloads.simulate_argv(spec[run_name], seed, path(f"{run_name}_untraced")), log)
            untraced += wall
            tracer.group = "lattice"
            with tracer.installed(full):
                codes[f"{run_name}_traced"], wall = _call(
                    cli, workloads.simulate_argv(spec[run_name], seed, path(f"{run_name}_traced")), log)
            traced += wall
    finally:
        log.close()

    own = tracer.self_times()
    cells = workloads.scan_cells(grid)

    # scan layers
    g = "scan"
    n_classify = len(tracer.spans("dispersion.classify_point_spectrum", g))
    closed = sum(tracer.total(n, g) for n in (
        "spectra.sigma_ess_A", "spectra.zero_jordan_structure", "spectra.stability_verdict"))
    candidates = tracer.counts[(g, "candidates")]
    metrics["spectra.closed_forms_us"] = 1e6 * closed / n_classify
    metrics["dispersion.cubic_data_us"] = 1e6 * tracer.mean("dispersion.cubic_data", g)
    metrics["dispersion.cubic_roots_us"] = 1e6 * tracer.mean("dispersion.cubic_roots", g)
    metrics["dispersion.candidate_roots_us"] = 1e6 * tracer.mean_self("dispersion.candidate_roots", g, own)
    metrics["dispersion.classify_self_us"] = 1e6 * tracer.mean_self("dispersion.classify_point_spectrum", g, own)
    metrics["dispersion.candidates_per_point"] = candidates / len(tracer.spans("dispersion.candidate_roots", g))
    metrics["dispersion.accepted_ratio"] = tracer.counts[(g, "accepted")] / candidates
    metrics["cli.region_code_from_report_us"] = 1e6 * tracer.mean("cli.region_code_from_report", g)
    serial = light.total("cli.scan_rows", "serial")
    metrics["cli.scan_rows_serial_cells_per_s"] = cells / serial
    metrics["cli.scan_pool_speedup"] = serial / light.total("cli.scan_rows", "pool")
    metrics["cli.csv_write_ms"] = 1e3 * (light.total("cli.write_scan_csv", "serial") - serial)
    metrics["cli.csv_bytes"] = os.path.getsize(path("scan_untraced.csv"))

    # validate layers
    g = "validate"
    metrics["dispersion.axis_scan_roots_ms"] = 1e3 * tracer.mean("dispersion.axis_scan_roots", g)
    metrics["dispersion.oracle_brackets_per_point"] = len(tracer.spans("scipy.brentq", g)) / len(
        tracer.spans("dispersion.axis_scan_roots", g))
    metrics["dispersion.oracle_mismatches_self_ms"] = 1e3 * tracer.mean_self("dispersion.oracle_mismatches", g, own)
    bounds = [start] + [plain.stamp_of(s + ":") for s in (
        "oracle-root-agreement", "closed-form-special-cases", "algebraic-identities", "virtual-level-residuals")]
    for key, a, b in zip(("oracle", "closed_forms", "identities", "virtual_levels"), bounds, bounds[1:]):
        metrics[f"cli.validate_{key}_s"] = b - a

    # lattice layers
    g = "lattice"
    step_total = tracer.total("lattice.step", g)
    records = len(tracer.spans("lattice.energy", g))
    record_total = sum(tracer.total(n, g) for n in ("lattice.energy", "lattice.charge", "lattice.orbital_distance"))
    run_total = tracer.total("lattice.run_experiment", g)
    metrics["model.solve_amplitude_us"] = 1e6 * tracer.mean("model.solve_amplitude", g)
    with open(path("stable_traced.json")) as fh:
        metrics["lattice.n_points"] = json.load(fh)["n_points"]
    metrics["lattice.discrete_stationary_ms"] = 1e3 * tracer.mean("lattice.discrete_stationary", g)
    metrics["lattice.step_us"] = 1e6 * tracer.mean("lattice.step", g)
    metrics["lattice.step_ns_per_node"] = 1e9 * step_total / tracer.counts[(g, "node_updates")]
    metrics["lattice.record_us"] = 1e6 * record_total / records
    metrics["lattice.step_share"] = step_total / run_total
    metrics["lattice.run_experiment_s"] = run_total
    metrics["lattice.write_csv_ms"] = 1e3 * tracer.mean("lattice.write_csv", g)

    metrics["trace.untraced_s"] = untraced
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    metrics["trace.spans"] = len(tracer.names)
    metrics["trace.span_cost_us"] = 1e6 * span_cost()
    tracer.dump(path("trace_spans.json"))
    return {"metrics": metrics, "exit_codes": codes}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True, help="workloads spec as JSON")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    result = run(json.loads(args.spec), args.seed, args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
