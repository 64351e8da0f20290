"""The inputs of each workload, and the ``kgdelta`` command lines built from them.

A spec is plain JSON data so that the traced child process receives the
same inputs as the timed runs.  ``FULL`` is what the benchmark measures;
``TINY`` runs the same code paths in about a second per call and is
used by the benchmark's own tests.
"""

from __future__ import annotations

from checks import grid_values

#: The README grid: 97 x 81 = 7,857 cells.
FULL = {
    "scan": {
        "m": 1.0,
        "omega_min": -0.96,
        "omega_max": 0.96,
        "omega_step": 0.02,
        "kappa_min": -2.0,
        "kappa_max": 2.0,
        "kappa_step": 0.05,
    },
    # 441 oracle points, 100 closed-form cases, 462 identities, 20 residuals
    "validate": {"grid": 21, "sweep": 50},
    # 6,251 nodes x 6,250 steps, a record every 25 steps: stepping dominates
    "stable": {
        "m": 1.0, "omega": 0.6, "kappa": 0.1, "coupling": 1.0,
        "eps": 1e-3, "horizon": 50.0, "record_every": 25,
    },
    # 3,001 nodes x 1,875 steps, a record every step: diagnostics dominate
    "unstable": {
        "m": 1.0, "omega": 0.0, "kappa": 0.25, "coupling": 1.0,
        "eps": 1e-6, "horizon": 15.0, "record_every": 1,
    },
}

TINY = {
    "scan": {
        "m": 1.0,
        "omega_min": -0.96,
        "omega_max": 0.96,
        "omega_step": 0.16,
        "kappa_min": -2.0,
        "kappa_max": 2.0,
        "kappa_step": 0.25,
    },
    # at grid 3 the --perturb-q 1e-3 control is caught by the closed-form
    # sweep with 10 points; with 4 points the fault goes through unseen
    "validate": {"grid": 3, "sweep": 10},
    "stable": dict(FULL["stable"], horizon=4.0),
    # the unstable run must still reach its fit window, so only its grid is
    # coarsened: h = 0.05 instead of 0.02
    "unstable": dict(FULL["unstable"], grid_h=0.05),
}


def scan_argv(grid: dict, output: str, threads: int | None = None) -> list[str]:
    argv = [
        "scan",
        "-m", repr(grid["m"]),
        "--omega-min", repr(grid["omega_min"]),
        "--omega-max", repr(grid["omega_max"]),
        "--omega-step", repr(grid["omega_step"]),
        "--kappa-min", repr(grid["kappa_min"]),
        "--kappa-max", repr(grid["kappa_max"]),
        "--kappa-step", repr(grid["kappa_step"]),
        "-o", output,
    ]
    if threads is not None:
        argv += ["--threads", str(threads)]
    return argv


def scan_cells(grid: dict) -> int:
    omegas = grid_values(grid["omega_min"], grid["omega_max"], grid["omega_step"])
    kappas = grid_values(grid["kappa_min"], grid["kappa_max"], grid["kappa_step"])
    return len(omegas) * len(kappas)


def validate_argv(spec: dict, perturb_q: float | None = None) -> list[str]:
    argv = ["validate", "--grid", str(spec["grid"]), "--sweep", str(spec["sweep"])]
    if perturb_q is not None:
        argv += ["--perturb-q", repr(perturb_q)]
    return argv


def simulate_argv(run: dict, seed: int, prefix: str) -> list[str]:
    argv = [
        "simulate",
        "-m", repr(run["m"]),
        "-w", repr(run["omega"]),
        "-k", repr(run["kappa"]),
        "-g", repr(run["coupling"]),
        "--eps", repr(run["eps"]),
        "-T", repr(run["horizon"]),
        "--record-every", str(run["record_every"]),
        "--seed", str(seed),
        "-o", prefix,
    ]
    if "grid_h" in run:
        argv += ["--grid-h", repr(run["grid_h"])]
    return argv
