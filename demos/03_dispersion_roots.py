"""Root hunting on the four-sheet cover of the dispersion determinant.

Eigenvalues of the linearization are the roots of a determinant D(lambda)
built from two square-root exponents, each with its own branch cut on the
imaginary axis.  Only roots with both exponents decaying (the physical
sheet) are eigenvalues; the cubic reduction that eliminates the radicals
also manufactures spurious roots that live on the other sheets.  This script
shows the full audit trail at a few revealing parameter points and
cross-checks the pipeline against a dense sign-scan of the determinant
restricted to the spectral axes.
"""

import numpy as np

from kgdelta import (
    D_eval,
    ModelParams,
    accepted_roots,
    axis_scan_roots,
    candidate_roots,
    classify_point_spectrum,
    cubic_data,
    oracle_mismatches,
    virtual_level_frequency,
)


def show(p: ModelParams) -> None:
    cd = cubic_data(p)
    print(f"--- m={p.m}, omega={p.omega}, kappa={p.kappa}")
    print(f"    cubic: c={cd.c:.5g}, p={cd.p:.5g}, q={cd.q:.5g}, delta={cd.delta:.5g}")
    for cand in candidate_roots(p):
        tag = "ACCEPT" if cand.accepted else "reject"
        sheet = cand.sheet.label() if cand.sheet else "off-all-sheets"
        print(
            f"    {tag}  lambda = {cand.lam:+.6f}  sheet {sheet}  "
            f"|D|/scale = {cand.residual / cand.scale:.1e}  (x = {cand.x:.4g})"
        )
    rep = classify_point_spectrum(p)
    pts = ", ".join(f"{e.value:.5g}{' emb' if e.embedded else ''}" for e in rep.points.entries)
    print(f"    point spectrum: {{{pts}}}  virtual: {list(rep.virtual_levels)}  flags: {rep.flags}")


# hardening coupling at rest: a real pair, plus a mixed-sheet resonance
show(ModelParams(1.0, 0.0, 1.0))
print(f"    physical-sheet D at the spurious sqrt(2): {D_eval(ModelParams(1, 0, 1), 2**0.5):.4f}\n")

# softening coupling: the pair is imaginary, inside the spectral gap
show(ModelParams(1.0, 0.0, -0.25))
print()

# on the virtual-level curve: the pair sits exactly at the gap threshold
show(ModelParams(1.0, virtual_level_frequency(1.0, 0.5), 0.5))
print()

# decoupled line kappa = 0: embedded pair at +-2i omega
show(ModelParams(1.0, 0.5, 0.0))

# independent oracle: dense scan along the real axis and the gap
print("\ncross-check against the dense axis scan (21 random points):")
rng = np.random.default_rng(1)
bad = 0
for _ in range(21):
    p = ModelParams(1.0, rng.uniform(-0.9, 0.9), rng.uniform(-1.9, 1.9))
    issues = oracle_mismatches(p, accepted_roots(p))
    bad += bool(issues)
print(f"  disagreements: {bad}/21")

p = ModelParams(1.0, 0.3, 0.8)
real_roots, gap_roots = axis_scan_roots(p)
print(f"  example scan at (0.3, 0.8): real-axis roots {real_roots}, gap roots {gap_roots}")
p = ModelParams(1.0, 0.55, 0.28)
real_roots, gap_roots = axis_scan_roots(p)
print(f"  example scan at (0.55, 0.28): real-axis roots {real_roots}, gap roots {gap_roots}")
