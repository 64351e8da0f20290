"""Map of the (omega, kappa) parameter plane by point-spectrum content.

Every cell of the plane falls into one of six classes: no nonzero
eigenvalues, a real pair (exponential instability), an imaginary pair in the
spectral gap, an embedded imaginary pair (only on the decoupled line
kappa = 0), or one of the two boundary classes sitting on the critical
curves.  The scanner runs serially and vectorized: it classifies blocks of
cells as numpy arrays, sends the few it cannot decide with margin to the
scalar classifier, and writes a deterministic CSV.  Here we also collapse
the map to a quick text picture and, if matplotlib is importable, save a
figure with the two critical curves overlaid.
"""

import collections
import os
import tempfile

import numpy as np

from kgdelta.cli import ScanConfig, write_scan_csv
from kgdelta.dispersion import virtual_level_exponent

GLYPH = {
    "ZeroOnly": ".",
    "RealPair": "R",
    "ImaginaryPair": "i",
    "EmbeddedPair": "E",
    "KolokolovCritical": "K",
    "VirtualLevelBoundary": "V",
}

cfg = ScanConfig(
    m=1.0,
    omega_min=-0.96,
    omega_max=0.96,
    omega_step=0.04,
    kappa_min=-1.5,
    kappa_max=1.5,
    kappa_step=0.1,
)
out = os.path.join(tempfile.gettempdir(), "kgdelta_region_map.csv")
write_scan_csv(cfg, out)
print(f"wrote {out}")

cells = {}
counts = collections.Counter()
with open(out) as fh:
    for line in fh:
        if line.startswith("#") or line.startswith("omega"):
            continue
        parts = line.split(",")
        cells[(float(parts[0]), float(parts[1]))] = parts[2]
        counts[parts[2]] += 1

print("cell counts:", dict(counts))
print("\nkappa runs top (1.5) to bottom (-1.5); omega runs left (-0.96) to right (0.96)")
for k in reversed(cfg.kappas()):
    print("".join(GLYPH[cells[(w, k)]] for w in cfg.omegas()))

print(
    "\nR = real pair (unstable), i = imaginary pair, E = embedded pair,\n"
    ". = zero only, K/V = on a critical curve."
)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    colors = {"ZeroOnly": 0, "ImaginaryPair": 1, "EmbeddedPair": 2, "RealPair": 3,
              "KolokolovCritical": 4, "VirtualLevelBoundary": 5}
    omegas, kappas = cfg.omegas(), cfg.kappas()
    img = np.array([[colors[cells[(w, k)]] for w in omegas] for k in kappas])
    fig, ax = plt.subplots(figsize=(8, 5))
    ax.pcolormesh(omegas, kappas, img, cmap="viridis", shading="nearest")
    ws = np.linspace(-0.96, 0.96, 400)
    ax.plot(ws, ws**2, "w-", lw=1.2, label="pair collision kappa = omega^2")
    ax.plot(ws, [virtual_level_exponent(1.0, w) for w in ws], "w--", lw=1.2,
            label="virtual-level curve")
    ax.set_xlabel("omega")
    ax.set_ylabel("kappa")
    ax.set_ylim(-1.5, 1.5)
    ax.legend(loc="lower right", fontsize=8)
    fig.tight_layout()
    png = os.path.join(tempfile.gettempdir(), "kgdelta_region_map.png")
    fig.savefig(png, dpi=130)
    print(f"figure saved to {png}")
except ImportError:
    print("matplotlib not available; skipped the figure")
