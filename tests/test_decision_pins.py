"""SHA-256 pins of the classifier's decisions and the accepted roots at seeded points.

Each pin hashes one line per point: ``classify_point_spectrum``'s region,
the ``float.hex`` of each nonzero eigenvalue and the flags, or the type and
message of the exception it raises; ``accepted_roots``; and
``accepted_cells`` in blocks.  The points are seeded draws at ``m = 1`` and
``m = 2.5`` over the regimes where the pick of the eigenvalue pair and the
dedupe of accepted roots decide something: uniform points, small ``|kappa|``,
both critical curves, ``omega -> m``, the ``kappa = -1`` shell, the line
``kappa = 0``, the virtual-level curve's end at ``|omega| = m/3``, the triple
root at ``(0, -1/2)`` and huge ``|kappa|``, up to where the cubic overflows.
A pin moves only when a decision or a bit of a value does; a change meant
to move one re-pins it and says which.  No point drawn here raises the
asymmetric-pick or the stray-root error; ``TestClassification`` in
``test_dispersion.py`` gives each its own case.
"""

import functools
import hashlib
import math
import random

import pytest

from kgdelta import ModelParams, accepted_roots, classify_point_spectrum, virtual_level_exponent
from kgdelta.dispersion import accepted_cells

#: Points per regime and mass.
_N = 500


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _sign(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0))


def _regimes(rng: random.Random):
    """``(omega/m, kappa)`` generators, one per regime."""
    def uniform():
        return rng.uniform(-0.999, 0.999), rng.uniform(-3.0, 3.0)

    def small_kappa():
        return rng.uniform(-0.999, 0.999), _sign(rng) * _log_uniform(rng, 1e-12, 1e-2)

    def kolokolov():
        w = rng.uniform(-0.999, 0.999)
        return w, w * w + _sign(rng) * _log_uniform(rng, 1e-13, 1e-1)

    def virtual_level():
        w = rng.uniform(-0.999, 0.999)
        return w, virtual_level_exponent(1.0, w) + _sign(rng) * _log_uniform(rng, 1e-13, 1e-1)

    def near_mass():
        return _sign(rng) * (1.0 - _log_uniform(rng, 1e-13, 1e-1)), rng.uniform(-2.0, 3.0)

    def kappa_minus_one():
        return rng.uniform(-0.999, 0.999), -1.0 + _sign(rng) * _log_uniform(rng, 1e-13, 1e-5)

    def kappa_zero():
        return rng.uniform(-0.999, 0.999), 0.0

    def third():
        return _sign(rng) / 3.0, rng.choice((0.0, 1e-11, -1e-11))

    def triple_root():
        return _sign(rng) * _log_uniform(rng, 1e-13, 1e-2), -0.5 + _sign(rng) * _log_uniform(rng, 1e-13, 1e-2)

    def huge_kappa():
        return rng.uniform(-0.999, 0.999), _sign(rng) * _log_uniform(rng, 1e2, 1e26)

    return (uniform, small_kappa, kolokolov, virtual_level, near_mass, kappa_minus_one, kappa_zero, third,
            triple_root, huge_kappa)


def _points() -> list[ModelParams]:
    rng = random.Random(20261020)
    points = []
    for m in (1.0, 2.5):
        for draw in _regimes(rng):
            for _ in range(_N):
                w, k = draw()
                points.append(ModelParams(m, m * w, k))
    return points


POINTS = _points()


def _hex(values) -> str:
    return " ".join(f"{z.real.hex()},{z.imag.hex()}" for z in values)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _classified(p: ModelParams) -> str:
    try:
        rep = classify_point_spectrum(p)
    except Exception as exc:  # the outcome pinned, whatever it is
        return _failure(exc)
    return f"{rep.region.value} [{_hex(rep.nonzero_values())}] {'|'.join(rep.flags)}"


def _roots(p: ModelParams) -> str:
    try:
        return _hex(accepted_roots(p))
    except Exception as exc:
        return _failure(exc)


@functools.lru_cache(maxsize=1)
def _outcomes() -> tuple[str, ...]:
    return tuple(map(_classified, POINTS))


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_points_cover_every_outcome():
    outcomes = _outcomes()
    kinds = {line.split(" ")[0] for line in outcomes}
    assert {"RealPair", "ImaginaryPair", "EmbeddedPair", "ZeroOnly", "KolokolovCritical",
            "VirtualLevelBoundary", "ClassificationError:", "CubicOverflow:"} <= kinds
    assert any("no accepted" in line for line in outcomes)
    for flag in ("near-threshold", "zero-cluster", "on-cut-resonance"):
        assert any(flag in line for line in outcomes), flag


def test_classify_point_spectrum_pin():
    assert _digest(_outcomes()) == CLASSIFY_PIN


def test_accepted_roots_pin():
    assert _digest(map(_roots, POINTS)) == ROOTS_PIN


@pytest.mark.parametrize("m", [1.0, 2.5])
def test_accepted_cells_pin(m):
    # cells whose cubic overflows raise in accepted_roots, and so fail their whole block
    cells = [p for p in POINTS if p.m == m and "Overflow" not in _roots(p)]
    lines = []
    for i in range(0, len(cells), 256):
        block = cells[i:i + 256]
        lines.extend(map(_hex, accepted_cells(m, [p.omega for p in block], [p.kappa for p in block])))
    assert _digest(lines) == CELLS_PIN[m]


CLASSIFY_PIN = "0b4e8694d03b12b52f8abbf1076f849f78b63c58982028434b4fcbf5f8b2efa0"
ROOTS_PIN = "66f18a3d088235da7fb8783a12c03442280f668dc7c3150c015805b2d7b21650"
CELLS_PIN = {
    1.0: "36e0a3f1cf1d7fca7f8cad078a132ccae0a1e5fbe29cd5a3558e12810ce9a6a2",
    2.5: "d371122849d9d4b075689fb9390c482932cc9f5c4f3e7079973824a79beca24e",
}
