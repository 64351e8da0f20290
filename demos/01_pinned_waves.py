"""Pinned solitary waves: amplitudes, profiles, and conserved quantities.

A complex Klein-Gordon field on the line, driven by a nonlinear oscillator
sitting at the origin, carries standing waves phi(x) e^{-i omega t} whose
profile decays like C e^{-kap|x|}.  This script walks the basic bookkeeping:
how the amplitude balances the derivative jump at the defect, what charge
and energy the wave carries, and when the charge slope flips sign (which is
what decides orbital stability).
"""

import numpy as np

from kgdelta import (
    ModelParams,
    PowerLaw,
    SolitaryWave,
    charge_and_slope,
    effective_kappa,
    solve_amplitude,
)

nl = PowerLaw(g=1.0, kappa=0.25)
print("coupling: a(tau) = tau^0.25\n")

print(f"{'omega':>8} {'decay':>8} {'C':>10} {'charge':>10} {'dQ/domega':>11} {'energy':>10}")
for omega in np.linspace(0.0, 0.9, 10):
    p = ModelParams(m=1.0, omega=float(omega), kappa=0.25)
    c = solve_amplitude(nl, p)
    q, slope = charge_and_slope(nl, p)
    wave = SolitaryWave(params=p, C=c)
    print(
        f"{omega:8.2f} {p.decay_rate:8.4f} {c:10.5f} {q:10.5f} {slope:11.5f} "
        f"{wave.energy(nl):10.5f}"
    )

print(
    "\nThe slope changes sign where kappa = omega^2/m^2 "
    f"(here at |omega| = {0.25**0.5}): negative slope <=> orbitally stable."
)

# the amplitude equation is a(C^2) = 2*kap; check the residual directly
p = ModelParams(m=1.0, omega=0.6, kappa=0.25)
c = solve_amplitude(nl, p)
print(f"\namplitude residual |a(C^2) - 2 kap| = {abs(nl.a(c * c) - p.alpha):.2e}")
print(f"effective exponent from the coupling: {effective_kappa(nl, c)} (stored 0.25)")

# sampled profile around the defect: even, kinked at x = 0
xs = np.linspace(-2.0, 2.0, 9)
wave = SolitaryWave(params=p, C=c)
print("\nprofile samples on [-2, 2]:")
print(np.array2string(wave.profile(xs).real, precision=5))
