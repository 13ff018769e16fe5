"""Quantum illumination walk-through: from correlations to a displacement.

A two-mode squeezed probe interrogates a weakly reflecting target buried
in bright thermal noise.  Heterodyning every return mode and recombining
the idlers turns the surviving cross-correlation into a single-mode
displacement, so the whole M-mode detection problem collapses to one
binary test between a thermal state and a displaced thermal state.

Run:  python3 demos/target_detection.py        (~2 s)
"""

import math

from entsense.conversion import conversion_params
from entsense.discrimination import (
    c2d_exponent_bounds,
    lemma1_upper_bound,
    nair_gu_bound,
    p_c2d,
    p_classical_coherent,
)
from entsense.gaussian import ChannelParams
from entsense.receivers import opar_pe, pcr_pe, pe_homodyne

NS, CH = 1e-3, ChannelParams(kappa=0.01, theta=0.0, n_b=20.0)

params = conversion_params(NS, CH)
print("Probe brightness       :", NS)
print("Channel                : kappa=0.01, N_B=20")
print(f"Per-mode conversion xi : {params.xi:.4e}")
print(f"Residual thermal noise : {params.e_noise:.4e}")
print()
print("The converted displacement grows linearly with the mode count M,")
print("so the error probability falls exponentially — at twice the rate")
print("any classical transmitter of the same brightness can reach:")
print()

exps = c2d_exponent_bounds(NS, CH)
print(f"  conversion exponent (per mode) >= {exps.r_c2d_lb:.4e}")
print(f"  best classical exponent           {exps.r_cs:.4e}")
print(f"  ratio ~ {exps.r_c2d_lb / exps.r_cs:.2f}  (-> 4, i.e. 6 dB, in the weak-signal limit)")
print()

header = f"{'M':>9} {'lower bnd':>11} {'P_c2d':>11} {'upper bnd':>11} {'classical':>11}"
print(header)
for m in (10**5, 10**6, 3 * 10**6, 10**7):
    row = (
        nair_gu_bound(NS, CH, m),
        p_c2d(NS, CH, m),
        lemma1_upper_bound(NS, CH, m),
        p_classical_coherent(NS, CH, m),
    )
    print(f"{m:>9d} " + " ".join(f"{v:>11.4e}" for v in row))
print()

m = 10**6
print(f"Practical receivers at M = {m}:")
print(f"  conversion limit   {p_c2d(NS, CH, m):.4f}")
print(f"  phase conjugation  {pcr_pe(NS, CH, m):.4f}")
print(f"  parametric amp     {opar_pe(NS, CH, m):.4f}")
classical = pe_homodyne(math.sqrt(CH.kappa * m * NS / (2.0 * CH.n_b + 1.0)))
print(f"  classical homodyne {classical:.4f}")
print()
print("The slicing receiver closes the remaining gap; see the 'figures")
print("--which 7a' CLI preset for its Monte-Carlo curve.")
