#! python3

"""Truncation behavior of the quasi-periodic Green's function.

The spectral sum combines each propagating/evanescent order pair so the
summand decays like |alpha_n|^-3.  On the column x = 0 the kernel adds the
orders past the window in closed form (a Kummer/zeta tail), so a short
window is already converged there, on the source line and off it.  On the
source line at x != 0 no closed form applies and the full algebraic tail
matters, which is why the policy keeps a long window n_self for that case.
Off the line (y != 0) the exponential factors kill the sum after a handful
of orders.  This script prints the three behaviours side by side, then
shows the light-line guard rejecting an evaluation where an order grazes
its light line.
"""

import numpy as np

from pinstacks.errors import LightLineProximity
from pinstacks.greens import SpectralPoint, TruncationPolicy, greens

POINT = SpectralPoint(alpha0=1.2, beta=2.7)
WINDOWS = (100, 200, 400, 800, 1600, 3200)


def on_line_tail():
    print("on the source line (y = 0): tail-corrected at x = 0, algebraic "
          "tail at x = 0.37 d")
    ref_0 = greens(POINT, 0.0, 0.0, n_terms=25_600)
    ref_x = greens(POINT, 0.37, 0.0, n_terms=25_600)
    print(f"  {'N':>6}  {'x = 0: |G_N - G_ref|':>20}  "
          f"{'x = 0.37: |G_N - G_ref|':>23}  decay slope")
    previous = None
    for n in WINDOWS:
        err_0 = abs(greens(POINT, 0.0, 0.0, n_terms=n) - ref_0)
        err_x = abs(greens(POINT, 0.37, 0.0, n_terms=n) - ref_x)
        slope = "" if previous is None else f"{np.log2(err_x / previous):+9.2f}"
        print(f"  {n:>6}  {err_0:20.3e}  {err_x:23.3e}  {slope}")
        previous = err_x
    default = abs(greens(POINT, 0.0, 0.0) - ref_0)
    print(f"  default window at x = 0 (n_far plus the tail): "
          f"|G - G_ref| = {default:.3e}")
    print("  (x = 0 sits at the rounding floor for every N; at x = 0.37 "
          "doubling N divides\n   the error by ~8: cubic summand decay)\n")


def off_line_windows():
    print("off the source line (y = 0.8 d): exponential cut-off")
    reference = greens(POINT, 0.2, 0.8, n_terms=2000)
    for n in (5, 10, 20, 40):
        err = abs(greens(POINT, 0.2, 0.8, n_terms=n) - reference)
        print(f"  N = {n:>3}: |G_N - G_ref| = {err:.3e}")
    print("  (a 20-term window already sits at the round-off floor)\n")


def light_line_guard():
    print("light-line guard")
    beta = 2.0 * np.pi          # order n = -1 satisfies |alpha_n| = beta
    try:
        greens(SpectralPoint(0.0, beta), 0.1, 0.0)
    except LightLineProximity as exc:
        print(f"  beta = 2 pi rejected: {exc}")
    ok = greens(SpectralPoint(0.0, 6.28), 0.1, 0.0)
    print(f"  beta = 6.28 (clear of the line): G = {ok:.6e}")


if __name__ == "__main__":
    policy = TruncationPolicy()
    print(f"default policy: n_far = {policy.n_far} (off the line, and at "
          f"x = 0 plus the closed-form tail),\n"
          f"                n_self = {policy.n_self} (on the line at x != 0)\n")
    on_line_tail()
    off_line_windows()
    light_line_guard()
