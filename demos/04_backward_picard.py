"""Backward equation: stepwise recursion versus Picard iteration.

A scalar linear driver admits the closed form y_k = (1 + a dt)^-(n-k)
under the implicit stepwise scheme, which converges to e^-aT. Picard
iteration reaches the same fixed point; when the driver is too strong
for a global contraction, the horizon splits into windows solved from
the right and the diagnostics show the split.
"""

import numpy as np

from fermisde.algebra import CliffordElement, norm2
from fermisde.backward import Driver, residual, solve_picard, solve_stepwise
from fermisde.ito import TimeGrid
from fermisde.operators import GradedScalarOp


def scalar_driver(a):
    # f(k, y, Y) = a y, declared linear in y: the solvers work on rows
    return Driver(g1=abs(a), linear_y=lambda k: GradedScalarOp(a, 0.0))


a, T = 1.0, 1.0
print("== closed form, driver f(y) = y, terminal I ==")
for n in (16, 64, 256):
    grid = TimeGrid(T, n)
    yT = CliffordElement.identity(n)
    path = solve_stepwise(scalar_driver(a), grid, yT, mode="implicit")
    y0 = path.y[0].vacuum().real
    discrete = (1.0 + a * grid.dt) ** (-n)
    print(f"n = {n:3d}  y_0 = {y0:.8f}  closed-form gap = "
          f"{abs(y0 - discrete):.1e}  |y_0 - e^-1| = "
          f"{abs(y0 - np.exp(-1.0)):.2e}")

print("\n== Picard agrees with the stepwise fixed point ==")
grid = TimeGrid(T, 64)
yT = CliffordElement.identity(64)
stepwise = solve_stepwise(scalar_driver(a), grid, yT, mode="implicit")
picard, sweeps = solve_picard(scalar_driver(a), grid, yT)
gap = max(norm2(stepwise.y[k] - picard.y[k]) for k in range(65))
print(f"sweeps = {sweeps}  sup gap = {gap:.2e}")
print("diagnostics:", picard.diagnostics)

print("\n== strong driver: contraction windowing engages ==")
strong = scalar_driver(8.0)
path, sweeps = solve_picard(strong, grid, yT)
d = path.diagnostics
print(f"g1*T = 8: windows = {d['windows']}, per-window sweeps = "
      f"{d['window_sweeps']}, total = {sweeps}")
print("terminal-defect residual:", residual(path, strong, yT))
