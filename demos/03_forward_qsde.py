"""Controlled forward equation: Euler scheme, growth bound, spikes.

The state picks up one new generator per step through the noise term,
so exact solves grow wide; the optional relative prune keeps long
horizons tractable and reports what it dropped. Spike variations
replace the control on a short window and feed the variational ladder.
"""

from fermisde.algebra import norm2
from fermisde.catalog import build
from fermisde.control import cost, solve_state
from fermisde.forward import apriori_check, spike, spike_window
from fermisde.ito import AdaptedProcess

problem, grid = build("lq_scalar", n_steps=16, x0_scale=1.0)
ubar = AdaptedProcess.constant_scalar(grid, 0.3)

path = solve_state(problem, ubar)
terminal = path[grid.n_steps]
print("== baseline solve, n =", grid.n_steps, "==")
print("terminal ||x||_2 :", norm2(terminal))
print("terminal words   :", terminal.n_terms)
print("diagnostics      :", path.diagnostics)
growth = apriori_check(path, problem.x0)
print("a priori growth  :", {k: round(v, 4) if isinstance(v, float) else v
                             for k, v in growth.items()})

print("\n== terminal statistics under dt refinement ==")
previous = None
for steps in (16, 32, 64):
    prob_f, grid_f = build("lq_scalar", n_steps=steps, x0_scale=1.0)
    u_f = AdaptedProcess.constant_scalar(grid_f, 0.3)
    value = norm2(solve_state(prob_f, u_f)[steps])
    gap = "" if previous is None else f"  gap = {abs(value - previous):.2e}"
    print(f"steps = {steps:3d}  ||x_T||_2 = {value:.8f}{gap}")
    previous = value

print("\n== spike variation ==")
eps, offset = 0.25, 0.5
alt = AdaptedProcess.constant_scalar(grid, -0.9)
spiked = spike(ubar, alt, eps, offset)
k0, k1 = spike_window(grid, eps, offset)
print(f"window: steps [{k0}, {k1}) of {grid.n_steps}")
print("cost(ubar)   :", cost(problem, ubar))
print("cost(spiked) :", cost(problem, spiked))
for e in (0.25, 0.125, 0.0625):
    d = cost(problem, spike(ubar, alt, e, offset)) - cost(problem, ubar)
    print(f"eps = {e:7.4f}  cost change = {d:+.6f}")
