"""Tour of the exact Clifford arithmetic layer.

Generators square to the identity and anticommute, the vacuum state is
tracial, and the conditional expectation onto the first k generators is
an orthogonal projection. Everything here is exact integer-mask
arithmetic; the matrix representation only enters as a cross-check.
"""

import numpy as np

from fermisde.algebra import (
    CliffordElement,
    cond_expect,
    jw_rep,
    lp_norm,
    norm2,
    pairing,
    random_element,
)

n = 6
g = [CliffordElement.generator(n, k) for k in range(n)]

print("== canonical anticommutation, n =", n, "==")
worst = 0.0
for j in range(n):
    for k in range(n):
        anti = g[j] * g[k] + g[k] * g[j]
        want = CliffordElement.scalar(n, 2.0 if j == k else 0.0)
        worst = max(worst, norm2(anti - want))
print("worst |{g_j, g_k} - 2 delta I| :", worst)

x = (g[0] * g[1]).scale(0.5) + g[2].scale(1.0j) + CliffordElement.scalar(n, 2.0)
print("\nx =", x)
print("x* =", x.adjoint())
print("grading(x) flips odd words:", x.grading())
print("vacuum m(x) =", x.vacuum())

print("\n== pairing and norms ==")
rng = np.random.default_rng(1)
a = random_element(rng, n)
b = random_element(rng, n)
print("<a, b>            =", pairing(a, b))
print("conj <b, a>       =", np.conj(pairing(b, a)))
for p in (1.0, 2.0, np.inf):
    print(f"||a||_{p:<3} =", lp_norm(a, p))

print("\n== conditional expectation ==")
word = g[0] * g[1] * g[4]
print("E[g0 g1 g4 | first 3]   =", cond_expect(word, 3), "(generator 4 killed)")
print("E[g0 g1    | first 3]   =", cond_expect(g[0] * g[1], 3))
proj = cond_expect(a, 3)
print("idempotent residual     =", norm2(cond_expect(proj, 3) - proj))
print("orthogonality <a-Ea,Ea> =", abs(pairing(a - proj, proj)))

print("\n== matrix cross-check ==")
rep = jw_rep(n)
ma, mb = rep.matrix(a), rep.matrix(b)
print("|rep(a b) - rep(a) rep(b)|_max =", np.abs(rep.matrix(a * b) - ma @ mb).max())
print("trace state equals vacuum      =", abs(np.trace(ma) / rep.d - a.vacuum()))
