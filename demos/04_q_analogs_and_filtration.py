"""
q-analogs of weight multiplicities, two ways
============================================

The alternating Weyl sum over the q-Kostant partition function, checked
against an explicit principal-nilpotent filtration built inside tensor
powers of the standard representation.
"""

from satkit import make_root_datum
from satkit import weyl_rep as wr

gl3 = make_root_datum("GL(3)")

# The q-analog of the Kostant partition function counts expressions as
# sums of positive coroots, graded by length.
for beta in [(0, 0, 0), (1, -1, 0), (1, 0, -1), (2, -1, -1)]:
    print(f"P_q{beta} =", wr.q_kostant_partition(gl3, beta))

# Weight multiplicities and their q-analogs for the adjoint-type weight.
mu = (2, 1, 0)
print(f"\nweights of L_{mu}:")
mults = wr.weight_multiplicities(gl3, mu)
for lam in gl3.dominant_below(mu):
    m = wr.lusztig_q_analog(gl3, mu, lam)
    a = wr.ic_stalk_polynomial(gl3, mu, lam)
    print(f"  lam={lam}: multiplicity {mults[lam]}, m = {m}, stalk a = {a}")

# The same grading read off of an explicit module: generate L_mu by
# lowering operators from its highest-weight vector, the tensor product of
# one wedge e_0 ^ ... ^ e_(c-1) per column of mu, then filter each weight
# space by kernels of powers of N = sum of raising operators.
print("\nexplicit filtration oracle agrees:")
for lam in gl3.dominant_below(mu):
    bk = wr.bk_oracle(gl3, mu, lam)
    m = wr.lusztig_q_analog(gl3, mu, lam)
    status = "ok" if bk == m else "MISMATCH"
    print(f"  lam={lam}: {bk}  [{status}]")

# Setting q = 1 recovers plain multiplicities; the stalk polynomial always
# has constant term 1 and reverses the grading within <rho, mu - lam>.
assert all(wr.lusztig_q_analog(gl3, mu, lam)(1) == mults[lam]
           for lam in gl3.dominant_below(mu))
print("\nq = 1 specialization: exact")
