"""
Root data and the dominance order
=================================

Build root data, pair weights with coweights, and explore the partial
order on coweights that indexes everything else in the library.
"""

from satkit import make_root_datum, Dominance

# GL(n) lives on Z^n with roots e_i - e_j; simple types use the adjoint
# realization (simple roots = standard basis vectors).
gl3 = make_root_datum("GL(3)")
print("datum:", gl3.label)
print("positive roots:", gl3.positive_roots)
print("2rho =", gl3.two_rho)

# The pairing of a root with a coweight is a plain dot product here.
print("<2rho, (1,1,0)> =", gl3.pairing(gl3.two_rho, (1, 1, 0)))

# Dominance: lam <= mu when mu - lam is a nonnegative sum of simple coroots.
print("(1,1,1) <= (2,1,0)?", gl3.dominance_leq((1, 1, 1), (2, 1, 0)))
print("(2,1,0) <= (1,1,1)?", gl3.dominance_leq((2, 1, 0), (1, 1, 1)))

# Coweights whose difference leaves the coroot lattice live on different
# connected components and are incomparable by fiat, not by error.
verdict = gl3.dominance_leq((0, 0, 0), (1, 0, 0))
assert verdict is Dominance.INCOMPARABLE_COMPONENTS
print("(0,0,0) vs (1,0,0):", verdict.value)

# Every coweight has a unique dominant representative in its Weyl orbit,
# reached by a reduced word of simple reflections, applied left to right.
mu, word = gl3.dominant_representative((0, 1, 2))
print("dominant representative of (0,1,2):", mu, "via word", word,
      f"(length {len(word)})")
print("orbit of (1,1,0):", sorted(gl3.weyl_orbit((1, 1, 0))))

# The finite set of dominant coweights below a given one, by cell dimension.
print("dominant coweights below (3,0,0):", gl3.dominant_below((3, 0, 0)))
