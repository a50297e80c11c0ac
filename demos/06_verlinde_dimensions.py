"""
Verlinde dimensions as exact integers
=====================================

The SL_n trigonometric sum evaluated exactly in the cyclotomic integers
Z[w]/Phi_4h(w), h = n + m: every non-constant coefficient must cancel and
the result must be a positive integer, so the residual is exactly 0.
"""

from satkit.verlinde import (VerlindeQuery, genus_one_dimension,
                             level_one_ade, verlinde_sl, verlinde_sl_report)

# A genus-2 table for SL_2 at increasing level.
print("SL_2, genus 2:")
for m in range(1, 6):
    report = verlinde_sl_report(VerlindeQuery(2, 2, m))
    print(f"  level {m}: dim = {report['dimension']}"
          f"  (residual {report['residual']:.1e})")

# Genus one counts level weights, a closed-form cross-check.
for n in (2, 3, 4):
    for m in (1, 2, 3):
        assert verlinde_sl(VerlindeQuery(n, 1, m)) == genus_one_dimension(n, m)
print("\ngenus-one cross-check: exact")

# At level one the answer is the g-th power of the center order; for E_8
# the center is trivial, so there is a single section in every genus.
print("level one, genus 3:")
for label in ("A1", "A2", "D4", "E6", "E7", "E8"):
    print(f"  {label}: {level_one_ade(label, 3)}")

# Genus 0 has a single block at any level.
assert all(verlinde_sl(VerlindeQuery(3, 0, m)) == 1 for m in range(1, 5))
print("\ngenus-zero normalization: 1 at every level")
