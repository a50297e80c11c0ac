"""Closed-form geometry of Schubert cells in the affine Grassmannian.

Everything here is an integer-valued calculator on coweights: cell
dimensions, closure strata, parity, minuscule tests, opposite-cell
codimension, cycle dimensions in semi-infinite intersections, and the
semismall upper bound for convolution fibers.
"""

from __future__ import annotations

from .errors import EmptyFiber, EmptyIntersection, InternalInconsistency
from .root_datum import RootDatum, Vec, _vadd, _vsub
from . import weyl_rep


def _half(n: int, what: str) -> int:
    if n % 2:
        raise InternalInconsistency(f"<2rho, {what}> = {n} is odd")
    return n // 2


def schubert_dim(datum: RootDatum, mu: Vec) -> int:
    """Dimension <2rho, mu> of the cell attached to a dominant coweight."""
    datum.require_dominant(mu)
    return datum.height2(mu)


def closure_cells(datum: RootDatum, mu: Vec) -> tuple[Vec, ...]:
    """All dominant lam <= mu (the strata of the closure), sorted by dimension:
    the memoized tuple of ``dominant_below``."""
    datum.require_dominant(mu)
    return datum.dominant_below(mu)


def parity(datum: RootDatum, mu: Vec) -> str:
    """'even' or 'odd' according to <2rho, mu>; constant on components."""
    datum.require_dominant(mu)
    return "odd" if datum.height2(mu) % 2 else "even"


def is_minuscule(datum: RootDatum, mu: Vec) -> bool:
    """mu != 0 with <alpha, mu> <= 1 for every positive root alpha."""
    datum.require_dominant(mu)
    if all(x == 0 for x in mu):
        return False
    return all(datum.pairing(a, mu) <= 1 for a in datum.positive_roots)


def is_quasi_minuscule(datum: RootDatum, mu: Vec) -> bool:
    """mu != 0, not minuscule, with <alpha, mu> <= 2 for every positive root.

    Such a coweight is the short dominant coroot, so coroot membership is
    part of the test; this keeps central translates of it from qualifying.
    """
    datum.require_dominant(mu)
    if all(x == 0 for x in mu) or is_minuscule(datum, mu):
        return False
    if mu not in datum.coroots:
        return False
    return all(datum.pairing(a, mu) <= 2 for a in datum.positive_roots)


def parabolic_flag_dim(datum: RootDatum, mu: Vec) -> int:
    """dim G/P_mu = number of roots pairing positively with mu."""
    datum._check(mu)   # a ShapeError even when there are no roots to pair
    return sum(1 for a in datum.roots if datum.pairing(a, mu) > 0)


def opposite_codim(datum: RootDatum, mu: Vec) -> int:
    """Codimension <2rho, mu> - dim G/P_mu of the opposite Schubert variety."""
    datum.require_dominant(mu)
    codim = datum.height2(mu) - parabolic_flag_dim(datum, mu)
    if codim < 0:
        raise InternalInconsistency(f"negative opposite codimension for {mu}")
    return codim


def mv_cycle_dim(datum: RootDatum, lam: Vec, mu: Vec) -> int:
    """Dimension <rho, lam + mu> of the cycles in S_lam within the closure of
    the mu-cell; requires lam^+ <= mu."""
    datum.require_dominant(mu)
    lam_plus, _ = datum.dominant_representative(lam)
    if not datum.leq(lam_plus, mu):
        raise EmptyIntersection(f"t^{lam} does not lie in the closure for mu={mu}")
    return _half(datum.height2(_vadd(lam, mu)), "lam+mu")


def satake_fiber_dim_bound(datum: RootDatum, mu_list: list[Vec], lam: Vec) -> int:
    """Semismall bound <rho, |mu.| - lam> on convolution-fiber dimension."""
    datum.require_dominant(lam, "lam")
    total = (0,) * datum.dim
    for mu in mu_list:
        datum.require_dominant(mu)
        total = _vadd(total, mu)
    if not datum.leq(lam, total):
        raise EmptyFiber(f"lam={lam} is not below |mu.|={total}")
    return _half(datum.height2(_vsub(total, lam)), "|mu.|-lam")


def mv_basis_table(datum: RootDatum, mu: Vec) -> list[tuple[Vec, int, int]]:
    """Rows (lam, cycle dimension, component count) over the weights of L_mu.

    The component count is the weight multiplicity, so the counts sum to
    dim L_mu.  Rows are sorted by decreasing dimension, then lexicographically.
    """
    datum.require_dominant(mu)
    mults = weyl_rep.weight_multiplicities(datum, mu)
    h2 = datum.height2(mu)   # every lam here has lam^+ <= mu
    rows = [(lam, _half(datum.height2(lam) + h2, "lam+mu"), m)
            for lam, m in mults.items()]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def mv_basis_table_json(datum: RootDatum, mu: Vec) -> list[dict]:
    return [{"lambda": list(lam), "dim": dim, "count": count}
            for lam, dim, count in mv_basis_table(datum, mu)]
