"""Representation theory of the dual group, in coweight coordinates.

Irreducibles are indexed by dominant coweights of the base datum.  The dual
root system is the coroot system, so the half-sum entering every formula
here is the half-sum of positive coroots, handled throughout in doubled
(2rho) coordinates with evenness assertions instead of rational arithmetic.
The weights of L_mu are the W-orbits of the dominant lam <= mu, walked once
into a map from each weight to its dominant conjugate, which the Freudenthal
recursion reads instead of straightening its ray points.

Lusztig's q-analogs sum the q-Kostant partition function P_q over a walk
down one regular Weyl orbit that carries sign(w).  P_q is read from one
dense table per datum, filled as an unbounded knapsack over a box of coroot
coordinates and refilled over the coordinatewise max of the old and new
boxes when a query leaves it.  Table fills, the Freudenthal recursion and
tensor products estimate their work first and raise TooLarge over budget.

The Brylinski-Kostant oracle at the end builds modules explicitly inside
tensor powers of the standard representation (type A only), each generated
by lowering operators from the tensor product of its column wedges, and
exists to verify the q-analog computations independently.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from operator import add, gt, mul, sub
from types import MappingProxyType

from .errors import DomainError, InternalInconsistency, TooLarge, UnsupportedType
from .polynomials import QPoly
from .root_datum import RootDatum, Vec, _vadd, _vscale, _vsub

_BLOCK_KEY_BUDGET = 5_000_000  # most block keys an explicit module may use
_BK_DIM_CAP = 3000  # largest dim L_mu that bk_oracle builds explicitly
_KOSTANT_WORK_BUDGET = 25_000_000  # coefficient additions in one table fill
_DIM_BUDGET = 2_000_000  # largest module whose weights or summands we compute
_RAY_BUDGET = 5_000_000  # Freudenthal ray lookups, estimated before the walk


def _form(datum: RootDatum, x: Vec, y: Vec) -> int:
    g = datum.gram
    return sum(x[i] * sum(g[i][j] * y[j] for j in range(datum.dim))
               for i in range(datum.dim))


def weight_multiplicities(datum: RootDatum, mu: Vec) -> MappingProxyType[Vec, int]:
    """All weights of the dual-group irreducible L_mu with multiplicities: the
    ``_freudenthal`` memo's mapping, walked once the estimates admit it."""
    if (dim := dim_rep(datum, mu)) > _DIM_BUDGET:
        raise TooLarge(f"dim L_mu = {dim} exceeds budget {_DIM_BUDGET}")
    # a ray runs along a root string of L_mu: at most 1 + <alpha, mu> weights
    steps = len(datum.dominant_below(mu)) * len(datum.positive_coroots) * (
        1 + max((datum.pairing(a, mu) for a in datum.positive_roots), default=0))
    if steps > _RAY_BUDGET:
        raise TooLarge(f"Freudenthal ray walk {steps} > budget {_RAY_BUDGET}")
    return _freudenthal(datum, mu)


@lru_cache(maxsize=32)
def _freudenthal(datum: RootDatum, mu: Vec) -> MappingProxyType[Vec, int]:
    """The Freudenthal recursion over dominant weights, as a read-only
    mapping: ``where`` maps each weight to its dominant conjugate, and a ray
    point outside it has left the weight polytope."""
    dom = sorted(datum.dominant_below(mu), key=datum.height2, reverse=True)
    where = {nu: lam for lam in dom for nu in datum.weyl_orbit(lam)}
    # the ray term B(nu, beta) is nu . (B beta), B beta once per coroot
    rays = [(beta, tuple(sum(map(mul, row, beta)) for row in datum.gram))
            for beta in datum.positive_coroots]
    rho2 = datum.two_rho_check
    mults: dict[Vec, int] = {mu: 1}
    top2 = _vadd(_vscale(2, mu), rho2)
    norm_top = _form(datum, top2, top2)
    for lam in dom[1:]:
        acc = 0
        for beta, b_beta in rays:
            nu = _vadd(lam, beta)
            while (rep := where.get(nu)) is not None:
                acc += mults[rep] * sum(map(mul, nu, b_beta))
                nu = _vadd(nu, beta)
        lam2 = _vadd(_vscale(2, lam), rho2)
        denom = norm_top - _form(datum, lam2, lam2)
        if denom <= 0:
            raise InternalInconsistency(f"Freudenthal denominator {denom} at {lam}")
        m, rem = divmod(8 * acc, denom)
        if rem or m <= 0:
            raise InternalInconsistency(f"Freudenthal gives {8 * acc}/{denom} at {lam}")
        mults[lam] = m
    return MappingProxyType({nu: mults[lam] for nu, lam in where.items()})


def weight_multiplicity(datum: RootDatum, mu: Vec, lam: Vec) -> int:
    """Multiplicity of the weight lam in L_mu (0 if absent)."""
    return weight_multiplicities(datum, mu).get(lam, 0)


def dim_rep(datum: RootDatum, mu: Vec) -> int:
    """Dimension of L_mu by the Weyl product formula, evaluated exactly."""
    datum.require_dominant(mu)
    rho2 = datum.two_rho_check
    top = _vadd(_vscale(2, mu), rho2)
    num = 1
    den = 1
    for a in datum.positive_roots:
        num *= datum.pairing(a, top)
        den *= datum.pairing(a, rho2)
    if num % den:
        raise InternalInconsistency(f"Weyl dimension {num}/{den} not integral")
    return num // den


def tensor_decompose(datum: RootDatum, lam: Vec, mu: Vec) -> dict[Vec, int]:
    """Multiplicities of each L_nu inside L_lam (x) L_mu.

    Implements the rho-shifted reflection rule: every weight of L_lam is
    shifted by mu plus the half-sum of positive coroots, straightened to the
    dominant chamber with a sign, and walls are discarded.
    """
    datum.require_dominant(lam, "lam")
    dim = dim_rep(datum, lam) * dim_rep(datum, mu)
    if dim > _DIM_BUDGET:
        raise TooLarge(f"dim L_lam (x) L_mu = {dim} exceeds budget {_DIM_BUDGET}")
    rho2 = datum.two_rho_check
    acc: dict[Vec, int] = {}
    for nu_p, m in weight_multiplicities(datum, lam).items():
        t2 = _vadd(_vadd(_vscale(2, nu_p), _vscale(2, mu)), rho2)
        rep2, word = datum.dominant_representative(t2)
        if any(datum.pairing(a, rep2) == 0 for a in datum.simple_roots):
            continue   # lies on a wall: the term cancels
        diff = _vsub(rep2, rho2)
        if any(x % 2 for x in diff):
            raise InternalInconsistency(f"odd straightened weight {rep2}")
        nu = tuple(x // 2 for x in diff)
        acc[nu] = acc.get(nu, 0) + (-1) ** len(word) * m
    out = {nu: c for nu, c in acc.items() if c}
    for nu, c in out.items():
        if c < 0:
            raise InternalInconsistency(f"negative tensor multiplicity {c} at {nu}")
    return out


def q_kostant_partition(datum: RootDatum, beta: Vec) -> QPoly:
    """q-analog of the Kostant partition function over positive coroots:
    the generating polynomial of expressions beta = sum n_gamma gamma weighted
    by q^(sum n_gamma).  Zero if beta has no such expression; P_q(0) = 1."""
    coords = datum.coroot_coordinates(beta)
    if coords is None or any(c < 0 for c in coords):
        return QPoly.ZERO
    _, strides, cells = _kostant_cells(datum, coords)
    return QPoly(cells[sum(map(mul, coords, strides))])


@lru_cache(maxsize=16)
def _kostant_table(datum: RootDatum) -> list:
    """datum's q-Kostant table, first over the cell at 0; it grows in place."""
    return _kostant_fill(datum, (0,) * datum.rank)


def _kostant_cells(datum: RootDatum, box: Vec) -> list:
    """datum's table, refilled first if it does not cover box: over the max
    of its box and box, or over box alone when that max is over budget."""
    table = _kostant_table(datum)
    if any(map(gt, box, table[0])):
        try:
            table[:] = _kostant_fill(datum, tuple(map(max, box, table[0])))
        except TooLarge:
            table[:] = _kostant_fill(datum, box)
    return table


def _kostant_fill(datum: RootDatum, box: Vec) -> list:
    """[box, strides, cells], cells the row-major coefficient lists of P_q
    on [0, box]: P[x] += q P[x - gamma], one positive coroot at a time.  The
    work, |Phi+| adds per coefficient, is bounded before the fill starts."""
    size = math.prod(b + 1 for b in box)
    work = len(datum.positive_coroots) * size * (2 + sum(box)) // 2
    if work > _KOSTANT_WORK_BUDGET:
        raise TooLarge(f"q-Kostant table over {list(box)}: work estimate "
                       f"{work} exceeds budget {_KOSTANT_WORK_BUDGET}")
    strides = tuple(math.prod(b + 1 for b in box[i + 1:])
                    for i in range(len(box)))
    cells = [[1]] + [[] for _ in range(size - 1)]
    for g in datum.positive_coroot_coordinates:
        off = sum(map(mul, g, strides))
        targets = [0]
        for lo, hi, s in zip(g, box, strides):
            targets = [t + x * s for t in targets for x in range(lo, hi + 1)]
        for t in targets:
            src, dst = cells[t - off], cells[t]
            if src and dst:
                n = len(src) + 1
                dst += [0] * (n - len(dst))
                dst[1:n] = map(add, dst[1:n], src)
            elif src:   # an empty cell takes q P[t - off] by one copy
                cells[t] = [0, *src]
    return [box, strides, cells]


def lusztig_q_analog(datum: RootDatum, mu: Vec, lam: Vec) -> QPoly:
    """The q-analog m_{mu,lam}(q) of the weight multiplicity, by the
    alternating Weyl sum of q-Kostant partition values
    sum_w sign(w) P_q(w(mu+rho) - (lam+rho)).

    The point 2(mu+rho) is regular, so w is determined by v = w(2(mu+rho)).
    The walk goes down this orbit from the dominant point: from v, each
    simple reflection s_i with <alpha_i, v> > 0 lowers v by a multiple of
    alpha_i^vee and lengthens w by one, so sign(w) flips at each step.  Only
    points v with v - 2(lam+rho) in the positive coroot cone have a nonzero
    term, and that set is closed upward, so the walk expands only those and
    still reaches every one.  Their arguments lie in [0, gap], gap the
    coroot coordinates of mu - lam, and the walk carries each one's index in
    the datum's dense q-Kostant table.  A table not covering [0, gap] is
    refilled over the coordinatewise max of its box and gap, or over gap
    alone when that max is over budget: a fill whose work (|Phi+| times its
    coefficients) is over ``_KOSTANT_WORK_BUDGET`` raises TooLarge first.

    Specializes to the Freudenthal multiplicity at q = 1; returns the zero
    polynomial unless lam <= mu (in particular across coroot cosets).
    """
    datum.require_dominant(mu)
    datum.require_dominant(lam, "lam")
    gap = datum.coroot_coordinates(_vsub(mu, lam))
    if gap is None or any(c < 0 for c in gap):
        return QPoly.ZERO
    box, strides, cells = _kostant_cells(datum, gap)
    simple = list(zip(datum.simple_roots, datum.simple_coroots, strides, box))
    top2 = _vadd(_vscale(2, mu), datum.two_rho_check)
    top = sum(map(mul, gap, strides))
    acc = list(cells[top])   # the top term, w = 1; no later term is longer
    stack = [(top2, top, 1)]   # an orbit point, its term's index, sign(w)
    seen = {top2}
    while stack:
        v, idx, sign = stack.pop()
        if idx != top:
            term = cells[idx]
            acc[:len(term)] = map(add if sign > 0 else sub, acc, term)
        for a, av, s, b in simple:
            k = sum(map(mul, a, v))
            if 0 < k <= 2 * (idx // s % (b + 1)):
                if k % 2:
                    raise InternalInconsistency(f"odd Weyl-walk step {k} at {v}")
                u = tuple(x - k * y for x, y in zip(v, av))
                if u not in seen:
                    seen.add(u)
                    stack.append((u, idx - k // 2 * s, -sign))
    return QPoly(acc)


def ic_stalk_polynomial(datum: RootDatum, mu: Vec, lam: Vec) -> QPoly:
    """Stalk coefficient polynomial a_{mu,lam}(q) = q^<rho,mu-lam> m_{mu,lam}(1/q).

    The exponent flip is well defined because deg m <= <rho, mu-lam>, which
    is asserted.  a_{mu,mu} = 1.
    """
    datum.require_dominant(mu)
    datum.require_dominant(lam, "lam")
    if not datum.leq(lam, mu):
        raise DomainError(f"lam={lam} is not below mu={mu}")
    return stalk_from_q_analog(datum, mu, lam,
                               lusztig_q_analog(datum, mu, lam))


def stalk_from_q_analog(datum: RootDatum, mu: Vec, lam: Vec, m: QPoly) -> QPoly:
    """a_{mu,lam}(q) from m = m_{mu,lam}(q), for dominant lam <= mu."""
    h2 = datum.height2(_vsub(mu, lam))
    if h2 % 2:
        raise InternalInconsistency(f"<2rho, mu-lam> = {h2} odd on a coroot coset")
    d = h2 // 2
    if m.degree > d:
        raise InternalInconsistency(
            f"deg m_{{mu,lam}} = {m.degree} exceeds <rho,mu-lam> = {d}")
    return m.reverse(d)


# -- explicit Brylinski-Kostant oracle (type A) -------------------------------

class ExplicitModule:
    """An irreducible of the dual GL_n inside words of {0..n-1}^d.

    The lowering operators generate it from the column alternant, and act
    on all positions alike; so its vectors alternate within each column
    block of a word and are symmetric under swapping blocks of one length.
    A vector is stored, one to one, as a dict from sorted tuples of
    increasing blocks to its summed coefficients on the words made of
    them, in a basis echelonized over Z by ``_echelon_insert`` and grouped
    by weight.  The principal nilpotent is the sum of the raising operators.
    """

    def __init__(self, n: int, partition: Vec):
        self.n = n
        self.partition = partition
        self.d = sum(partition)
        hw = _column_alternant(partition)
        (blocks,) = hw   # a key holds k_c c-subsets per column length c
        keys = math.prod(math.comb(math.comb(n, c) + k - 1, k) for c, k in
                         Counter(map(len, blocks)).items())
        if keys > _BLOCK_KEY_BUDGET:
            raise TooLarge(f"{keys} block keys exceed budget {_BLOCK_KEY_BUDGET}")
        self.basis_by_weight = self._generate(hw)
        self.dim = sum(len(v) for v in self.basis_by_weight.values())

    # the weight of a word, given by its blocks, is its content vector
    @staticmethod
    def _content(word: tuple[tuple[int, ...], ...], n: int) -> Vec:
        c = [0] * n
        for block in word:
            for x in block:
                c[x] += 1
        return tuple(c)

    def apply_nilpotent(self, vec: dict) -> dict:
        return _substitute(vec, {k + 1: k for k in range(self.n - 1)})

    def _generate(self, hw: dict) -> dict[Vec, list[dict]]:
        echelon: dict[tuple, dict] = {}
        queue = [dict(hw)]
        _echelon_insert(echelon, hw)
        while queue:
            v = queue.pop()
            for i in range(self.n - 1):
                img = _substitute(v, {i: i + 1})
                if img and _echelon_insert(echelon, img):
                    queue.append(img)
        by_weight: dict[Vec, list[dict]] = {}
        for lead, vec in echelon.items():
            by_weight.setdefault(self._content(lead, self.n), []).append(vec)
        return by_weight

    def graded_kernel_dims(self, lam: Vec) -> QPoly:
        """Sum over i of dim gr_i q^i for the filtration of the lam-weight
        space by kernels of powers of the principal nilpotent.  Each power
        is applied to an echelon basis of the previous image."""
        space = self.basis_by_weight.get(lam, [])
        ranks = [len(space)]
        while space:
            images = [self.apply_nilpotent(v) for v in space]
            space = list(_echelon(images).values())
            ranks.append(len(space))
        return QPoly([ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)])


_explicit_module = lru_cache(maxsize=64)(ExplicitModule)


def _column_alternant(partition: Vec) -> dict:
    """The highest-weight vector of L_partition: the tensor product over the
    columns of the partition, of lengths c, of e_0 ^ ... ^ e_(c-1) (Fulton,
    Young Tableaux, section 8), whose one word of increasing blocks has the
    blocks (0, ..., c - 1)."""
    return {tuple(sorted(tuple(range(sum(x > j for x in partition)))
                         for j in range(max(partition, default=0)))): 1}


def _substitute(vec: dict, sub: dict[int, int]) -> dict:
    """The operator sending a word to the sum, over its positions holding a
    key of sub, of the word with that letter replaced: {i + 1: i} is e_i,
    {i: i + 1} is f_i.  A word is its sorted tuple of increasing blocks, as
    in ``ExplicitModule``; a letter moved by one keeps its place in its
    block, unless it meets a neighbour there: that image alternates to 0."""
    out: dict = {}
    for word, c in vec.items():
        for b, block in enumerate(word):
            for pos, letter in enumerate(block):
                if (new := sub.get(letter)) is not None and new not in block:
                    nb = block[:pos] + (new,) + block[pos + 1:]
                    nw = tuple(sorted(word[:b] + (nb,) + word[b + 1:]))
                    out[nw] = out.get(nw, 0) + c
    return {w: c for w, c in out.items() if c}


def _echelon_insert(pivots: dict, vec: dict) -> bool:
    """Reduce the integer vector vec by the pivot rows, vec = c vec - f row
    with c and f the leading coefficients over their gcd; if a remainder is
    left, store it as a new row, primitive with a positive leading
    coefficient, and return True."""
    vec = dict(vec)
    while vec:
        lead = min(vec)
        row = pivots.get(lead)
        if row is None:
            g = math.gcd(*vec.values()) * (1 if vec[lead] > 0 else -1)
            pivots[lead] = {j: x // g for j, x in vec.items()}
            return True
        c, f = row[lead], vec[lead]
        if c != 1:
            g = math.gcd(c, f)
            c, f = c // g, f // g
            vec = {j: c * x for j, x in vec.items()}
        for j, x in row.items():
            vec[j] = vec.get(j, 0) - f * x
            if vec[j] == 0:
                del vec[j]
    return False


def _echelon(vecs: list[dict]) -> dict:
    """The pivot rows ``_echelon_insert`` keeps: a basis of span(vecs)."""
    pivots: dict = {}
    for v in vecs:
        _echelon_insert(pivots, v)
    return pivots


def _to_partition_pair(datum: RootDatum, mu: Vec, lam: Vec):
    """Normalize (mu, lam) to GL_m partition coordinates with min entry zero.

    Returns (m, mu_partition, lam_content) or None when lam is not in the
    coroot coset of mu (the q-analog is then zero).
    """
    label = datum.label
    if label.startswith("GL"):
        n = datum.dim
        mu_gl, lam_gl = mu, lam
    elif label.startswith("A"):
        n = datum.rank + 1
        mu_gl = tuple(sum(mu[j] for j in range(i, datum.rank))
                      for i in range(n - 1)) + (0,)
        lam_gl = tuple(sum(lam[j] for j in range(i, datum.rank))
                       for i in range(n - 1)) + (0,)
        diff = sum(mu_gl) - sum(lam_gl)
        if diff % n:
            return None
        lam_gl = tuple(x + diff // n for x in lam_gl)
    else:
        raise UnsupportedType(f"explicit modules exist only in type A, not {label}")
    if sum(mu_gl) != sum(lam_gl):
        return None
    shift = -min(min(mu_gl), min(lam_gl), 0)
    mu_p = tuple(x + shift for x in mu_gl)
    lam_p = tuple(x + shift for x in lam_gl)
    return n, mu_p, lam_p


def bk_oracle(datum: RootDatum, mu: Vec, lam: Vec) -> QPoly:
    """Graded multiplicity of lam in L_mu under the filtration by kernels of
    powers of the principal nilpotent, from an explicit type-A module.

    This is the independent desk-scale verifier for ``lusztig_q_analog``;
    it never shares code with the Weyl-sum route.
    """
    datum.require_dominant(mu)
    datum.require_dominant(lam, "lam")
    pair = _to_partition_pair(datum, mu, lam)
    if pair is None:
        return QPoly.ZERO
    n, mu_p, lam_p = pair
    d = dim_rep(datum, mu)
    if d > _BK_DIM_CAP:
        raise TooLarge(f"dim L_mu = {d} exceeds cap {_BK_DIM_CAP}")
    module = _explicit_module(n, mu_p)
    if module.dim != d:
        raise InternalInconsistency(
            f"explicit module dimension {module.dim} != {d}")
    return module.graded_kernel_dims(lam_p)
