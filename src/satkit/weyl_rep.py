"""Representation theory of the dual group, in coweight coordinates.

Irreducibles are indexed by dominant coweights of the base datum.  The dual
root system is the coroot system, so the half-sum entering every formula
here is the half-sum of positive coroots, handled throughout in doubled
(2rho) coordinates with evenness assertions instead of rational arithmetic.

The Brylinski-Kostant oracle at the end builds modules explicitly inside
tensor powers of the standard representation (type A only) and exists to
verify the q-analog computations independently.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, InternalInconsistency, TooLarge, UnsupportedType
from .polynomials import QPoly
from .root_datum import RootDatum, Vec, _vadd, _vscale, _vsub

_AMBIENT_WORD_BUDGET = 5_000_000  # n^d guard for the explicit construction
_BK_DIM_CAP = 3000  # largest dim L_mu that bk_oracle builds explicitly


def _form(datum: RootDatum, x: Vec, y: Vec) -> int:
    g = datum.gram
    return sum(x[i] * sum(g[i][j] * y[j] for j in range(datum.dim))
               for i in range(datum.dim))


def weight_multiplicities(datum: RootDatum, mu: Vec) -> dict[Vec, int]:
    """All weights of the dual-group irreducible L_mu with multiplicities,
    by the Freudenthal recursion over dominant weights."""
    datum.require_dominant(mu)
    dom = datum.dominant_below(mu)
    domset = set(dom)
    rho2 = datum.two_rho_check
    mults: dict[Vec, int] = {mu: 1}
    top2 = _vadd(_vscale(2, mu), rho2)
    norm_top = _form(datum, top2, top2)
    for lam in sorted(dom, key=datum.height2, reverse=True):
        if lam == mu:
            continue
        acc = 0
        for beta in datum.positive_coroots:
            k = 1
            while True:
                nu = _vadd(lam, _vscale(k, beta))
                rep, _ = datum.dominant_representative(nu)
                if rep not in domset:
                    break   # convexity: the ray has left the weight polytope
                acc += mults[rep] * _form(datum, nu, beta)
                k += 1
        lam2 = _vadd(_vscale(2, lam), rho2)
        denom = norm_top - _form(datum, lam2, lam2)
        if denom <= 0:
            raise InternalInconsistency(f"Freudenthal denominator {denom} at {lam}")
        num = 8 * acc
        if num % denom:
            raise InternalInconsistency(f"Freudenthal division {num}/{denom} at {lam}")
        mults[lam] = num // denom

    out: dict[Vec, int] = {}
    for lam, m in mults.items():
        if m <= 0:
            raise InternalInconsistency(f"multiplicity {m} at {lam}")
        for nu in datum.weyl_orbit(lam):
            out[nu] = m
    return out


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
    datum.require_dominant(mu, "mu")
    rho2 = datum.two_rho_check
    acc: dict[Vec, int] = {}
    for nu_p, m in weight_multiplicities(datum, lam).items():
        t2 = _vadd(_vadd(_vscale(2, nu_p), _vscale(2, mu)), rho2)
        rep2, w = datum.dominant_representative(t2)
        if any(datum.pairing(a, rep2) == 0 for a in datum.simple_roots):
            continue   # lies on a wall: the term cancels
        diff = _vsub(rep2, rho2)
        if any(x % 2 for x in diff):
            raise InternalInconsistency(f"odd straightened weight {rep2}")
        nu = tuple(x // 2 for x in diff)
        acc[nu] = acc.get(nu, 0) + w.sign * m
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
    return _kostant(datum, 0, coords)


@lru_cache(maxsize=1 << 17)
def _kostant(datum: RootDatum, idx: int, rem: Vec) -> QPoly:
    """P_q of rem (in coroot coordinates) over the positive coroots from
    index idx on.  The bound holds a whole DP without eviction: an LRU
    eviction in the middle of a recursion makes it recompute subtrees."""
    if all(c == 0 for c in rem):
        return QPoly.ONE
    table = datum.positive_coroot_coordinates
    if idx == len(table):
        return QPoly.ZERO
    g = table[idx]
    out = QPoly.ZERO
    cur = rem
    k = 0
    while all(c >= 0 for c in cur):
        out = out + _kostant(datum, idx + 1, cur).shift(k)
        cur = _vsub(cur, g)
        k += 1
    return out


def lusztig_q_analog(datum: RootDatum, mu: Vec, lam: Vec) -> QPoly:
    """The q-analog m_{mu,lam}(q) of the weight multiplicity, by the
    alternating Weyl sum of q-Kostant partition values
    sum_w sign(w) P_q(w(mu+rho) - (lam+rho)).

    The point 2(mu+rho) is regular, so w is determined by v = w(2(mu+rho))
    and sign(w) is the parity of the positive roots pairing negatively with
    v.  The sum runs over this orbit by a walk down from the dominant point:
    from v, each simple reflection s_i with <alpha_i, v> > 0 strictly lowers
    v by a multiple of alpha_i^vee.  Only points v with v - 2(lam+rho) in
    the positive coroot cone have a nonzero term, and that set is closed
    upward, so the walk expands only those and still reaches every one.

    Specializes to the Freudenthal multiplicity at q = 1; returns the zero
    polynomial when mu and lam lie in different coroot-lattice cosets.
    """
    datum.require_dominant(mu)
    datum.require_dominant(lam, "lam")
    gap = datum.coroot_coordinates(_vsub(mu, lam))
    if gap is None:
        return QPoly.ZERO
    rho2 = datum.two_rho_check
    top2 = _vadd(_vscale(2, mu), rho2)
    low2 = _vadd(_vscale(2, lam), rho2)
    out = QPoly.ZERO
    # entries: an orbit point v and the coroot coordinates of v - low2
    stack = [(top2, _vscale(2, gap))]
    seen = {top2}
    while stack:
        v, coords = stack.pop()
        arg2 = _vsub(v, low2)
        if any(x % 2 for x in arg2):
            raise InternalInconsistency(f"odd Weyl-sum argument {arg2}")
        term = q_kostant_partition(datum, tuple(x // 2 for x in arg2))
        if sum(datum.pairing(a, v) < 0 for a in datum.positive_roots) % 2:
            term = -term
        out = out + term
        for i, a in enumerate(datum.simple_roots):
            k = datum.pairing(a, v)
            if 0 < k <= coords[i]:
                u = _vsub(v, _vscale(k, datum.simple_coroots[i]))
                if u not in seen:
                    seen.add(u)
                    stack.append(
                        (u, coords[:i] + (coords[i] - k,) + coords[i + 1:]))
    return out


def ic_stalk_polynomial(datum: RootDatum, mu: Vec, lam: Vec) -> QPoly:
    """Stalk coefficient polynomial a_{mu,lam}(q) = q^<rho,mu-lam> m_{mu,lam}(1/q).

    The exponent flip is well defined because deg m <= <rho, mu-lam>, which
    is asserted.  a_{mu,mu} = 1.
    """
    datum.require_dominant(mu)
    datum.require_dominant(lam, "lam")
    if not datum.leq(lam, mu):
        raise DomainError(f"lam={lam} is not below mu={mu}")
    h2 = datum.height2(_vsub(mu, lam))
    if h2 % 2:
        raise InternalInconsistency(f"<2rho, mu-lam> = {h2} odd on a coroot coset")
    d = h2 // 2
    m = lusztig_q_analog(datum, mu, lam)
    if m.degree > d:
        raise InternalInconsistency(
            f"deg m_{{mu,lam}} = {m.degree} exceeds <rho,mu-lam> = {d}")
    return m.reverse(d)


# -- explicit Brylinski-Kostant oracle (type A) -------------------------------

class ExplicitModule:
    """An irreducible of the dual GL_n built inside words of {0..n-1}^d.

    Vectors are sparse dicts word -> Fraction.  The module is generated from
    a highest-weight vector (found in the kernel of all raising operators)
    by the lowering operators, and stored as an echelonized basis grouped by
    weight.  The principal nilpotent is the sum of the raising operators.
    """

    def __init__(self, n: int, partition: Vec):
        self.n = n
        self.partition = partition
        self.d = sum(partition)
        if self.n ** max(self.d, 1) > _AMBIENT_WORD_BUDGET:
            raise TooLarge(f"ambient tensor power {n}^{self.d} exceeds budget")
        hw = self._highest_weight_vector()
        self.basis_by_weight = self._generate(hw)
        self.dim = sum(len(v) for v in self.basis_by_weight.values())

    # words: tuples over 0..n-1; the weight of a word is its content vector
    @staticmethod
    def _content(word: tuple[int, ...], n: int) -> Vec:
        c = [0] * n
        for x in word:
            c[x] += 1
        return tuple(c)

    def _apply_e(self, i: int, vec: dict) -> dict:
        out: dict = {}
        for word, c in vec.items():
            for pos, letter in enumerate(word):
                if letter == i + 1:
                    nw = word[:pos] + (i,) + word[pos + 1:]
                    out[nw] = out.get(nw, 0) + c
        return {w: c for w, c in out.items() if c}

    def _apply_f(self, i: int, vec: dict) -> dict:
        out: dict = {}
        for word, c in vec.items():
            for pos, letter in enumerate(word):
                if letter == i:
                    nw = word[:pos] + (i + 1,) + word[pos + 1:]
                    out[nw] = out.get(nw, 0) + c
        return {w: c for w, c in out.items() if c}

    def apply_nilpotent(self, vec: dict) -> dict:
        out: dict = {}
        for i in range(self.n - 1):
            for w, c in self._apply_e(i, vec).items():
                out[w] = out.get(w, 0) + c
        return {w: c for w, c in out.items() if c}

    def _mu_words(self) -> list[tuple[int, ...]]:
        letters = []
        for letter, count in enumerate(self.partition):
            letters.extend([letter] * count)
        return sorted(set(itertools.permutations(letters)))

    def _highest_weight_vector(self) -> dict:
        """Solve the raising-operator kernel on the top weight space."""
        words = self._mu_words()
        index = {w: j for j, w in enumerate(words)}
        if len(words) == 1:
            return {words[0]: Fraction(1)}
        rows: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}
        for j, w in enumerate(words):
            for i in range(self.n - 1):
                for img, c in self._apply_e(i, {w: 1}).items():
                    rows.setdefault((i, img), {})[j] = c
        null = _nullspace(list(rows.values()), len(words))
        if not null:
            raise InternalInconsistency("no highest-weight vector found")
        return {words[j]: c for j, c in null[0].items() if c}

    def _generate(self, hw: dict) -> dict[Vec, list[dict]]:
        echelon: dict[tuple[int, ...], dict] = {}
        queue = [dict(hw)]
        _echelon_insert(echelon, hw)
        while queue:
            v = queue.pop()
            for i in range(self.n - 1):
                img = self._apply_f(i, v)
                if img and _echelon_insert(echelon, img):
                    queue.append(img)
        by_weight: dict[Vec, list[dict]] = {}
        for lead, vec in echelon.items():
            by_weight.setdefault(self._content(lead, self.n), []).append(vec)
        return by_weight

    def graded_kernel_dims(self, lam: Vec) -> QPoly:
        """Sum over i of dim gr_i q^i for the filtration of the lam-weight
        space by kernels of powers of the principal nilpotent."""
        space = self.basis_by_weight.get(lam, [])
        if not space:
            return QPoly.ZERO
        ranks = [len(space)]
        vecs = [dict(v) for v in space]
        while ranks[-1] > 0:
            vecs = [self.apply_nilpotent(v) for v in vecs]
            ranks.append(_rank(vecs))
        coeffs = [ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)]
        return QPoly(coeffs)


_explicit_module = lru_cache(maxsize=64)(ExplicitModule)


def _echelon_insert(pivots: dict, vec: dict) -> bool:
    """Reduce vec by the monic pivot rows; store it and return True if new."""
    vec = dict(vec)
    while vec:
        lead = min(vec)
        base = pivots.get(lead)
        if base is None:
            c = vec[lead]
            pivots[lead] = {j: x / c for j, x in vec.items()}
            return True
        f = vec[lead]
        for j, x in base.items():
            vec[j] = vec.get(j, 0) - f * x
            if vec[j] == 0:
                del vec[j]
    return False


def _nullspace(rows: list[dict[int, int]], ncols: int) -> list[dict[int, Fraction]]:
    """Nullspace basis of a sparse integer matrix, echelon order, over Q."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        _echelon_insert(pivots, {j: Fraction(c) for j, c in row.items()})
    free = [j for j in range(ncols) if j not in pivots]
    out = []
    for j0 in free:
        sol = {j0: Fraction(1)}
        # back-substitute pivot columns in decreasing order
        for lead in sorted(pivots, reverse=True):
            val = sum(pivots[lead].get(j, 0) * c for j, c in sol.items()
                      if j != lead)
            if val:
                sol[lead] = -val
        out.append({j: c for j, c in sol.items() if c})
    return out


def _rank(vecs: list[dict]) -> int:
    pivots: dict = {}
    return sum(_echelon_insert(pivots, v) for v in vecs)


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
    if any(x < 0 for x in lam_p):
        return QPoly.ZERO
    module = _explicit_module(n, mu_p)
    if module.dim != d:
        raise InternalInconsistency(
            f"explicit module dimension {module.dim} != {d}")
    return module.graded_kernel_dims(lam_p)
