"""Root data, Weyl groups, pairings, and the dominance order on coweights.

Realizations
------------
GL(n) lives on X^* = X_* = Z^n with roots e_i - e_j and the dot-product
pairing, so elementary divisors of lattices land directly in Z^n.

A simple series label (A_r, B_r, C_r, D_r, G_2) is realized in the adjoint
form: X^* = Z^r with simple roots the standard basis vectors, and simple
coroots the columns of the Cartan matrix inside X_* = Z^r.  Coweights are
then indexed by their pairings with the simple roots, and the dual group is
simply connected (for A_1, coweight m >= 0 labels the (m+1)-dimensional
representation of the dual SL_2).
"""

from __future__ import annotations

import enum
import itertools
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .errors import (DomainError, InternalInconsistency, ShapeError,
                     TooLarge, UnsupportedType)

Vec = tuple[int, ...]

_DOMINANT_BUDGET = 100_000  # most dominant weights dominant_below may walk


def _vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def _vscale(k: int, a: Vec) -> Vec:
    return tuple(k * x for x in a)


def _support(a: Vec) -> tuple[tuple[int, int], ...]:
    return tuple((k, x) for k, x in enumerate(a) if x)


def _spair(v: Vec, support) -> int:
    """<v, a> for a given by its support."""
    c = 0
    for k, x in support:
        c += v[k] * x
    return c


def _reflect(v: Vec, c: int, support) -> Vec:
    """v - c a for a given by its support."""
    out = list(v)
    for k, x in support:
        out[k] -= c * x
    return tuple(out)


class Dominance(enum.Enum):
    """Three-valued outcome of a dominance-order comparison."""

    LE = "le"
    NOT_LE = "not_le"
    INCOMPARABLE_COMPONENTS = "incomparable_components"


class RootDatum:
    """A root datum with Weyl group access.

    ``make_root_datum`` returns one datum per normalized label, so equal
    labels give the same object and identity is equality.  The roots, 2rho,
    the form ``gram`` and the coroot coordinates of the positive coroots are
    fixed at construction, and nothing changes afterwards.  Results computed
    from a datum are memoized by the modules that compute them, in bounded
    module-level ``functools.lru_cache`` memos keyed by the datum.
    """

    def __init__(self, label: str, dim: int,
                 roots: Sequence[Vec], coroots: Sequence[Vec],
                 simple_roots: Sequence[Vec], simple_coroots: Sequence[Vec]):
        self.label = label
        self.dim = dim                      # rank of the (co)weight lattice
        self.roots = tuple(roots)           # all of Phi, paired with coroots
        self.coroots = tuple(coroots)
        self.simple_roots = tuple(simple_roots)
        self.simple_coroots = tuple(simple_coroots)
        self.rank = len(self.simple_roots)  # semisimple rank
        pos = [(a, av) for a, av in zip(self.roots, self.coroots)
               if self._is_positive_root(a)]
        self.positive_roots = tuple(a for a, _ in pos)
        self.positive_coroots = tuple(av for _, av in pos)
        zero = (0,) * dim
        self.two_rho = zero
        for a in self.positive_roots:
            self.two_rho = _vadd(self.two_rho, a)
        self.two_rho_check = zero
        for av in self.positive_coroots:
            self.two_rho_check = _vadd(self.two_rho_check, av)
        self._validate()
        self._coroot_solver = _IntegralSolver(self.simple_coroots, dim)
        # (alpha_i, alpha_i^vee) by supports: simple pairings and reflections
        self._simple = tuple(zip(map(_support, self.simple_roots),
                                 map(_support, self.simple_coroots)))
        # W-invariant form B(x, y) = sum over positive roots of <a, x><a, y>
        gram = [[0] * dim for _ in range(dim)]
        for a in self.positive_roots:
            support = _support(a)
            for i, x in support:
                for j, y in support:
                    gram[i][j] += x * y
        self.gram = tuple(map(tuple, gram))
        self.positive_coroot_coordinates = tuple(
            map(self.coroot_coordinates, self.positive_coroots))
        if None in self.positive_coroot_coordinates:
            raise InternalInconsistency("positive coroot outside lattice")

    # -- construction-time checks ------------------------------------------

    def _is_positive_root(self, a: Vec) -> bool:
        # Roots are +/- nonnegative combinations of simple roots; in both
        # realizations used here the first nonzero coordinate has the sign.
        return next((x > 0 for x in a if x), False)

    def _validate(self) -> None:
        if len(self.roots) != len(self.coroots):
            raise ShapeError("root/coroot bijection broken")
        for i, a in enumerate(self.simple_roots):
            for j, av in enumerate(self.simple_coroots):
                c = self.pairing(a, av)
                if i == j and c != 2:
                    raise ShapeError(f"Cartan diagonal {c} != 2")
                if i != j and c > 0:
                    raise ShapeError("positive off-diagonal Cartan entry")
        for av in self.simple_coroots:
            if self.pairing(self.two_rho, av) != 2:
                raise ShapeError("<2rho, alpha_i^vee> != 2")
        root_set = set(self.roots)
        if root_set != {_vscale(-1, a) for a in root_set}:
            raise ShapeError("Phi != -Phi")

    # -- elementary operations ---------------------------------------------

    def _check(self, mu: Vec) -> None:
        if len(mu) != self.dim:
            raise ShapeError(f"expected vectors of length {self.dim}")

    def pairing(self, chi: Vec, mu: Vec) -> int:
        """Canonical pairing of a weight with a coweight (dot product)."""
        if len(chi) != self.dim or len(mu) != self.dim:
            raise ShapeError(f"expected vectors of length {self.dim}")
        return sum(x * y for x, y in zip(chi, mu))

    def simple_reflect_coweight(self, i: int, mu: Vec) -> Vec:
        self._check(mu)
        a, av = self._simple[i]
        return _reflect(mu, _spair(mu, a), av)

    def is_dominant(self, mu: Vec) -> bool:
        self._check(mu)
        return all(_spair(mu, a) >= 0 for a, _ in self._simple)

    def require_dominant(self, mu: Vec, name: str = "mu") -> None:
        if not self.is_dominant(mu):
            raise DomainError(f"{name}={mu} is not dominant for {self.label}")

    def coroot_coordinates(self, delta: Vec) -> Optional[Vec]:
        """Coefficients of delta in the simple-coroot basis, or None.

        Simple coroots are linearly independent, so the coordinates are
        unique whenever they exist over Z.
        """
        self._check(delta)
        return self._coroot_solver.solve(delta)

    def dominance_leq(self, lam: Vec, mu: Vec) -> Dominance:
        """lam <= mu iff mu - lam is a nonnegative integral combination of
        simple coroots; lattices in different coroot cosets are incomparable."""
        coords = self.coroot_coordinates(_vsub(mu, lam))
        if coords is None:
            return Dominance.INCOMPARABLE_COMPONENTS
        if all(c >= 0 for c in coords):
            return Dominance.LE
        return Dominance.NOT_LE

    def leq(self, lam: Vec, mu: Vec) -> bool:
        return self.dominance_leq(lam, mu) is Dominance.LE

    def dominant_representative(self, mu: Vec) -> tuple[Vec, tuple[int, ...]]:
        """The dominant W-conjugate mu^+ and a reduced word for a w with
        w(mu) = mu^+: a tuple of simple-reflection indices, applied left to
        right, so s_{word[-1]} ... s_{word[0]}(mu) = mu^+ and
        sign(w) = (-1)^len(word).

        Repeatedly applies the first simple reflection with negative pairing.
        """
        self._check(mu)
        word = []
        while True:
            for i, (a, av) in enumerate(self._simple):
                c = _spair(mu, a)
                if c < 0:
                    mu = _reflect(mu, c, av)
                    word.append(i)
                    break
            else:
                return mu, tuple(word)

    def weyl_orbit(self, mu: Vec) -> frozenset[Vec]:
        self._check(mu)
        seen = {mu}
        frontier = [mu]
        while frontier:
            nxt = []
            for v in frontier:
                for a, av in self._simple:
                    c = _spair(v, a)
                    if c and (w := _reflect(v, c, av)) not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return frozenset(seen)

    def height2(self, mu: Vec) -> int:
        """<2rho, mu>: twice the dominance height for coroot-lattice elements."""
        return self.pairing(self.two_rho, mu)

    def dominant_below(self, mu: Vec) -> list[Vec]:
        """All dominant lam <= mu, sorted by <2rho, lam> then lexicographically,
        in a new list; the memo ``_dominant_below`` walks to them once."""
        if not self.is_dominant(mu):
            raise ShapeError("dominant_below expects a dominant coweight")
        return list(_dominant_below(self, mu))

    def __repr__(self) -> str:
        return f"RootDatum({self.label})"


@lru_cache(maxsize=1024)
def _dominant_below(datum: RootDatum, mu: Vec) -> tuple[Vec, ...]:
    """Walks down from the dominant mu by positive coroots and keeps only
    dominant points.  This reaches every dominant lam <= mu: whenever a
    dominant mu' covers a dominant lam in the dominance order, mu' - lam is
    a positive coroot (Stembridge, The partial order of dominant weights,
    Adv. Math. 136, 1998).  Past _DOMINANT_BUDGET weights it raises
    TooLarge, and so caches nothing; it refuses before the walk when the
    chain mu, mu - beta, mu - 2 beta, ..., dominant and below mu, is that
    long for a positive coroot beta."""
    chain = 1 + max((min(_spair(mu, a) // c for a, _ in datum._simple
                         if (c := _spair(beta, a)) > 0)
                     for beta in datum.positive_coroots), default=0)
    found, stack = {mu}, [mu]
    while stack:
        if max(chain, len(found)) > _DOMINANT_BUDGET:
            raise TooLarge(f"more than {_DOMINANT_BUDGET} dominant "
                           f"weights below mu={list(mu)}")
        cur = stack.pop()
        for beta in datum.positive_coroots:
            lam = _vsub(cur, beta)
            if lam not in found and datum.is_dominant(lam):
                found.add(lam)
                stack.append(lam)
    return tuple(sorted(found, key=lambda lam: (datum.height2(lam), lam)))


class _IntegralSolver:
    """Solves sum_i c_i b_i = delta for integer c, for a fixed independent
    family (b_i) in Z^dim, in integer arithmetic only: fraction-free
    Gauss-Jordan elimination (Bareiss) of [B | I], B with columns b_i, turns
    r rows into [den e_i | L_i], so den c_i = L_i . delta if delta = B c.
    L is kept by columns and each b_i by its support, so a solve costs the
    nonzero coordinates of delta and of the b_i."""

    def __init__(self, basis: Sequence[Vec], dim: int):
        r = len(basis)
        rows = [[b[k] for b in basis] + [int(j == k) for j in range(dim)]
                for k in range(dim)]
        prev = 1
        for col in range(r):
            piv = next(i for i in range(col, dim) if rows[i][col])
            rows[col], rows[piv] = rows[piv], rows[col]
            top, p = rows[col], rows[col][col]
            for i, row in enumerate(rows):
                if i != col:   # Bareiss: every division here is exact
                    f = row[col]
                    rows[i] = [(p * x - f * y) // prev
                               for x, y in zip(row, top)]
            prev = p
        self.den = prev   # det of the pivot block, on the whole diagonal
        self.columns = tuple(zip(*(row[r:] for row in rows[:r])))
        self.supports = tuple(map(_support, basis))

    def solve(self, delta: Vec) -> Optional[Vec]:
        acc = [0] * len(self.supports)
        for d, column in zip(delta, self.columns):
            if d:
                acc = [a + d * x for a, x in zip(acc, column)]
        coords = []
        for a in acc:
            c, rem = divmod(a, self.den)
            if rem:
                return None
            coords.append(c)
        # membership check: the coordinates must reproduce delta
        out = [0] * len(delta)
        for c, support in zip(coords, self.supports):
            for k, x in support:
                out[k] += c * x
        return tuple(coords) if out == list(delta) else None


# -- concrete realizations ---------------------------------------------------

@lru_cache(maxsize=64)
def _gl_datum(n: int) -> RootDatum:
    e = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    roots = [_vsub(e[i], e[j]) for i in range(n) for j in range(n) if i != j]
    simple = [_vsub(e[i], e[i + 1]) for i in range(n - 1)]
    return RootDatum(f"GL({n})", n, roots, list(roots), simple, list(simple))


def _chain(rank: int) -> list[list[int]]:
    c = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        c[i][i + 1] = -1
        c[i + 1][i] = -1
    return c


def _cartan(series: str, rank: int) -> list[list[int]]:
    if series == "A":
        if rank < 1:
            raise UnsupportedType("A_r needs r >= 1")
        return _chain(rank)
    if series == "B":
        if rank < 2:
            raise UnsupportedType("B_r needs r >= 2")
        c = _chain(rank)
        c[rank - 2][rank - 1] = -2   # last simple root is short
        return c
    if series == "C":
        if rank < 2:
            raise UnsupportedType("C_r needs r >= 2")
        c = _chain(rank)
        c[rank - 1][rank - 2] = -2   # last simple root is long
        return c
    if series == "D":
        if rank < 3:
            raise UnsupportedType("D_r needs r >= 3")
        c = _chain(rank)
        c[rank - 2][rank - 1] = 0
        c[rank - 1][rank - 2] = 0
        c[rank - 3][rank - 1] = -1
        c[rank - 1][rank - 3] = -1
        return c
    if series == "G":
        if rank != 2:
            raise UnsupportedType("G series only exists in rank 2")
        return [[2, -1], [-3, 2]]
    raise UnsupportedType(f"series {series!r} not supported")


@lru_cache(maxsize=64)
def _simple_datum(series: str, rank: int) -> RootDatum:
    cartan = _cartan(series, rank)

    def e(i: int) -> Vec:
        return tuple(int(k == i) for k in range(rank))

    simple_roots = [e(i) for i in range(rank)]
    simple_coroots = [tuple(cartan[i][j] for i in range(rank))
                      for j in range(rank)]

    # close the simple pairs under all simple reflections
    supports = [(_support(a), _support(av))
                for a, av in zip(simple_roots, simple_coroots)]
    seen = {(simple_roots[i], simple_coroots[i]) for i in range(rank)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a, av in frontier:
            for sa, sv in supports:
                q = (_reflect(a, _spair(a, sv), sa),
                     _reflect(av, _spair(av, sa), sv))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    pairs = sorted(seen)
    roots = [a for a, _ in pairs]
    coroots = [av for _, av in pairs]
    return RootDatum(f"{series}{rank}", rank, roots, coroots,
                     simple_roots, simple_coroots)


def make_root_datum(label: str) -> RootDatum:
    """The root datum of a label like 'GL(3)', 'GL3', 'A2', 'C_2', 'G2';
    spellings of one label give the same object."""
    s = label.strip().replace("_", "").replace(" ", "").upper()
    if s.startswith("GL"):
        body = s[2:].strip("()")
        if not body.isdigit() or int(body) < 1:
            raise UnsupportedType(f"bad GL label {label!r}")
        return _gl_datum(int(body))
    if s and s[0] in "ABCDG":
        body = s[1:].strip("()")
        if not body.isdigit():
            raise UnsupportedType(f"bad label {label!r}")
        return _simple_datum(s[0], int(body))
    raise UnsupportedType(f"unsupported label {label!r}")


def dominant_coweights_in_box(datum: RootDatum, lo: int, hi: int) -> Iterator[Vec]:
    """All dominant coweights with every coordinate in [lo, hi]."""
    for v in itertools.product(range(hi, lo - 1, -1), repeat=datum.dim):
        if datum.is_dominant(v):
            yield v
