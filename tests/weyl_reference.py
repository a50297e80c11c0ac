"""Test references for the Weyl group and the weights of L_mu.

Production code never enumerates W: the Lusztig q-analogs walk an orbit.
The tests use these helpers to check that walk and the reduced words
against the whole group.  The Freudenthal recursion here straightens every
ray point with dense pairings, as production code did before it read the
dominant conjugates off one orbit map."""

from functools import lru_cache

from satkit.errors import ShapeError
from satkit.root_datum import dominant_coweights_in_box, make_root_datum
from satkit.weyl_rep import dim_rep

_WEYL_BUDGET = 1_000_000  # refuse to enumerate Weyl groups beyond this order

# the data and highest weights on which the references are compared
REFERENCE_LABELS = ([f"GL({n})" for n in range(1, 6)]
                    + [f"A{r}" for r in range(1, 6)]
                    + ["B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "D5",
                       "G2"])
REFERENCE_DIM_CAP = 5000


def reference_highest_weights(label):
    """The datum and every dominant mu with coordinates in [0, 2] and
    dim L_mu <= REFERENCE_DIM_CAP."""
    datum = make_root_datum(label)
    return datum, [mu for mu in dominant_coweights_in_box(datum, 0, 2)
                   if dim_rep(datum, mu) <= REFERENCE_DIM_CAP]


@lru_cache(maxsize=32)
def weyl_group(datum):
    """A reduced word for every Weyl group element, by BFS from the
    identity; a word is a tuple of simple-reflection indices."""
    idmat = tuple(tuple(int(i == j) for j in range(datum.dim))
                  for i in range(datum.dim))
    seen = {idmat}
    frontier = [(idmat, ())]
    elements = [()]
    while frontier:
        nxt = []
        for mat, word in frontier:
            for i in range(datum.rank):
                # rows are the images of the basis coweights under the
                # element, which identifies it uniquely
                rows = tuple(datum.simple_reflect_coweight(i, row)
                             for row in mat)
                if rows not in seen:
                    w = word + (i,)
                    seen.add(rows)
                    nxt.append((rows, w))
                    elements.append(w)
                    if len(elements) > _WEYL_BUDGET:
                        raise ShapeError("Weyl group too large to enumerate")
        frontier = nxt
    return elements


def act(datum, word, mu):
    """s_{word[-1]} ... s_{word[0]}(mu): the word applied left to right."""
    for i in word:
        mu = datum.simple_reflect_coweight(i, mu)
    return mu


def matrix_on_coweights(datum, word):
    """Rows r_k with (w mu)_k = sum_j r_k[j] mu_j, w the word's element."""
    n = datum.dim
    cols = [act(datum, word, tuple(int(i == j) for i in range(n)))
            for j in range(n)]
    return tuple(tuple(cols[j][k] for j in range(n)) for k in range(n))


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def dense_reflect(datum, i, mu):
    """s_i(mu) = mu - <alpha_i, mu> alpha_i^vee over all coordinates."""
    c = _dot(datum.simple_roots[i], mu)
    return tuple(x - c * y for x, y in zip(mu, datum.simple_coroots[i]))


def dense_dominant_representative(datum, mu):
    """mu^+ and the word that reflects by the first simple root pairing
    negatively with the current point, until none does."""
    word = []
    while True:
        for i, a in enumerate(datum.simple_roots):
            if _dot(a, mu) < 0:
                mu = dense_reflect(datum, i, mu)
                word.append(i)
                break
        else:
            return mu, tuple(word)


def dense_orbit(datum, mu):
    """The W-orbit of mu, breadth first over the simple reflections."""
    seen = {mu}
    frontier = [mu]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(datum.rank):
                w = dense_reflect(datum, i, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(seen)


def ray_walk_multiplicities(datum, mu):
    """Weights of L_mu by the Freudenthal recursion, each ray point
    straightened by dense_dominant_representative and the form B taken as
    the full double sum over the Gram matrix.  The weights come in the order
    of their dominant conjugates by decreasing height, each orbit in the
    order of dense_orbit."""
    g, n = datum.gram, datum.dim

    def form(x, y):
        return sum(x[i] * g[i][j] * y[j] for i in range(n) for j in range(n))

    dom = datum.dominant_below(mu)
    domset = set(dom)
    rho2 = datum.two_rho_check
    top2 = tuple(2 * x + r for x, r in zip(mu, rho2))
    mults = {mu: 1}
    for lam in sorted(dom, key=datum.height2, reverse=True):
        if lam == mu:
            continue
        acc = 0
        for beta in datum.positive_coroots:
            k = 1
            while True:
                nu = tuple(x + k * b for x, b in zip(lam, beta))
                rep, _ = dense_dominant_representative(datum, nu)
                if rep not in domset:
                    break   # convexity: the ray has left the weight polytope
                acc += mults[rep] * form(nu, beta)
                k += 1
        lam2 = tuple(2 * x + r for x, r in zip(lam, rho2))
        num, denom = 8 * acc, form(top2, top2) - form(lam2, lam2)
        assert denom > 0 and num % denom == 0, (lam, num, denom)
        mults[lam] = num // denom
    return {nu: m for lam, m in mults.items() for nu in dense_orbit(datum, lam)}
