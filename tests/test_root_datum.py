import itertools
import random
from fractions import Fraction

import pytest

from satkit import root_datum
from satkit.errors import ShapeError, TooLarge, UnsupportedType
from satkit.root_datum import (Dominance, _vsub, dominant_coweights_in_box,
                               make_root_datum)
from weyl_reference import (REFERENCE_LABELS, act,
                            dense_dominant_representative, dense_orbit,
                            dense_reflect, matrix_on_coweights,
                            reference_highest_weights, weyl_group)

GL2 = make_root_datum("GL(2)")
GL3 = make_root_datum("GL(3)")


def test_labels_share_one_datum():
    assert make_root_datum("GL(2)") is make_root_datum("GL2")
    assert make_root_datum("gl 2") is GL2
    assert make_root_datum("C_2") is make_root_datum("C2")
    assert make_root_datum("A2") is not make_root_datum("GL(3)")


def test_gl2_realization():
    assert set(GL2.roots) == {(1, -1), (-1, 1)}
    assert GL2.two_rho == (1, -1)
    assert GL2.simple_roots == ((1, -1),)


def test_a1_has_rank_one_cartan():
    a1 = make_root_datum("A_1")
    assert len(a1.positive_roots) == 1
    assert a1.pairing(a1.simple_roots[0], a1.simple_coroots[0]) == 2


def test_c2_root_count_and_rho_pairings():
    c2 = make_root_datum("C2")
    assert len(c2.positive_roots) == 4
    assert [c2.pairing(c2.two_rho, av) for av in c2.simple_coroots] == [2, 2]


@pytest.mark.parametrize("label,pos", [
    ("A3", 6), ("B2", 4), ("B3", 9), ("C3", 9), ("D3", 6), ("D4", 12),
    ("G2", 6),
])
def test_positive_root_counts(label, pos):
    assert len(make_root_datum(label).positive_roots) == pos


def test_unsupported_labels():
    for label in ["E8", "B1", "D2", "G3", "GL0", "X2", "banana"]:
        with pytest.raises(UnsupportedType):
            make_root_datum(label)


def test_label_spellings():
    assert make_root_datum("gl(3)").label == "GL(3)"
    assert make_root_datum("GL3").label == "GL(3)"
    assert make_root_datum("a_2").label == "A2"


def test_pairing():
    assert GL2.pairing((1, -1), (1, 0)) == 1
    assert GL2.pairing(GL2.two_rho, (0, 0)) == 0
    assert GL3.pairing(GL3.two_rho, (1, 1, 0)) == 2
    with pytest.raises(ShapeError):
        GL2.pairing((1, 0, 0), (1, 0))


def test_is_dominant():
    assert GL2.is_dominant((1, 0))
    assert not GL2.is_dominant((0, 1))
    assert GL3.is_dominant((0, 0, 0))


def test_coroot_coordinates():
    assert GL2.coroot_coordinates((1, -1)) == (1,)
    assert GL2.coroot_coordinates((1, 0)) is None
    assert GL3.coroot_coordinates((1, 0, -1)) == (1, 1)
    assert GL3.coroot_coordinates((0, 0, 0)) == (0, 0)
    # misses: integral least-squares coordinates that do not reproduce delta
    assert GL2.coroot_coordinates((1, 1)) is None
    assert GL3.coroot_coordinates((1, 1, 1)) is None
    # misses: the coroot lattice has index 3 in A2 and 2 in C2
    A2 = make_root_datum("A2")
    assert A2.coroot_coordinates((1, 0)) is None
    assert A2.coroot_coordinates((2, -1)) == (1, 0)
    assert make_root_datum("C2").coroot_coordinates((0, 1)) is None


def test_dominance_leq():
    assert GL2.dominance_leq((1, 1), (2, 0)) is Dominance.LE
    assert GL2.dominance_leq((1, 1), (3, -1)) is Dominance.LE
    assert (GL2.dominance_leq((0, 0), (1, 0))
            is Dominance.INCOMPARABLE_COMPONENTS)
    assert GL2.dominance_leq((2, 0), (1, 1)) is Dominance.NOT_LE


def test_dominant_representative():
    mu, w = GL2.dominant_representative((0, 2))
    assert mu == (2, 0) and act(GL2, w, (0, 2)) == (2, 0) and w == (0,)
    mu, w = GL2.dominant_representative((2, 0))
    assert mu == (2, 0) and w == ()
    mu, w = GL3.dominant_representative((0, 1, 2))
    assert mu == (2, 1, 0) and len(w) == 3
    assert act(GL3, w, (0, 1, 2)) == (2, 1, 0)


def test_dominant_representative_idempotent():
    for v in itertools.product(range(-2, 3), repeat=3):
        mu, w = GL3.dominant_representative(v)
        assert GL3.is_dominant(mu)
        assert act(GL3, w, v) == mu
        mu2, w2 = GL3.dominant_representative(mu)
        assert mu2 == mu and w2 == ()


def test_weyl_orbit():
    assert GL2.weyl_orbit((1, 0)) == {(1, 0), (0, 1)}
    assert len(GL3.weyl_orbit((1, 1, 0))) == 3
    assert GL3.weyl_orbit((0, 0, 0)) == {(0, 0, 0)}


def test_orbit_stabilizer_counting():
    # |orbit| * |stabilizer| = |W| on sampled coweights
    for label, mus in [("A1", [(0,), (3,)]),
                       ("A2", [(1, 0), (1, 1), (0, 0)]),
                       ("A3", [(1, 0, 0), (1, 1, 0), (2, 1, 0)]),
                       ("C2", [(1, 0), (0, 1), (2, 1)])]:
        d = make_root_datum(label)
        order = len(weyl_group(d))
        for mu in mus:
            orbit = d.weyl_orbit(mu)
            stab = sum(1 for w in weyl_group(d) if act(d, w, mu) == mu)
            assert len(orbit) * stab == order


@pytest.mark.parametrize("label", REFERENCE_LABELS)
def test_support_reflections_match_dense_pairings(label):
    # every weight of the reference L_mu: orbits in the same order, the
    # same reflections, and the same dominant conjugates and words
    datum, mus = reference_highest_weights(label)
    dominant = {lam for mu in mus for lam in datum.dominant_below(mu)}
    weights = set()
    for lam in dominant:
        orbit = datum.weyl_orbit(lam)
        assert list(orbit) == list(dense_orbit(datum, lam)), lam
        weights |= orbit
    for nu in weights:
        for i in range(datum.rank):
            assert (datum.simple_reflect_coweight(i, nu)
                    == dense_reflect(datum, i, nu)), (nu, i)
        rep, word = datum.dominant_representative(nu)
        assert (rep, word) == dense_dominant_representative(datum, nu), nu
        assert datum.is_dominant(nu) == (rep == nu)


def test_wrong_length_coweights_raise_shape_error():
    for d in (GL3, make_root_datum("B3"), make_root_datum("G2")):
        for bad in [(1,) * (d.dim - 1), (1,) * (d.dim + 1)]:
            for call in (lambda: d.pairing(d.two_rho, bad),
                         lambda: d.is_dominant(bad),
                         lambda: d.require_dominant(bad),
                         lambda: d.dominant_representative(bad),
                         lambda: d.weyl_orbit(bad),
                         lambda: d.simple_reflect_coweight(0, bad),
                         lambda: d.coroot_coordinates(bad)):
                with pytest.raises(ShapeError):
                    call()


def test_weyl_group_orders():
    assert len(weyl_group(GL2)) == 2
    assert len(weyl_group(GL3)) == 6
    assert len(weyl_group(make_root_datum("C2"))) == 8
    assert len(weyl_group(make_root_datum("G2"))) == 12
    assert len(weyl_group(make_root_datum("GL1"))) == 1


def test_weyl_length_is_inversion_count():
    # independent re-reduction check: for GL(n), W = S_n and the Coxeter
    # length is the inversion count of the permutation
    for d in (GL2, GL3, make_root_datum("GL4")):
        n = d.dim
        for w in weyl_group(d):
            images = [act(d, w, tuple(int(i == j) for i in range(n)))
                      for j in range(n)]
            perm = [img.index(1) for img in images]
            inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                             if perm[i] > perm[j])
            assert len(w) == inversions


def test_weyl_action_matrices_match_reflections():
    for d in (GL3, make_root_datum("C2")):
        for w in weyl_group(d):
            mat = matrix_on_coweights(d, w)
            for mu in [(1, 0) + (0,) * (d.dim - 2), (1,) * d.dim]:
                applied = tuple(sum(row[j] * mu[j] for j in range(d.dim))
                                for row in mat)
                assert applied == act(d, w, mu)


def test_two_rho_equals_positive_root_pairing_sum():
    for d in (GL2, GL3, make_root_datum("C2"), make_root_datum("G2")):
        for mu in itertools.product(range(-2, 3), repeat=d.dim):
            assert d.pairing(d.two_rho, mu) == sum(
                d.pairing(a, mu) for a in d.positive_roots)


def test_dominant_below_sorted_by_height():
    cells = GL3.dominant_below((2, 1, 0))
    assert cells == ((1, 1, 1), (2, 1, 0))
    heights = [GL3.height2(c) for c in cells]
    assert heights == sorted(heights)


def _dominant_below_by_coefficients(d, mu):
    """Reference: every mu - sum c_i alpha_i^vee with c >= 0 and
    sum c <= <rho, mu>, keeping the dominant results."""
    if d.rank == 0:
        return (mu,)
    found = []

    def rec(idx, remaining, cur):
        if idx == d.rank:
            if d.is_dominant(cur):
                found.append(cur)
            return
        step = d.simple_coroots[idx]
        v = cur
        for c in range(remaining + 1):
            rec(idx + 1, remaining - c, v)
            v = _vsub(v, step)

    rec(0, d.height2(mu) // 2, mu)
    return tuple(sorted(found, key=lambda lam: (d.height2(lam), lam)))


# The reference visits (<rho, mu> + rank choose rank) vectors, so mu is
# capped at <rho, mu> <= 16: that keeps 262 of the 293 coweights, and drops
# only the tops of the B3, C3, B4, C4 and D5 boxes.
@pytest.mark.parametrize("label,lo,hi", [
    ("GL1", -2, 2), ("GL2", -2, 2), ("GL3", -1, 2), ("GL4", -1, 1),
    ("GL5", -1, 1), ("A1", 0, 3), ("A2", 0, 2), ("A3", 0, 2), ("A4", 0, 1),
    ("B2", 0, 2), ("B3", 0, 2), ("B4", 0, 1), ("C2", 0, 2), ("C3", 0, 2),
    ("C4", 0, 1), ("D4", 0, 1), ("D5", 0, 1), ("G2", 0, 2),
])
def test_dominant_below_matches_coefficient_enumeration(label, lo, hi):
    d = make_root_datum(label)
    for mu in dominant_coweights_in_box(d, lo, hi):
        if d.height2(mu) <= 32:
            assert d.dominant_below(mu) == _dominant_below_by_coefficients(d, mu)


def test_partial_order_laws_small():
    # quick version of acceptance criterion 9 on a coarse grid
    box = list(itertools.product(range(-2, 3), repeat=2))
    for lam in box:
        assert GL2.dominance_leq(lam, lam) is Dominance.LE
    for lam, mu in itertools.product(box, repeat=2):
        if lam != mu and GL2.leq(lam, mu):
            assert not GL2.leq(mu, lam)


def test_dominant_coweights_in_box():
    doms = list(dominant_coweights_in_box(GL2, -1, 2))
    assert len(doms) == 10
    assert all(GL2.is_dominant(v) for v in doms)


def test_gl1_degenerate():
    gl1 = make_root_datum("GL(1)")
    assert gl1.roots == ()
    assert gl1.is_dominant((5,))
    assert gl1.dominance_leq((1,), (1,)) is Dominance.LE
    assert gl1.dominance_leq((1,), (2,)) is Dominance.INCOMPARABLE_COMPONENTS
    assert gl1.dominant_below((7,)) == ((7,),)


def test_dominant_below_stops_past_its_budget(monkeypatch):
    root_datum._dominant_below.cache_clear()   # a memo hit would not refuse
    monkeypatch.setattr(root_datum, "_DOMINANT_BUDGET", 10)
    assert len(GL2.dominant_below((18, 0))) == 10
    with pytest.raises(TooLarge, match="more than 10 dominant weights"):
        GL2.dominant_below((20, 0))


@pytest.mark.parametrize("label", ["GL(1)", "GL(2)", "GL(3)", "A1", "A2",
                                   "A3", "B2", "C2", "G2", "B3", "C3", "D4"])
def test_dominant_below_refuses_exactly_past_its_budget(monkeypatch, label):
    """The refusal before the walk, by the longest dominant chain
    mu - k beta, fires only where the walk itself would refuse."""
    datum = make_root_datum(label)
    lo, hi = (-2, 2) if label.startswith("GL") else (0, 7 - datum.rank)
    walk = root_datum._dominant_below.__wrapped__   # past the memo
    counts = {mu: len(walk(datum, mu))
              for mu in dominant_coweights_in_box(datum, lo, hi)}
    for budget in (1, 2, 3, 5, 8, 13, 21):
        monkeypatch.setattr(root_datum, "_DOMINANT_BUDGET", budget)
        for mu, count in counts.items():
            try:
                walk(datum, mu)
            except TooLarge:
                assert count > budget, (mu, budget)
            else:
                assert count <= budget, (mu, budget)


def rational_coordinates(datum, delta):
    """Coordinates of delta in the simple coroots by Gauss-Jordan
    elimination over Q of [B | delta], or None unless they are integral."""
    r = datum.rank
    rows = [[Fraction(b[k]) for b in datum.simple_coroots] + [Fraction(d)]
            for k, d in enumerate(delta)]
    for col in range(r):
        piv = next(i for i in range(col, len(rows)) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i, row in enumerate(rows):
            if i != col and row[col]:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[col])]
    coords = [row[r] for row in rows[:r]]
    if any(row[r] for row in rows[r:]) or any(c.denominator != 1
                                               for c in coords):
        return None
    return tuple(int(c) for c in coords)


@pytest.mark.parametrize("label", ["GL(1)", "GL(2)", "GL(4)", "GL(8)", "A1",
                                   "A3", "B3", "C4", "D4", "D5", "G2"])
def test_coroot_coordinates_match_rational_solve(label):
    datum = make_root_datum(label)
    rng = random.Random(label)
    vectors = [tuple(rng.randint(-3, 3) for _ in range(datum.dim))
               for _ in range(200)]
    for _ in range(100):   # points of the coroot lattice
        c = [rng.randint(-3, 3) for _ in datum.simple_coroots]
        vectors.append(tuple(sum(x * b[k] for x, b in
                                 zip(c, datum.simple_coroots))
                             for k in range(datum.dim)))
    vectors += datum.coroots + datum.roots
    for v in vectors:
        assert datum.coroot_coordinates(v) == rational_coordinates(datum, v)
    dense = tuple(tuple(sum(a[i] * a[j] for a in datum.positive_roots)
                        for j in range(datum.dim)) for i in range(datum.dim))
    assert datum.gram == dense
