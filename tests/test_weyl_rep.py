import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from satkit import weyl_rep as wr
from satkit.errors import (DomainError, InternalInconsistency, TooLarge,
                           UnsupportedType)
from satkit.polynomials import QPoly
from satkit.root_datum import (RootDatum, dominant_coweights_in_box,
                               make_root_datum)
from weyl_reference import (REFERENCE_LABELS, act, ray_walk_multiplicities,
                             reference_highest_weights, weyl_group)

GL2 = make_root_datum("GL(2)")
GL3 = make_root_datum("GL(3)")
A1 = make_root_datum("A1")
A2 = make_root_datum("A2")


# -- independent desk oracles used to freeze expected values -------------------

def naive_q_kostant(datum, beta):
    """Direct enumeration of expressions of beta as sums of positive coroots,
    no memoization; independent of the production DP."""
    coroots = datum.positive_coroots
    out = {}

    def rec(idx, rest, used):
        if all(x == 0 for x in rest):
            out[used] = out.get(used, 0) + 1
            return
        if idx == len(coroots):
            return
        g = coroots[idx]
        cur = rest
        k = 0
        while True:
            coords = datum.coroot_coordinates(cur)
            if coords is None or any(c < 0 for c in coords):
                break
            rec(idx + 1, cur, used + k)
            cur = tuple(a - b for a, b in zip(cur, g))
            k += 1

    rec(0, beta, 0)
    if not out:
        return QPoly.ZERO
    top = max(out)
    return QPoly([out.get(i, 0) for i in range(top + 1)])


def full_weyl_sum(datum, mu, lams):
    """m_{mu,lam}(q) for each lam by the alternating sum over all of W,
    enumerated by ``weyl_group``; independent of the production walk."""
    rho2 = datum.two_rho_check
    top2 = tuple(2 * m + r for m, r in zip(mu, rho2))
    orbit = [(act(datum, w, top2), (-1) ** len(w)) for w in weyl_group(datum)]
    out = {}
    for lam in lams:
        low2 = tuple(2 * x + r for x, r in zip(lam, rho2))
        acc = QPoly.ZERO
        for v, sign in orbit:
            term = wr.q_kostant_partition(
                datum, tuple((a - b) // 2 for a, b in zip(v, low2)))
            acc = acc + (term if sign > 0 else -term)
        out[lam] = acc
    return out


def gl3_hook_dim(a, b, c):
    """Weyl dimension of a GL(3) partition via the hook-content product."""
    return (a - b + 1) * (b - c + 1) * (a - c + 2) // 2


# -- weight multiplicities -----------------------------------------------------

def test_weight_multiplicities_sym2():
    assert wr.weight_multiplicities(GL2, (2, 0)) == {
        (2, 0): 1, (1, 1): 1, (0, 2): 1}


def test_weight_multiplicities_adjoint_gl3():
    mults = wr.weight_multiplicities(GL3, (1, 0, -1))
    assert mults[(0, 0, 0)] == 2
    assert sum(mults.values()) == 8
    assert mults[(1, 0, -1)] == 1 and mults[(-1, 0, 1)] == 1


def test_weight_multiplicities_trivial():
    assert wr.weight_multiplicities(GL3, (0, 0, 0)) == {(0, 0, 0): 1}
    with pytest.raises(DomainError):
        wr.weight_multiplicities(GL2, (0, 1))


def test_weight_multiplicities_mass():
    for d, box in [(GL2, (-2, 3)), (GL3, (-1, 2)), (A2, (0, 3))]:
        for mu in dominant_coweights_in_box(d, *box):
            mults = wr.weight_multiplicities(d, mu)
            assert sum(mults.values()) == wr.dim_rep(d, mu)
            # W-invariance
            for lam, m in mults.items():
                rep, _ = d.dominant_representative(lam)
                assert mults[rep] == m


@pytest.mark.parametrize("label", REFERENCE_LABELS)
def test_weight_multiplicities_match_the_ray_walk(label):
    # the same weights, multiplicities and order as straightening every
    # ray point of the recursion
    datum, mus = reference_highest_weights(label)
    for mu in mus:
        assert (list(wr.weight_multiplicities(datum, mu).items())
                == list(ray_walk_multiplicities(datum, mu).items())), mu


@pytest.mark.parametrize("label", REFERENCE_LABELS)
def test_ray_walk_estimate_covers_the_walk(label, monkeypatch):
    """The estimate that weight_multiplicities checks before its Freudenthal
    walk is at least the number of ray lookups the walk makes: one per
    weight on each ray from a non-top dominant weight, plus the miss that
    ends the ray."""
    datum, mus = reference_highest_weights(label)
    for mu in mus:
        weights = wr.weight_multiplicities(datum, mu)
        steps = 0
        for lam in datum.dominant_below(mu)[:-1]:
            for beta in datum.positive_coroots:
                nu = tuple(a + b for a, b in zip(lam, beta))
                while nu in weights:
                    steps += 1
                    nu = tuple(a + b for a, b in zip(nu, beta))
                steps += 1
        monkeypatch.setattr(wr, "_RAY_BUDGET", steps - 1)
        with pytest.raises(TooLarge, match="Freudenthal ray walk"):
            wr.weight_multiplicities(datum, mu)
        monkeypatch.undo()


def test_dim_rep():
    assert wr.dim_rep(GL2, (2, 0)) == 3
    assert wr.dim_rep(GL3, (1, 0, -1)) == 8
    assert wr.dim_rep(GL2, (0, 0)) == 1
    assert wr.dim_rep(A1, (4,)) == 5


def test_dim_rep_matches_hook_formula():
    for a in range(0, 5):
        for b in range(0, a + 1):
            for c in range(0, b + 1):
                assert wr.dim_rep(GL3, (a, b, c)) == gl3_hook_dim(a, b, c)


def test_dim_rep_central_twist_invariance():
    for mu in [(2, 0), (3, 1), (1, -1)]:
        for k in (-2, 1, 5):
            shifted = tuple(x + k for x in mu)
            assert wr.dim_rep(GL2, shifted) == wr.dim_rep(GL2, mu)


# -- tensor decompositions -----------------------------------------------------

def test_tensor_clebsch_gordan():
    assert wr.tensor_decompose(GL2, (1, 0), (1, 0)) == {(2, 0): 1, (1, 1): 1}
    assert wr.tensor_decompose(A1, (2,), (2,)) == {(4,): 1, (2,): 1, (0,): 1}


def test_tensor_iterated_std_cube():
    acc = {(1, 0, 0): 1}
    for _ in range(2):
        nxt = {}
        for nu, m in acc.items():
            for nu2, m2 in wr.tensor_decompose(GL3, nu, (1, 0, 0)).items():
                nxt[nu2] = nxt.get(nu2, 0) + m * m2
        acc = nxt
    assert acc == {(3, 0, 0): 1, (2, 1, 0): 2, (1, 1, 1): 1}


def test_tensor_mass_conservation():
    doms = list(dominant_coweights_in_box(GL3, 0, 2))
    for lam, mu in itertools.product(doms, repeat=2):
        t = wr.tensor_decompose(GL3, lam, mu)
        assert sum(m * wr.dim_rep(GL3, nu) for nu, m in t.items()) == \
            wr.dim_rep(GL3, lam) * wr.dim_rep(GL3, mu)
        # Cartan component appears exactly once
        top = tuple(a + b for a, b in zip(lam, mu))
        assert t[top] == 1


def test_tensor_commutative():
    for lam, mu in [((2, 0), (1, -1)), ((3, 1), (1, 0))]:
        assert wr.tensor_decompose(GL2, lam, mu) == \
            wr.tensor_decompose(GL2, mu, lam)


# -- q-Kostant partition function ----------------------------------------------

def test_q_kostant_basics():
    assert wr.q_kostant_partition(GL2, (0, 0)) == QPoly.ONE
    assert wr.q_kostant_partition(GL2, (1, -1)) == QPoly.Q
    assert wr.q_kostant_partition(GL3, (1, 0, -1)) == QPoly([0, 1, 1])
    assert wr.q_kostant_partition(GL2, (1, 0)).is_zero
    assert wr.q_kostant_partition(GL2, (-1, 1)).is_zero


def test_q_kostant_matches_naive_enumeration():
    for d, box in [(GL2, (-3, 3)), (GL3, (-2, 2)), (make_root_datum("C2"), (-2, 2))]:
        for beta in itertools.product(range(box[0], box[1] + 1), repeat=d.dim):
            assert wr.q_kostant_partition(d, beta) == naive_q_kostant(d, beta)


@pytest.mark.parametrize("label,lo,hi", [
    ("GL(4)", -1, 2), ("B2", -2, 3), ("B3", -1, 2), ("C3", -1, 2),
    ("D4", -1, 1), ("G2", -2, 3)])
def test_q_kostant_table_matches_naive_enumeration(label, lo, hi):
    d = make_root_datum(label)
    for beta in itertools.product(range(lo, hi + 1), repeat=d.dim):
        assert wr.q_kostant_partition(d, beta) == naive_q_kostant(d, beta)


def _fresh_q_analogs(datum, pairs):
    out = []
    for mu, lam in pairs:
        wr._kostant_table.cache_clear()
        out.append(wr.lusztig_q_analog(datum, mu, lam))
    return out


def test_q_kostant_table_growth_gives_fresh_answers(monkeypatch):
    """Small box, larger box, small box again: the answers are those of a
    fresh memo, whether the table grows to cover both boxes or, over the
    budget, is refilled over the new box alone."""
    gl4 = make_root_datum("GL(4)")
    # boxes (coroot coordinates of mu - lam): small inside (1, 1, 1), large
    # (2, 2, 1), skew (1, 2, 3); a fill over (2, 2, 3) costs 972 additions
    small = [((2, 0, 0, 0), (1, 1, 0, 0)), ((1, 0, 0, -1), (0, 0, 0, 0))]
    large = [((3, 1, 0, 0), (1, 1, 1, 1)), ((2, 2, 0, 0), (1, 1, 1, 1))]
    skew = [((1, 1, 1, -3), (0, 0, 0, 0)), ((2, 2, 2, 0), (2, 2, 1, 1))]
    fresh = {id(p): _fresh_q_analogs(gl4, p) for p in (small, large, skew)}
    for budget, last_box in ((wr._KOSTANT_WORK_BUDGET, (2, 2, 3)),
                             (600, (2, 2, 1))):
        monkeypatch.setattr(wr, "_KOSTANT_WORK_BUDGET", budget)
        wr._kostant_table.cache_clear()
        for pairs in (small, large, small, skew, large, small):
            assert [wr.lusztig_q_analog(gl4, mu, lam)
                    for mu, lam in pairs] == fresh[id(pairs)]
        assert wr._kostant_table(gl4)[0] == last_box


def test_q_kostant_table_work_bound():
    gl12 = make_root_datum("GL(12)")
    with pytest.raises(TooLarge, match="q-Kostant table"):
        wr.lusztig_q_analog(gl12, (12,) + (0,) * 11, (1,) * 12)
    with pytest.raises(TooLarge, match="q-Kostant table"):
        wr.q_kostant_partition(gl12, (11,) + (-1,) * 11)


def test_freudenthal_and_tensor_work_bound():
    gl9 = make_root_datum("GL(9)")
    mu = (3, 2, 1) + (0,) * 6
    assert len(wr.weight_multiplicities(gl9, mu)) == 2562
    with pytest.raises(TooLarge, match="dim L_lam"):
        wr.tensor_decompose(gl9, mu, mu)
    with pytest.raises(TooLarge, match="dim L_mu"):
        wr.weight_multiplicities(make_root_datum("GL(12)"),
                                 (6, 5, 4, 3, 2, 1) + (0,) * 6)


# -- Lusztig q-analog and stalk polynomials -------------------------------------

def test_lusztig_q_analog_values():
    assert wr.lusztig_q_analog(GL2, (2, 0), (2, 0)) == QPoly.ONE
    assert wr.lusztig_q_analog(GL2, (2, 0), (1, 1)) == QPoly.Q
    assert wr.lusztig_q_analog(A1, (4,), (0,)) == QPoly([0, 0, 1])
    assert wr.lusztig_q_analog(GL2, (2, 0), (1, 0)).is_zero


def test_lusztig_specializes_to_multiplicity():
    for d, box in [(GL2, (-2, 2)), (GL3, (-1, 2))]:
        for mu in dominant_coweights_in_box(d, *box):
            mults = wr.weight_multiplicities(d, mu)
            for lam in d.dominant_below(mu):
                m = wr.lusztig_q_analog(d, mu, lam)
                assert m(1) == mults.get(lam, 0)
                assert all(c >= 0 for c in m.coeffs)


def test_lusztig_degree_bound():
    for mu in dominant_coweights_in_box(GL3, 0, 3):
        for lam in GL3.dominant_below(mu):
            m = wr.lusztig_q_analog(GL3, mu, lam)
            bound = GL3.height2(tuple(a - b for a, b in zip(mu, lam))) // 2
            assert m.degree <= bound


@pytest.mark.parametrize("label", ["GL2", "GL3", "GL4", "GL5", "A2", "A3",
                                   "A4", "B2", "B3", "C3", "D4", "G2"])
def test_lusztig_walk_matches_full_weyl_sum(label):
    d = make_root_datum(label)
    for mu in dominant_coweights_in_box(d, 0, 2):
        lams = d.dominant_below(mu)
        expect = full_weyl_sum(d, mu, lams)
        for lam in lams:
            assert wr.lusztig_q_analog(d, mu, lam) == expect[lam], (mu, lam)


def test_lusztig_never_enumerates_weyl_group():
    # W is enumerated only by the test reference, never by satkit
    assert not hasattr(RootDatum, "weyl_group")
    gl8 = make_root_datum("GL8")   # |W| = 40320
    mu = (2, 1) + (0,) * 6
    lam = (1, 1, 1) + (0,) * 5
    # Kostka-Foulkes polynomial K_{(2,1),(1,1,1)}(q) = q + q^2
    assert wr.lusztig_q_analog(gl8, mu, lam) == QPoly([0, 1, 1])


def test_ic_stalk_polynomial():
    assert wr.ic_stalk_polynomial(GL2, (2, 0), (2, 0)) == QPoly.ONE
    assert wr.ic_stalk_polynomial(GL2, (2, 0), (1, 1)) == QPoly.ONE
    assert wr.ic_stalk_polynomial(GL2, (3, 1), (2, 2)) == QPoly.ONE
    with pytest.raises(DomainError):
        wr.ic_stalk_polynomial(GL2, (1, 1), (2, 0))


def test_stalk_from_q_analog_keeps_the_degree_guard():
    # <rho, (2,0) - (1,1)> = 1, so a q-analog of degree 2 cannot be flipped
    assert wr.stalk_from_q_analog(GL2, (2, 0), (1, 1), QPoly([0, 1])) == \
        QPoly.ONE
    with pytest.raises(InternalInconsistency, match="exceeds"):
        wr.stalk_from_q_analog(GL2, (2, 0), (1, 1), QPoly([0, 0, 1]))


def test_ic_stalk_constant_term_one():
    for d, box in [(GL2, (-2, 3)), (GL3, (0, 2))]:
        for mu in dominant_coweights_in_box(d, *box):
            for lam in d.dominant_below(mu):
                a = wr.ic_stalk_polynomial(d, mu, lam)
                assert a.coeff(0) == 1
                assert all(c >= 0 for c in a.coeffs)


def test_ic_stalk_central_translation_invariance():
    for mu, lam in [((2, 0), (1, 1)), ((3, -1), (2, 0)), ((2, -2), (0, 0))]:
        base = wr.ic_stalk_polynomial(GL2, mu, lam)
        for k in (1, 2, -1):
            assert wr.ic_stalk_polynomial(
                GL2, tuple(x + k for x in mu),
                tuple(x + k for x in lam)) == base


# -- explicit Brylinski-Kostant oracle -------------------------------------------

def test_bk_oracle_frozen_values():
    assert wr.bk_oracle(GL2, (2, 0), (2, 0)) == QPoly.ONE
    assert wr.bk_oracle(GL2, (2, 0), (1, 1)) == QPoly.Q
    assert wr.bk_oracle(A1, (4,), (2,)) == QPoly.Q
    assert wr.bk_oracle(A1, (4,), (0,)) == QPoly([0, 0, 1])


def test_bk_oracle_rejects_non_type_a():
    with pytest.raises(UnsupportedType):
        wr.bk_oracle(make_root_datum("C2"), (1, 0), (1, 0))


def test_bk_oracle_size_cap():
    # dim L_(80,0,0) = binomial(82, 2) = 3321 is above the cap of 3000
    with pytest.raises(TooLarge):
        wr.bk_oracle(GL3, (80, 0, 0), (40, 40, 0))


def test_bk_oracle_coset_mismatch_is_zero():
    assert wr.bk_oracle(GL2, (2, 0), (1, 0)).is_zero


def test_bk_matches_lusztig_gl2():
    for mu in dominant_coweights_in_box(GL2, -2, 2):
        for lam in GL2.dominant_below(mu):
            assert wr.bk_oracle(GL2, mu, lam) == \
                wr.lusztig_q_analog(GL2, mu, lam)


def test_bk_central_shift_invariance():
    for mu, lam in [((3, 1), (2, 2)), ((2, 0), (1, 1))]:
        base = wr.bk_oracle(GL2, mu, lam)
        shifted = wr.bk_oracle(GL2, tuple(x - 2 for x in mu),
                               tuple(x - 2 for x in lam))
        assert base == shifted


def test_bk_a_series_matches_gl():
    # A_2 coweights in Dynkin labels vs GL(3) partitions
    for mu_d, mu_p in [((2, 0), (2, 0, 0)), ((1, 1), (2, 1, 0)),
                       ((0, 2), (2, 2, 0))]:
        for lam_d, lam_p in [((2, 0), (2, 0, 0)), ((0, 1), (1, 1, 0)),
                             ((1, 1), (2, 1, 0))]:
            assert wr.bk_oracle(A2, mu_d, lam_d) == \
                wr.bk_oracle(GL3, mu_p, lam_p)


def test_explicit_module_sl2_relations():
    # [e_i, f_i] acts on each weight vector by the pairing with alpha_i
    mod = wr.ExplicitModule(3, (2, 1, 0))
    assert mod.dim == 8
    for weight, vectors in mod.basis_by_weight.items():
        for v in vectors:
            for i in range(2):
                e, f = {i + 1: i}, {i: i + 1}
                ef = wr._substitute(wr._substitute(v, f), e)
                fe = wr._substitute(wr._substitute(v, e), f)
                comm = dict(ef)
                for w, c in fe.items():
                    comm[w] = comm.get(w, 0) - c
                comm = {w: c for w, c in comm.items() if c}
                h = weight[i] - weight[i + 1]
                expect = {w: h * c for w, c in v.items() if h * c}
                assert comm == expect


def test_column_alternant_is_a_highest_weight_vector():
    # content mu on every word, and every raising operator e_i kills it
    for n in range(1, 5):
        for d in range(1, 7):
            for mu in itertools.product(range(d, -1, -1), repeat=n):
                if sum(mu) != d or list(mu) != sorted(mu, reverse=True):
                    continue
                hw = wr._column_alternant(mu)
                assert hw and all(wr.ExplicitModule._content(w, n) == mu
                                  for w in hw), mu
                for i in range(n - 1):
                    assert wr._substitute(hw, {i + 1: i}) == {}, (mu, i)


def test_bk_oracle_matches_q_analog_gl4():
    # criterion 3 stops at GL(3): every dominant lam <= mu, 0 < |mu| <= 5
    gl4 = make_root_datum("GL(4)")
    pairs = 0
    for mu in dominant_coweights_in_box(gl4, 0, 5):
        if 0 < sum(mu) <= 5:
            for lam in gl4.dominant_below(mu):
                assert (wr.bk_oracle(gl4, mu, lam)
                        == wr.lusztig_q_analog(gl4, mu, lam)), (mu, lam)
                pairs += 1
    assert pairs == 46


def test_explicit_module_weight_dims_match_freudenthal():
    mod = wr.ExplicitModule(3, (3, 1, 0))
    mults = wr.weight_multiplicities(GL3, (3, 1, 0))
    by_weight = {w: len(vs) for w, vs in mod.basis_by_weight.items()}
    assert by_weight == {w: m for w, m in mults.items()}


def fraction_echelon_insert(pivots, vec):
    """Sparse echelon insertion over Q with monic pivot rows, vec -= f row:
    the reference for the fraction-free kernel of the explicit modules."""
    vec = {j: Fraction(x) for j, x in vec.items()}
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


def test_rank_matches_fraction_echelon():
    rng = random.Random(2020)
    words = list(itertools.product(range(3), repeat=2))
    deficient = 0
    for _ in range(400):
        vecs = [{w: rng.choice([-7, -2, -1, 1, 2, 3, 6, 10 ** 12])
                 for w in rng.sample(words, rng.randint(1, 5))}
                for _ in range(rng.randint(1, 8))]
        for _ in range(rng.randint(0, 4)):   # dependent vectors
            acc = {}
            for v in rng.sample(vecs, rng.randint(1, len(vecs))):
                k = rng.choice([-3, -1, 2, 5])
                for w, x in v.items():
                    acc[w] = acc.get(w, 0) + k * x
            vecs.append({w: x for w, x in acc.items() if x})
        rng.shuffle(vecs)
        kept = [dict(v) for v in vecs]
        reference = {}
        rank = len(wr._echelon(vecs))
        assert rank == sum(fraction_echelon_insert(reference, v)
                           for v in vecs)
        assert vecs == kept
        deficient += rank < len(vecs)
        pivots = {}
        for v in vecs:
            wr._echelon_insert(pivots, v)
        assert pivots.keys() == reference.keys()
        for lead, row in pivots.items():   # primitive, positive lead
            assert row[lead] > 0 and math.gcd(*row.values()) == 1
            assert {w: Fraction(x, row[lead])
                    for w, x in row.items()} == reference[lead]
    assert deficient > 100


def test_graded_kernel_dims_keep_their_values():
    # every (mu, weight) pair of GL(2..4) with 0 < |mu| <= 6, against the
    # digest of the values the Fraction kernel gave (the reference above
    # reproduces them through monkeypatching wr._echelon_insert)
    rows = []
    for n in (2, 3, 4):
        for mu in itertools.product(range(6, -1, -1), repeat=n):
            if not 0 < sum(mu) <= 6 or list(mu) != sorted(mu, reverse=True):
                continue
            module = wr.ExplicitModule(n, mu)
            for lam in sorted(module.basis_by_weight):
                p = module.graded_kernel_dims(lam)
                rows.append([list(mu), list(lam), p.low, list(p.coeffs)])
    assert len(rows) == 1020
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "842bda8f3576b66eb3ad341b2aa58fc31053eb7481d71163603b3c0340e89297")
