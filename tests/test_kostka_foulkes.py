"""Kostka-Foulkes polynomials by Lascoux-Schuetzenberger charge, the
independent route to the GL q-analogs.

K_{mu,lam}(q) is the sum of q^charge(T) over the semistandard tableaux T of
shape mu and content lam (Macdonald, Symmetric Functions and Hall
Polynomials, III.6), and Lusztig's m_{mu,lam}(q) equals it for GL.  The code
below enumerates tableaux and reads charges off their words; it shares
nothing with the Weyl walk or the q-Kostant table, and its cost is the
number of tableaux K_{mu,lam}(1), so it reaches pairs where the explicit
Brylinski-Kostant module is over its size cap.
"""

import itertools

import pytest

from satkit import weyl_rep as wr
from satkit.errors import TooLarge
from satkit.polynomials import QPoly
from satkit.root_datum import make_root_datum


def _horizontal_strips(inner, outer, size):
    """Partitions nu with inner <= nu <= outer, nu / inner a horizontal
    strip (nu_i <= inner_{i-1}) of the given size."""
    def rec(i, left):
        if i == len(inner):
            if left == 0:
                yield ()
            return
        cap = outer[i] if i == 0 else min(outer[i], inner[i - 1])
        for x in range(inner[i], min(cap, inner[i] + left) + 1):
            for rest in rec(i + 1, left - (x - inner[i])):
                yield (x,) + rest
    return rec(0, size)


def tableau_words(shape, content):
    """The reading words of the semistandard tableaux of the given shape and
    content: each row read right to left, from the top row down.  A tableau
    is a chain of shapes, the cells of letter k forming a horizontal strip."""
    chains = [[(0,) * len(shape)]]
    for size in content:
        chains = [chain + [nu] for chain in chains
                  for nu in _horizontal_strips(chain[-1], shape, size)]
    for chain in chains:
        if chain[-1] == tuple(shape):
            yield [letter for i in range(len(shape))
                   for letter in range(len(chain) - 1, 0, -1)
                   for _ in range(chain[letter][i] - chain[letter - 1][i])]


def charge(word):
    """Charge of a word of partition content: split it into standard
    subwords and add their charges.  A subword takes the leftmost free 1,
    then the first free 2 to its right, and so on, returning to the left end
    when none is left to the right; the index of r + 1 is that of r, plus one
    when r + 1 stands left of r, and charge sums the indices."""
    free = list(range(len(word)))
    total = 0
    while free:
        pos = min(p for p in free if word[p] == 1)
        chosen, index, letter = [pos], 0, 2
        while any(word[p] == letter for p in free):
            places = [p for p in free if word[p] == letter]
            right = [p for p in places if p > pos]
            if right:
                pos = min(right)
            else:
                pos = min(places)
                index += 1
            total += index
            chosen.append(pos)
            letter += 1
        free = [p for p in free if p not in chosen]
    return total


def kostka_foulkes(shape, content):
    """K_{shape,content}(q) as the charge generating function."""
    coeffs = {}
    for word in tableau_words(shape, content):
        c = charge(word)
        coeffs[c] = coeffs.get(c, 0) + 1
    if not coeffs:
        return QPoly.ZERO
    return QPoly([coeffs.get(i, 0) for i in range(max(coeffs) + 1)])


def _partitions_in_box(n, top):
    return [p for p in itertools.product(range(top, -1, -1), repeat=n)
            if all(a >= b for a, b in zip(p, p[1:]))]


def test_charge_frozen_values():
    assert kostka_foulkes((2,), (1, 1)) == QPoly.Q
    assert kostka_foulkes((1, 1), (1, 1)) == QPoly.ONE
    assert kostka_foulkes((2, 1), (1, 1, 1)) == QPoly([0, 1, 1])
    assert kostka_foulkes((3,), (2, 1)) == QPoly.Q
    assert kostka_foulkes((4,), (2, 2)) == QPoly([0, 0, 1])
    assert kostka_foulkes((3, 1), (2, 2)) == QPoly.Q
    assert kostka_foulkes((2, 2), (1, 1, 1, 1)) == QPoly([0, 0, 1, 0, 1])
    assert kostka_foulkes((3, 1, 1), (2, 2, 1)) == QPoly.Q
    assert kostka_foulkes((3, 2, 1), (2, 2, 2)) == QPoly([0, 1, 1])
    assert kostka_foulkes((2, 2), (3, 1)).is_zero


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_charge_matches_lusztig_small_gl(n):
    datum = make_root_datum(f"GL({n})")
    for mu, lam in itertools.product(_partitions_in_box(n, 3), repeat=2):
        assert wr.lusztig_q_analog(datum, mu, lam) == \
            kostka_foulkes(mu, lam), (mu, lam)


@pytest.mark.parametrize("mu,lam", [
    ((6, 2, 0, 0, 0, 0), (2, 2, 1, 1, 1, 1)),
    ((4, 2, 1, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1, 1)),
    ((4, 3, 1, 0, 0, 0, 0), (2, 1, 1, 1, 1, 1, 1)),
    ((4, 2, 1, 1, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1, 1, 1)),
    ((3, 3, 2, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1, 1, 1)),
    ((8, 0, 0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1, 1, 1)),
])
def test_charge_matches_lusztig_beyond_bk_oracle(mu, lam):
    datum = make_root_datum(f"GL({len(mu)})")
    with pytest.raises(TooLarge):
        wr.bk_oracle(datum, mu, lam)
    assert wr.lusztig_q_analog(datum, mu, lam) == kostka_foulkes(mu, lam)
