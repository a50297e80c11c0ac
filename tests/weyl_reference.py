"""The full Weyl group, enumerated as a test reference.

Production code never enumerates W: the Lusztig q-analogs walk an orbit.
The tests use these helpers to check that walk and the reduced words
against the whole group."""

from functools import lru_cache

from satkit.errors import ShapeError
from satkit.root_datum import WeylElement

_WEYL_BUDGET = 1_000_000  # refuse to enumerate Weyl groups beyond this order


@lru_cache(maxsize=32)
def weyl_group(datum):
    """All Weyl group elements with reduced words, by BFS from the identity."""
    idmat = tuple(tuple(int(i == j) for j in range(datum.dim))
                  for i in range(datum.dim))
    seen = {idmat}
    frontier = [(idmat, ())]
    elements = [WeylElement(datum, ())]
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
                    elements.append(WeylElement(datum, w))
                    if len(elements) > _WEYL_BUDGET:
                        raise ShapeError("Weyl group too large to enumerate")
        frontier = nxt
    return elements


def matrix_on_coweights(w):
    """Rows r_k with (w mu)_k = sum_j r_k[j] mu_j."""
    n = w.datum.dim
    cols = [w.act_coweight(tuple(int(i == j) for i in range(n)))
            for j in range(n)]
    return tuple(tuple(cols[j][k] for j in range(n)) for k in range(n))
