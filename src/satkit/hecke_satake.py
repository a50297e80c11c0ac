"""The spherical Hecke algebra in the bases {c_mu} and {f_mu}, and the
Satake transform to virtual characters of the dual group.

Coefficients live in Z[v, v^-1] with v standing for -q^(1/2); the transform
sends f_mu to v^<2rho,mu> chi_mu, and convolution is computed through the
character ring, where multiplication is a tensor-product decomposition.
S(c_mu) is memoized per (datum, mu), by back-substitution in height order
(decreasing <2rho,lam>); the transform is linear over that memo.  Each
product c_lam * c_mu is memoized too, its coefficients asserted once to be
polynomials in q = v^2 with nonnegative values at q = 2, 3; a violation raises
InternalInconsistency because it signals a wrong normalization, not bad input.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .errors import DomainError, InternalInconsistency
from .polynomials import Laurent, QPoly
from .root_datum import RootDatum, Vec
from . import weyl_rep


class _Span:
    """A read-only finite map from dominant coweights to Laurent scalars."""

    __slots__ = ("datum", "coeffs")

    def __init__(self, datum: RootDatum, coeffs: Mapping[Vec, Laurent] = ()):
        self.datum = datum
        clean: dict[Vec, Laurent] = {}
        for mu, c in dict(coeffs).items():
            if isinstance(c, int):
                c = Laurent.from_int(c)
            elif type(c) is not Laurent:
                raise TypeError(f"coefficient {c!r} is not in Z[v, v^-1]")
            if c.is_zero:
                continue
            datum.require_dominant(mu, "support element")
            clean[mu] = c
        self.coeffs = MappingProxyType(clean)

    @property
    def support(self) -> list[Vec]:
        return sorted(self.coeffs)

    def coeff(self, mu: Vec) -> Laurent:
        return self.coeffs.get(mu, Laurent.ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Span):
            return NotImplemented
        return self.datum is other.datum and self.coeffs == other.coeffs

    def to_json(self) -> list[dict]:
        return [{"coweight": list(mu),
                 "v_low": self.coeffs[mu].low,
                 "coeffs_v": list(self.coeffs[mu].coeffs)}
                for mu in self.support]

    def __repr__(self) -> str:
        return " + ".join(f"({c})*{self._symbol}{list(mu)}"
                          for mu, c in sorted(self.coeffs.items())) or "0"


class HeckeElement(_Span):
    """Element of the spherical Hecke algebra in the basis {c_mu}."""
    _symbol = "c"


class VirtualCharacter(_Span):
    """Virtual character of the dual group in the basis {chi_mu}."""
    _symbol = "chi"


def c_basis(datum: RootDatum, mu: Vec) -> HeckeElement:
    datum.require_dominant(mu)
    return HeckeElement(datum, {mu: Laurent.ONE})


def chi_basis(datum: RootDatum, mu: Vec) -> VirtualCharacter:
    return VirtualCharacter(datum, {mu: Laurent.ONE})


@lru_cache(maxsize=4096)
def ic_function(datum: RootDatum, mu: Vec) -> HeckeElement:
    """f_mu = c_mu + sum over lam < mu of a_{mu,lam}(q) c_lam, with q = v^2."""
    datum.require_dominant(mu)
    coeffs = {}
    for lam in datum.dominant_below(mu):
        a = weyl_rep.ic_stalk_polynomial(datum, mu, lam)
        coeffs[lam] = Laurent.from_qpoly(a)
    return HeckeElement(datum, coeffs)


@lru_cache(maxsize=4096)
def _basis_transform(datum: RootDatum, mu: Vec) -> VirtualCharacter:
    """S(c_mu), back-substituted into {f_lam} with lam in decreasing
    (<2rho,lam>, lam) order."""
    rest, out = {mu: Laurent.ONE}, {}
    for lam in reversed(datum.dominant_below(mu)):
        c = rest.pop(lam, None)
        if c:
            out[lam] = c.shifted(datum.height2(lam))
            for nu, a in ic_function(datum, lam).coeffs.items():
                if nu != lam:
                    rest[nu] = rest.get(nu, Laurent.ZERO) - c * a
    return VirtualCharacter(datum, out)


def satake_transform(datum: RootDatum, h: HeckeElement) -> VirtualCharacter:
    """S(h) = sum over mu of h_mu S(c_mu), each S(c_mu) memoized; a basis
    element gets the memo entry itself."""
    if len(h.coeffs) == 1 and Laurent.ONE in h.coeffs.values():
        return _basis_transform(datum, *h.coeffs)
    out: dict[Vec, Laurent] = {}
    for mu, c in h.coeffs.items():
        for lam, s in _basis_transform(datum, mu).coeffs.items():
            out[lam] = out.get(lam, Laurent.ZERO) + c * s
    return VirtualCharacter(datum, out)


def inverse_satake(datum: RootDatum, chi: VirtualCharacter) -> HeckeElement:
    """chi_mu -> v^{-<2rho,mu>} f_mu, extended linearly, expanded in {c_mu}."""
    out: dict[Vec, Laurent] = {}
    for mu, c in chi.coeffs.items():
        shift = c.shifted(-datum.height2(mu))
        for lam, a in ic_function(datum, mu).coeffs.items():
            out[lam] = out.get(lam, Laurent.ZERO) + shift * a
    return HeckeElement(datum, out)


@lru_cache(maxsize=4096)
def _tensor(datum: RootDatum, lam: Vec, mu: Vec) -> Mapping[Vec, int]:
    """tensor_decompose, memoized as a read-only mapping."""
    return MappingProxyType(weyl_rep.tensor_decompose(datum, lam, mu))


def character_product(datum: RootDatum, x: VirtualCharacter,
                      y: VirtualCharacter) -> VirtualCharacter:
    """Product in the character ring, expanded via tensor decompositions."""
    out: dict[Vec, Laurent] = {}
    for lam, a in x.coeffs.items():
        for mu, b in y.coeffs.items():
            ab = a * b
            for nu, m in _tensor(datum, *sorted((lam, mu))).items():
                out[nu] = out.get(nu, Laurent.ZERO) + ab * m
    return VirtualCharacter(datum, out)


def hecke_convolve(datum: RootDatum, h1: HeckeElement,
                   h2: HeckeElement) -> HeckeElement:
    """Convolution h1 * h2, computed through the character ring.

    Every coefficient of a c-basis product is asserted to be a genuine
    integer polynomial in q = v^2 with positive leading coefficient and
    nonnegative values at prime powers (the values are lattice counts).
    Coefficientwise nonnegativity is NOT asserted: it genuinely fails, e.g.
    the (1,-1)-coefficient of c_(1,-1) * c_(1,-1) in GL(2) is q - 1.
    """
    prod = character_product(datum, satake_transform(datum, h1),
                             satake_transform(datum, h2))
    out = inverse_satake(datum, prod)
    for mu, c in out.coeffs.items():
        p = c.as_qpoly()   # raises on odd v-powers or negative exponents
        if p.coeffs[-1] < 0 or p(2) < 0 or p(3) < 0:
            raise InternalInconsistency(
                f"negative structure constant {p} at {mu}")
    return out


@lru_cache(maxsize=4096)
def convolve_basis(datum: RootDatum, lam: Vec, mu: Vec) -> HeckeElement:
    """c_lam * c_mu, memoized, so checked once."""
    datum.require_dominant(lam, "lam")   # c_basis checks mu, as "mu"
    return hecke_convolve(datum, c_basis(datum, lam), c_basis(datum, mu))


def evaluate_at(datum: RootDatum, h: HeckeElement, q0: int) -> dict[Vec, int]:
    """Substitute v^2 = q0; defined for elements whose coefficients are
    genuine polynomials in q (products of c-basis elements always are)."""
    if q0 < 2:
        raise DomainError(f"q0={q0} must be a prime power >= 2")
    return {mu: c.as_qpoly()(q0) for mu, c in h.coeffs.items()}


def structure_constants(datum: RootDatum, lam: Vec, mu: Vec) -> dict[Vec, QPoly]:
    """Coefficients of c_lam * c_mu as honest polynomials in q."""
    return {nu: c.as_qpoly()
            for nu, c in convolve_basis(datum, lam, mu).coeffs.items()}
