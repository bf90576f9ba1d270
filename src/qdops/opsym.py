"""Graded operators through their symbols.

A graded operator on one of the supported rings is a finite sum of parts
(e, s): e is the exponent shift and s the symbol, a Laurent polynomial in
u = q^m whose coefficients may also depend polynomially on m,

    s = sum_{i,j} c_ij(q) * u^i * m^j ,

acting on the basis monomial of exponent m by x^m |-> s(q^m, m) x^{m+e}.
Symbols with distinct (i, j) are linearly independent as functions of m,
so this representation is faithful and operator equality is structural.

Composition never leaves the picture:

    (e1, s1) after (e2, s2)  =  (e1+e2, s2(u, m) * s1(q^{e2} u, m + e2)),

coordinatewise in several variables.  The inverse-degree ring k[y] uses
the same machinery with (u, m) read as (w, n) = (q^n, n) in the y-exponent.

Symbols, operators and truncated operators are `_terms.TermMap`s: they
merge equal keys only in their constructors, through `_terms.collect`,
the base writes their sums, negatives, scalar multiples, equality and
hash, and each class writes only its product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from ._terms import TermMap, collect, nest, pairs, product
from .errors import (
    DomainMismatch,
    EngineError,
    NotIntegralAtOne,
    UnsupportedGenerator,
)
from .exactscalar import ExactScalar, TruncatedScalar, binary_power, scalar
from .rings import POLY_X, POLY_Y, LAURENT_X, RingElement


def _tup(domain, e):
    if isinstance(e, tuple):
        if len(e) != domain.nvars:
            raise DomainMismatch(f"shift {e} on {domain!r}")
        return e
    # plain integers broadcast across the coordinates
    return (int(e),) * domain.nvars


def _zero_key(n):
    return (0,) * n


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

class Symbol(TermMap):
    """coeffs: {(u-exponents, m-exponents): ExactScalar}, tuples of length
    nvars; u-exponents range over Z, m-exponents over N."""

    __slots__ = ("nvars", "coeffs")
    _map = "coeffs"

    def __init__(self, nvars, coeffs):
        """coeffs: a dict or an iterable of ((iv, jv), scalar) terms."""
        self.nvars = nvars
        self.coeffs = collect(coeffs)
        for iv, jv in self.coeffs:
            if len(iv) != nvars or len(jv) != nvars:
                raise DomainMismatch(
                    f"symbol term {(iv, jv)} in {nvars} variables")

    def _header(self):
        return (self.nvars,)

    @staticmethod
    def constant(c, nvars=1):
        z = _zero_key(nvars)
        return Symbol(nvars, {(z, z): scalar(c, nvars)})

    @staticmethod
    def term(c, i, j):
        """c * u^i * m^j in one variable."""
        return Symbol(1, {((i,), (j,)): scalar(c)})

    def as_constant(self):
        """c when this symbol is the constant c, else None."""
        if len(self.coeffs) == 1:
            ((iv, jv), c), = self.coeffs.items()
            if not any(iv) and not any(jv):
                return c
        return None

    def __mul__(self, other):
        if isinstance(other, (int, ExactScalar)):
            return self.scale(scalar(other, self.nvars))
        # a constant factor c scales the other's terms and keeps their
        # order, as the generic product does
        for a, b in ((self, other), (other, self)):
            c = b.as_constant()
            if c is not None:
                return a if c.is_one() else a.scale(c)
        return Symbol(self.nvars, (
            ((tuple(a + b for a, b in zip(i1, i2)),
              tuple(a + b for a, b in zip(j1, j2))), c1 * c2)
            for (i1, j1), c1 in self.coeffs.items()
            for (i2, j2), c2 in other.coeffs.items()))

    def subst_shift(self, e, at=None):
        """u |-> q^e u, m |-> m + e (the inner-shift substitution).  With
        `at` = v, coordinate v is then read at m_v = 0: the result is free
        of u_v and m_v, and its value at m is this symbol's value at m + e
        with entry v set to e_v."""
        if at is None and not any(e):
            return self
        n = self.nvars

        def terms():
            for (iv, jv), c in self.coeffs.items():
                for v in range(n):
                    if e[v] and iv[v]:
                        c = c * ExactScalar.q_power(e[v] * iv[v], n, v)
                if at is not None:
                    # (m_v + e_v)^j at m_v = 0
                    if jv[at]:
                        c = c * e[at] ** jv[at]
                    iv = iv[:at] + (0,) + iv[at + 1:]
                    jv = jv[:at] + (0,) + jv[at + 1:]
                # expand prod_v (m_v + e_v)^{j_v}; the stems stay distinct
                partial = [((), c)]
                for v in range(n):
                    j = jv[v]
                    if e[v] == 0 or j == 0:
                        partial = [(stem + (j,), cc) for stem, cc in partial]
                        continue
                    ws = [math.comb(j, r) * e[v] ** (j - r) for r in range(j + 1)]
                    partial = [(stem + (r,), cc * w)
                               for stem, cc in partial for r, w in enumerate(ws)]
                for jnew, cc in partial:
                    yield (iv, jnew), cc

        return Symbol(n, terms())

    def eval_at(self, mvec):
        """The scalar s(q^m, m) at an integer exponent (vector)."""
        n = self.nvars
        out = ExactScalar.from_int(0, n)
        for (iv, jv), c in self.coeffs.items():
            w = c
            for v in range(n):
                if iv[v] and mvec[v]:
                    w = w * ExactScalar.q_power(iv[v] * mvec[v], n, v)
                if jv[v]:
                    w = w * (mvec[v] ** jv[v])
            out = out + w
        return out

    def is_m_free(self):
        return all(all(j == 0 for j in jv) for (_, jv) in self.coeffs)

    def __str__(self):
        from .render import symbol_str
        return symbol_str(self)


# ---------------------------------------------------------------------------
# graded operators
# ---------------------------------------------------------------------------

class GradedOperator(TermMap):
    """parts: {exponent-shift tuple: Symbol} over a tagged ring."""

    __slots__ = ("domain", "parts")
    _map = "parts"

    def __init__(self, domain, parts):
        """parts: a dict or an iterable of (shift, Symbol) terms."""
        self.domain = domain
        self.parts = collect((_tup(domain, e), s) for e, s in pairs(parts))
        for s in self.parts.values():
            if s.nvars != domain.nvars:
                raise DomainMismatch(
                    f"symbol in {s.nvars} variables on {domain!r}")

    def _header(self):
        return (self.domain,)

    @staticmethod
    def identity(domain):
        return GradedOperator(
            domain, {_zero_key(domain.nvars): Symbol.constant(1, domain.nvars)})

    def is_identity(self):
        return self == GradedOperator.identity(self.domain)

    def degrees(self):
        if self.domain.nvars == 1:
            return sorted(e[0] for e in self.parts)
        return sorted(self.parts)

    def __mul__(self, other):
        if isinstance(other, (int, ExactScalar)):
            return self.scale(scalar(other, self.domain.nvars))
        o = self._chk(other)
        return GradedOperator(self.domain, (
            (tuple(a + b for a, b in zip(e1, e2)), s2 * s1.subst_shift(e2))
            for e1, s1 in self.parts.items()      # outer (applied second)
            for e2, s2 in o.parts.items()))       # inner (applied first)

    def __pow__(self, k):
        if k < 0:
            raise DomainMismatch(f"operator power {k}: powers need k >= 0")
        if k == 0:
            return GradedOperator.identity(self.domain)
        return binary_power(self, k)

    def apply(self, p):
        if not isinstance(p, RingElement) or p.tag != self.domain:
            raise DomainMismatch("operand is not an element of the operator's ring")
        polyn = self.domain.kind == "polyn"    # tuple exponents

        def images():
            for m, c in p.terms.items():
                mv = m if polyn else (m,)
                for e, s in self.parts.items():
                    val = s.eval_at(mv)
                    if not val.is_zero():
                        tgt = tuple(a + b for a, b in zip(mv, e))
                        yield (tgt if polyn else tgt[0]), c * val

        # the constructor checks the merged exponents (OutOfSupport)
        return RingElement(self.domain, images())

    def check_preserves(self):
        """The defining support condition: parts with a negative shift kill
        the low monomials they would push out of the ring."""
        if self.domain.allows_negative:
            return True
        for e, s in self.parts.items():
            for v, ev in enumerate(e):
                if ev < 0:
                    for mval in range(-ev):
                        m = tuple(mval if w == v else 0 for w in range(len(e)))
                        if not s.subst_shift(m, at=v).is_zero():
                            return False
        return True

    def __str__(self):
        from .render import operator_str
        return operator_str(self)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

# k[y] is k[x] under the mirror a -> -a: on k[y], a generator named by its
# k[y] name or by its k[x] partner's has the parts of the k[x] generator
# at the negated argument
_MIRROR = {"y": "x", "partial_y": "dbeta", "sigma_y": "sigma",
           "dbeta_y": "dbeta"}


def generator(name, domain, arg=None):
    """The named generator as a GradedOperator on `domain`.

    one variable, direct degree:  x, tau, sigma(a), dbeta(a)
    one variable, inverse degree: y, partial_y, sigma_y(a), dbeta_y(a)
                                  (or x, dbeta(0), sigma(a), dbeta(a)), tau
    n variables:                  x_i(i), sigma_vec(a), dbeta_i((i, k))
    """
    nv = domain.nvars
    q1 = ExactScalar.from_int(1, nv)

    if domain.kind == "polyy":
        name = _MIRROR.get(name, name)
        arg = None if arg is None else -int(arg)

    if domain.kind in ("polyx", "laurent", "polyy"):
        if name == "x":
            return GradedOperator(domain, {(1,): Symbol.constant(1)})
        if name == "tau":
            return GradedOperator(domain, {(0,): Symbol.term(1, 0, 1)})
        if name == "sigma":
            a = int(arg)
            return GradedOperator(domain, {(0,): Symbol.term(1, a, 0)})
        if name == "dbeta":
            a = int(arg) if arg is not None else 0
            if a == 0:
                return GradedOperator(domain, {(-1,): Symbol.term(1, 0, 1)})
            d = ExactScalar.q_power(a) - 1
            sym = Symbol.term(d.inverse(), a, 0) + Symbol.term(-d.inverse(), 0, 0)
            return GradedOperator(domain, {(-1,): sym})
        raise UnsupportedGenerator(f"no generator {name!r} on {domain!r}")

    if domain.kind == "polyn":
        z = _zero_key(nv)
        if name == "x_i":
            i = int(arg)
            if not 0 <= i < nv:
                raise UnsupportedGenerator(f"no generator x{i + 1} on {domain!r}")
            e = tuple(1 if v == i else 0 for v in range(nv))
            return GradedOperator(domain, {e: Symbol.constant(1, nv)})
        if name == "sigma_vec":
            a = tuple(int(x) for x in arg)
            if len(a) != nv:
                raise UnsupportedGenerator(
                    f"s[...] takes {nv} shifts on {domain!r}, got {len(a)}")
            return GradedOperator(domain, {z: Symbol(nv, {(a, z): q1})})
        if name == "dbeta_i":
            i, k = arg
            if not 0 <= i < nv:
                raise UnsupportedGenerator(f"no generator D{i + 1} on {domain!r}")
            e = tuple(-1 if v == i else 0 for v in range(nv))
            if k == 0:
                jv = tuple(1 if v == i else 0 for v in range(nv))
                return GradedOperator(domain, {e: Symbol(nv, {(z, jv): q1})})
            # (u_i^k - 1)/(q_i - 1): same denominator for every k != 0
            d = (ExactScalar.q_power(1, nv, i) - q1).inverse()
            iv = tuple(k if v == i else 0 for v in range(nv))
            sym = Symbol(nv, {(iv, z): d, (z, z): -d})
            return GradedOperator(domain, {e: sym})
        raise UnsupportedGenerator(f"no generator {name!r} on {domain!r}")

    raise UnsupportedGenerator(f"unknown domain {domain!r}")


# ---------------------------------------------------------------------------
# module-level operations in the contract's names
# ---------------------------------------------------------------------------

def compose(phi, psi):
    """phi after psi."""
    return phi * psi


def linear_combine(terms):
    """terms: nonempty iterable of (scalar, operator)."""
    terms = list(terms)
    if not terms:
        raise DomainMismatch("linear_combine needs at least one term")
    first = terms[0][1]
    pieces = [first._chk(op) * scalar(c, op.domain.nvars) for c, op in terms]
    return GradedOperator(first.domain,
                          chain.from_iterable(p.parts.items() for p in pieces))


def apply(phi, p):
    return phi.apply(p)


def twisted_bracket(phi, psi, a=0):
    """[phi, psi]_a = phi psi - sum_b q^(a.b) psi_b phi over the homogeneous
    components psi_b of psi (grading degree, deg y = -1)."""
    d = phi._chk(psi).domain
    nv = d.nvars
    av = _tup(d, a)
    sgn = d.degree_sign
    pieces = [phi * psi]
    for e, s in psi.parts.items():
        w = ExactScalar.from_int(-1, nv)      # the piece is -q^(a.b) psi_b phi
        for v in range(nv):
            t = av[v] * sgn * e[v]
            if t:
                w = w * ExactScalar.q_power(t, nv, v)
        pieces.append(GradedOperator(d, {e: s}) * phi * w)
    return GradedOperator(d, chain.from_iterable(p.parts.items() for p in pieces))


def equals(phi, psi):
    return phi == psi


def extend_to_laurent(phi):
    """Glue map into operators on k[x, x^-1].

    Direct-degree parts keep their symbols; an inverse-degree part with
    y-shift d and symbol t(w, n) becomes the x-shift -d with symbol
    t(u^-1, -m).
    """
    if phi.domain == LAURENT_X:
        return phi
    if phi.domain == POLY_X:
        return GradedOperator(LAURENT_X, dict(phi.parts))
    if phi.domain == POLY_Y:
        return GradedOperator(LAURENT_X, (
            ((-d,), Symbol(1, ((((-i,), (j,)), -c if j % 2 else c)
                               for ((i,), (j,)), c in s.coeffs.items())))
            for (d,), s in phi.parts.items()))
    raise DomainMismatch("only the one-variable rings extend to the Laurent ring")


def is_m_free(phi):
    return all(s.is_m_free() for s in phi.parts.values())


# ---------------------------------------------------------------------------
# truncation: D_q  ->  operators over Q[t]/(t^n), q = 1 + t
# ---------------------------------------------------------------------------

def _binom_mpoly(i, k):
    """Coefficients (in m) of binomial(i*m, k) over Q; degree k list."""
    poly = [Fraction(1)]
    for r in range(k):
        # multiply by (i*m - r)
        nxt = [Fraction(0)] * (len(poly) + 1)
        for d, c in enumerate(poly):
            nxt[d + 1] += c * i
            nxt[d] -= c * r
        poly = nxt
    fk = math.factorial(k)
    return [c / fk for c in poly]


def _one_plus_t_pow_im(i, level):
    """(1+t)^{i m} mod t^level as {m-degree: TruncatedScalar}."""
    return collect(
        (d, TruncatedScalar(level, [c if r == k else 0 for r in range(level)]))
        for k in range(level) for d, c in enumerate(_binom_mpoly(i, k)) if c)


class TruncatedOperator(TermMap):
    """parts: {shift: {m-degree: TruncatedScalar}} at one truncation level."""

    __slots__ = ("domain", "level", "parts")
    _map = "parts"

    def __init__(self, domain, level, parts):
        """parts: {shift: {m-degree: TruncatedScalar}} or an iterable of
        ((shift, m-degree), TruncatedScalar) terms."""
        if domain.nvars != 1:
            raise DomainMismatch(
                "truncated operators live on the one-variable rings")
        self.domain = domain
        self.level = level
        self.parts = nest(parts)

    def _header(self):
        return (self.domain, self.level)

    def _terms(self):
        return (((e, j), c) for e, f in self.parts.items() for j, c in f.items())

    def __mul__(self, other):
        o = self._chk(other)
        return TruncatedOperator(self.domain, self.level, (
            ((e1 + e2, j), c)
            for e1, f1 in self.parts.items()      # outer
            for e2, f2 in o.parts.items()         # inner
            for j, c in product(f2, _mp_shift(f1, e2)).items()))

    def bracket_with_x(self):
        """[phi, x]: per part, (e, f(m)) |-> (e+1, f(m+1) - f(m))."""
        return TruncatedOperator(self.domain, self.level, (
            ((e + 1, j), c)
            for e, f in self.parts.items()
            for g in (_mp_shift(f, 1), {j: -c for j, c in f.items()})
            for j, c in g.items()))

    def max_m_degree(self):
        return max((max(f) for f in self.parts.values()), default=0)

    def __str__(self):
        from .render import truncated_operator_str
        return truncated_operator_str(self)


def _mp_shift(f, e):
    """f(m + e) for an m-polynomial with truncated coefficients."""
    if e == 0:
        return f
    return collect((r, c * Fraction(math.comb(j, r) * e ** (j - r)))
                   for j, c in f.items() for r in range(j + 1))


def _truncated_terms(s, clear, level):
    """(m-degree, coefficient) terms of the symbol s * clear expanded at
    q = 1 + t to order t^level."""
    for ((i,), (j,)), c in s.coeffs.items():
        tau = (c * clear).truncate(level)
        for d, ts in _one_plus_t_pow_im(i, level).items():
            yield d + j, tau * ts


def truncate_operator(phi, n):
    """Image of phi over Q[t]/(t^n), q = 1 + t.

    Integrality is a property of whole symbols, not of their separate
    coefficients: the Laurent expansion of  sum_i c_ij(1+t) (1+t)^{im}
    must have no pole in t for each m-degree j.  We clear the worst
    coefficient pole V, expand to order n + V, demand that the V leading
    orders vanish identically in m, and shift down.
    """
    if phi.domain.nvars != 1:
        raise DomainMismatch("truncation is defined for the one-variable rings")
    qm1 = ExactScalar.q_power(1) - 1
    terms = []
    for (e,), s in phi.parts.items():
        worst = 0
        for c in s.coeffs.values():
            v = c.valuation_at_1()
            if v < 0:
                worst = max(worst, -int(v))
        acc = collect(_truncated_terms(s, qm1 ** worst, n + worst))
        for j, ts in acc.items():
            if any(ts.coeffs[r] != 0 for r in range(worst)):
                raise NotIntegralAtOne(
                    f"symbol at shift {e} has a pole at q = 1")
        terms.extend(((e, j), TruncatedScalar(n, ts.coeffs[worst:worst + n]))
                     for j, ts in acc.items())
    return TruncatedOperator(phi.domain, n, terms)


def is_integral_at_1(phi):
    try:
        truncate_operator(phi, 1)
        return True
    except NotIntegralAtOne:
        return False


def bracket_nilpotence_order(phi_trunc):
    """Least N with the N-fold bracket-with-x of phi_trunc equal to zero
    (0 for the zero operator).  Finite: each bracket strictly lowers the
    m-degree, and the truncated coefficients live in a nilpotent ring."""
    n = 0
    cur = phi_trunc
    bound = cur.max_m_degree() + 2
    while not cur.is_zero():
        cur = cur.bracket_with_x()
        n += 1
        if n > bound:
            raise EngineError("nilpotence bound exceeded")
    return n
