"""Exact scalars: the field Q(q) (or Q(q_1..q_n)) and its truncations.

A scalar is kept as  c * N/D  with c a rational number and N, D primitive
integer-coefficient polynomials, gcd(N, D) = 1, both with positive leading
coefficient.  In one variable N and D are dense tuples; in several they
are sparse maps, and D is a product of polynomials in one q_v each:
`inverse`, the only operation that turns a numerator into a denominator,
raises DomainMismatch on a divisor with a factor in several variables
such as q1 + q2, and sums and products keep that shape.  One rule then
reduces N/D to lowest terms in every arity: for each variable q_v, the
gcd of the q_v-contents of N and D (the gcds of their coefficients read
as polynomials in q_v) is divided out.  Every common factor of N and D
divides D, so it lives in a single q_v and is cancelled there; in one
variable the rule is gcd(N, D).  The triple is therefore canonical in
every arity, and equality, hashing and inversion are structural.

In one variable, products and sums build their result in canonical form
without the normalizing constructor.  A product cross-cancels N1 against
D2 and N2 against D1, and a product by c*q^k only shifts the other
factor's parts (`_times_q_power`).  A sum follows Henrici's rule (Knuth,
TAOCP 2, 4.5.1): with g = gcd(D1, D2) and D_i = g*d_i the sum is
(a*N1*d2 + b*N2*d1) / (d1*D2).  Its numerator is coprime to d1*d2, since
N_i is coprime to D_i and d1 to d2, so only h = gcd(num, g) can cancel.
Every gcd is then taken against a factor of D1 or D2, never against the
product D1*D2.

`truncate` maps a scalar with no pole at q = 1 into Q[t]/(t^n) via
q = 1 + t.  Both read N(1+t) and D(1+t), integer Taylor shifts: the
(q-1)-adic valuation `valuation_at_1` is the difference of their orders
in t, and the truncation divides the shared power of t out of both and
multiplies N(1+t) by the series inverse of D(1+t).
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import kernel
from .errors import (DivisionByZero, DomainMismatch, NotIntegralAtOne,
                     ParseError)

_ONE = (1,)


def _mono(e):
    """The 1-variable integer polynomial q^e (e >= 0)."""
    kernel.check_degree(e)
    return (0,) * e + (1,)


# ---------------------------------------------------------------------------
# multivariate helpers: dict {exponent-tuple: int}
# ---------------------------------------------------------------------------

def _mnorm(d):
    return {e: c for e, c in d.items() if c}


def _madd(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _mnorm(out)


def _mmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return _mnorm(out)


def _mscale(a, c):
    return {e: c * x for e, x in a.items()} if c else {}


def _mlead(a):
    """Coefficient of the lexicographically largest exponent."""
    return a[max(a)] if a else 0


def _rows(a, v):
    """a read as a polynomial in the other variables: {their exponents:
    the coefficient of that monomial, a dense polynomial in q_v}."""
    rows = {}
    for e, c in a.items():
        row = rows.setdefault(e[:v] + e[v + 1:], [])
        if len(row) <= e[v]:
            row.extend([0] * (e[v] + 1 - len(row)))
        row[e[v]] = c
    return rows


def _content(rows, g=()):
    """gcd of g and the q_v-coefficients in rows (the q_v-content)."""
    g = list(g)
    for p in rows.values():
        g = kernel.pgcd(g, p)
        if len(g) == 1:
            break
    return g


def _unrows(rows, g, v):
    """The inverse of `_rows`, after dividing every coefficient by g."""
    out = {}
    for rest, p in rows.items():
        for k, c in enumerate(kernel.pdiv_exact(p, g)):
            if c:
                out[rest[:v] + (k,) + rest[v:]] = c
    return out


def _has_mixed_factor(a, nvars):
    """Whether a has a factor in several variables: it is left over once
    the q_v-content of every variable is divided out."""
    for v in range(nvars):
        rows = _rows(a, v)
        g = _content(rows)
        if len(g) > 1:
            a = _unrows(rows, g, v)
    return len(a) > 1


def _hashable(p):
    """A num or den as a hashable value: the tuple, or a map's items."""
    return frozenset(p.items()) if isinstance(p, dict) else p


def binary_power(x, k):
    """x^k for k >= 1 by square-and-multiply: about 2 log2(k) products,
    none of a power above k.  It equals the k-fold product for every
    canonical type (scalars, operators)."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return out
        x = x * x


def _q_exponent(s):
    """k when the one-variable scalar s is c*q^k, else None.  In lowest
    terms one of num and den is then (1,) and the other q^|k|."""
    num, den = s.num, s.den
    if len(den) == 1:
        return None if any(num[:-1]) else len(num) - 1
    if len(num) == 1 and not any(den[:-1]):
        return 1 - len(den)
    return None


def _times_q_power(c, k, num, den):
    """The scalar c * q^k * num/den for num/den in lowest terms, with no
    gcd and no product.  A common factor of q^|k| and the side it is
    divided into (den when k > 0, num when k < 0) is a power of q, at most
    q^v with v that side's q-valuation: q^min(|k|, v) is struck off that
    side by dropping leading zeros, and the rest of q^|k| prepends zeros
    to the other.  Shifting keeps a part primitive with its lead positive,
    a factor q is left on one side only when the other has none, and the
    old parts were coprime, so the result is canonical as it stands."""
    if k > 0:
        m = min(k, _order(den))
        num, den = (0,) * (k - m) + num, den[m:]
    else:
        m = min(-k, _order(num))
        num, den = num[m:], (0,) * (-k - m) + den
    return ExactScalar._canonical(1, c, num, den)


class ExactScalar:
    """An element of Q(q) -- or Q(q_1..q_n) when nvars > 1.  Immutable."""

    __slots__ = ("nvars", "c", "num", "den")

    def __init__(self, nvars, c, num, den):
        # callers go through the factory helpers; this normalizes (in
        # several variables, den must be a product of univariate factors).
        # A dense one-variable tuple is read as the map {(i,): coefficient}
        # and written back at the end, so one rule serves every arity: at
        # n = 1 it divides out gcd(N, D).
        self.nvars = nvars
        if nvars == 1:
            num, den = ({(i,): x for i, x in enumerate(p)} for p in (num, den))
        num, den = _mnorm(num), _mnorm(den)
        if not den:
            raise DivisionByZero("zero denominator")
        if not num or c == 0:
            c, num = Fraction(0), {(0,) * nvars: 1}
            den = num
        else:
            cn, cd = kernel.pcontent(num.values()), kernel.pcontent(den.values())
            c = Fraction(c) * Fraction(cn, cd)
            num = {e: x // cn for e, x in num.items()}
            den = {e: x // cd for e, x in den.items()}
            # one rule per variable q_v: divide out the gcd of the
            # q_v-contents of num and den
            for v in range(nvars):
                dr = _rows(den, v)
                g = _content(dr)
                if len(g) > 1:
                    nr = _rows(num, v)
                    g = _content(nr, g)
                    if len(g) > 1:
                        num, den = _unrows(nr, g, v), _unrows(dr, g, v)
            if _mlead(den) < 0:
                den, c = _mscale(den, -1), -c
            if _mlead(num) < 0:
                num, c = _mscale(num, -1), -c
        if nvars == 1:
            num, den = (tuple(p.get((i,), 0) for i in range(max(p)[0] + 1))
                        for p in (num, den))
        self.c, self.num, self.den = c, num, den

    @staticmethod
    def _canonical(nvars, c, num, den):
        """The scalar with parts already in canonical form (c a Fraction),
        taken as they are."""
        s = object.__new__(ExactScalar)
        s.nvars, s.c, s.num, s.den = nvars, c, num, den
        return s

    # -- factories ---------------------------------------------------------

    @staticmethod
    def from_fraction(f, nvars=1):
        one = _ONE if nvars == 1 else {(0,) * nvars: 1}
        return ExactScalar._canonical(nvars, Fraction(f), one, one)

    from_int = from_fraction

    @staticmethod
    def q_power(e, nvars=1, var=0):
        """q^e (Laurent: e may be negative); in n variables, q_var^e."""
        if nvars == 1:
            if e >= 0:
                return ExactScalar._canonical(1, Fraction(1), _mono(e), _ONE)
            return ExactScalar._canonical(1, Fraction(1), _ONE, _mono(-e))
        exp = [0] * nvars
        exp[var] = abs(e)
        t = {tuple(exp): 1}
        one = {(0,) * nvars: 1}
        num, den = (t, one) if e >= 0 else (one, t)
        return ExactScalar._canonical(nvars, Fraction(1), num, den)

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return self.c == 0

    def is_one(self):
        # in lowest terms num == den holds only for the unit
        return self.c == 1 and self.num == self.den

    def is_rational(self):
        return self.num == self.den

    def as_fraction(self):
        if not self.is_rational():
            raise DomainMismatch(f"{self} is not a rational number")
        return self.c

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExactScalar):
            if other.nvars != self.nvars:
                raise DomainMismatch(
                    f"scalar arity mismatch: {self.nvars} vs {other.nvars}")
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar.from_fraction(other, self.nvars)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.c == 0:
            return o
        if o.c == 0:
            return self
        if self.nvars == 1:
            # Henrici's rule: with g = gcd(D1, D2) and D_i = g*d_i the sum
            # is (a*N1*d2 + b*N2*d1) / (d1*D2), its content and sign moved
            # into c.  A factor of d1 dividing num would divide N1*d2, but
            # N1 is coprime to D1 and d1 to d2 (likewise for d2), so only
            # h = gcd(num, g) cancels, and then no factor of g is left in
            # both num/h and g/h.  The parts are primitive and lead
            # positive (Gauss's lemma): the result is canonical as it is.
            a, b = self.c, o.c
            d1, d2 = self.den, o.den
            if d1 == d2:
                g, d1, d2 = d1, _ONE, _ONE
            else:
                g = kernel.pgcd(d1, d2)
                if len(g) > 1:
                    d1, d2 = kernel.pdiv_exact(d1, g), kernel.pdiv_exact(d2, g)
            num = kernel.padd(
                kernel.pmul_int(kernel.pmul(self.num, d2), a.numerator * b.denominator),
                kernel.pmul_int(kernel.pmul(o.num, d1), b.numerator * a.denominator),
            )
            if not num:
                return ExactScalar.from_int(0)
            cn = kernel.pcontent(num)
            if num[-1] < 0:
                cn = -cn
            num = [x // cn for x in num]
            den = kernel.pmul(d1, o.den)
            if len(g) > 1:
                h = kernel.pgcd(num, g)
                if len(h) > 1:
                    num, den = kernel.pdiv_exact(num, h), kernel.pdiv_exact(den, h)
            return ExactScalar._canonical(1, Fraction(cn, a.denominator * b.denominator),
                                          tuple(num), tuple(den))
        a, b = self.c, o.c
        num = _madd(
            _mscale(_mmul(self.num, o.den), a.numerator * b.denominator),
            _mscale(_mmul(o.num, self.den), b.numerator * a.denominator),
        )
        den = _mmul(self.den, o.den)
        return ExactScalar(self.nvars, Fraction(1, a.denominator * b.denominator), num, den)

    __radd__ = __add__

    def __neg__(self):
        if self.c == 0:
            return self
        return ExactScalar._canonical(self.nvars, -self.c, self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.c == 0 or o.c == 0:
            return ExactScalar.from_int(0, self.nvars)
        # a rational factor scales c alone: the other's parts stay canonical
        if o.is_rational():
            return ExactScalar._canonical(self.nvars, self.c * o.c,
                                          self.num, self.den)
        if self.is_rational():
            return ExactScalar._canonical(self.nvars, self.c * o.c,
                                          o.num, o.den)
        if self.nvars == 1:
            k = _q_exponent(o)
            if k is not None:
                return _times_q_power(self.c * o.c, k, self.num, self.den)
            k = _q_exponent(self)
            if k is not None:
                return _times_q_power(self.c * o.c, k, o.num, o.den)
            # cross-cancel: the four parts are then pairwise coprime,
            # primitive and lead positive, so (Gauss's lemma) their
            # products are in lowest terms and canonical as they stand
            n1, d2 = list(self.num), list(o.den)
            g = kernel.pgcd(n1, d2)
            if len(g) > 1:
                n1, d2 = kernel.pdiv_exact(n1, g), kernel.pdiv_exact(d2, g)
            n2, d1 = list(o.num), list(self.den)
            g = kernel.pgcd(n2, d1)
            if len(g) > 1:
                n2, d1 = kernel.pdiv_exact(n2, g), kernel.pdiv_exact(d1, g)
            return ExactScalar._canonical(1, self.c * o.c,
                                          tuple(kernel.pmul(n1, n2)),
                                          tuple(kernel.pmul(d1, d2)))
        return ExactScalar(self.nvars, self.c * o.c,
                           _mmul(self.num, o.num), _mmul(self.den, o.den))

    __rmul__ = __mul__

    def inverse(self):
        if self.c == 0:
            raise DivisionByZero("inverting zero scalar")
        if self.nvars > 1 and _has_mixed_factor(self.num, self.nvars):
            raise DomainMismatch(
                f"cannot divide by {self}: it has a factor in several variables")
        # num and den both lead positive, so the swap is canonical
        return ExactScalar._canonical(self.nvars, 1 / self.c, self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e):
        if e == 0:
            return ExactScalar.from_int(1, self.nvars)
        return binary_power(self if e > 0 else self.inverse(), abs(e))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactScalar.from_fraction(other, self.nvars)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return ((self.nvars, self.c, self.num, self.den)
                == (other.nvars, other.c, other.num, other.den))

    def __hash__(self):
        # a rational scalar equals its Fraction and int, so hashes as they do
        if self.num == self.den:
            return hash(self.c)
        return hash((self.c, _hashable(self.num), _hashable(self.den)))

    # -- q = 1 + t -----------------------------------------------------------

    def valuation_at_1(self):
        """(q-1)-adic valuation; +inf for 0.  One variable only."""
        if self.nvars != 1:
            raise DomainMismatch("valuation_at_1 is defined for one variable")
        if self.c == 0:
            return math.inf
        return _order(_sub1t(self.num)) - _order(_sub1t(self.den))

    def truncate(self, n):
        """Image in Q[t]/(t^n) under q = 1+t.  Raises NotIntegralAtOne."""
        if self.nvars != 1:
            raise DomainMismatch("truncate is defined for one variable")
        if n < 1:
            raise DomainMismatch(f"truncation level must be at least 1, got {n}")
        if self.c == 0:
            return TruncatedScalar.zero(n)
        nt, dt = _sub1t(self.num), _sub1t(self.den)
        vn, vd = _order(nt), _order(dt)
        if vn < vd:
            raise NotIntegralAtOne(f"pole of order {vd - vn} at q=1")
        # N(1+t) and D(1+t) share the factor t^vd; divide it out of both
        num = [self.c * x for x in nt[vd:vd + n]]
        return (TruncatedScalar(n, num + [0] * (n - len(num)))
                * TruncatedScalar(n, _series_invert(dt[vd:], n)))

    # -- display -------------------------------------------------------------

    def __repr__(self):
        return f"ExactScalar({self})"

    def __str__(self):
        from .render import scalar_str
        return scalar_str(self)


def _sub1t(p):
    """p(1+t) for an integer polynomial p, by Horner's rule in place:
    out := out * (1+t) + c from the leading coefficient down."""
    out = []
    for c in reversed(p):
        out.append(0)
        for i in range(len(out) - 1, 0, -1):
            out[i] += out[i - 1]
        out[0] += c
    return out


def _order(p):
    """The index of the first nonzero coefficient of a nonzero p: at
    p = P(1+t), the multiplicity of the root q = 1 of P."""
    return next(i for i, c in enumerate(p) if c)


def _series_invert(d, n):
    """Inverse of d (d[0] != 0) modulo t^n, over Q."""
    inv = [Fraction(0)] * n
    inv[0] = Fraction(1) / d[0]
    for k in range(1, n):
        s = Fraction(0)
        for j in range(1, min(k, len(d) - 1) + 1):
            s += d[j] * inv[k - j]
        inv[k] = -s / d[0]
    return inv


# ---------------------------------------------------------------------------
# convenience values and q-combinatorics
# ---------------------------------------------------------------------------

ZERO = ExactScalar.from_int(0)
ONE = ExactScalar.from_int(1)
Q = ExactScalar.q_power(1)


def scalar(x, nvars=1):
    if isinstance(x, ExactScalar):
        return x
    try:
        f = Fraction(x)
    except ZeroDivisionError:
        raise DivisionByZero(f"zero denominator in {x!r}") from None
    except ValueError:
        raise ParseError(0, f"not a rational number: {x!r}") from None
    return ExactScalar.from_fraction(f, nvars)


def q_number(m, kind="gauss"):
    """Gauss [m] = (q^m-1)/(q-1) or balanced [m] = (q^m-q^-m)/(q-q^-1)."""
    if kind == "gauss":
        return (ExactScalar.q_power(m) - 1) / (Q - 1)
    if kind == "balanced":
        # sign(m) * (1 + q^2 + ... + q^(2|m|-2)) / q^(|m|-1)
        k = abs(m)
        return ExactScalar(1, -1 if m < 0 else 1, (1, 0) * k, _mono(max(k - 1, 0)))
    raise ValueError(f"unknown q-number kind {kind!r}")


def q_factorial(m):
    """The balanced q-factorial [1][2]...[m]."""
    out = ONE
    for i in range(1, m + 1):
        out = out * q_number(i, "balanced")
    return out


def valuation_at_1(s):
    return scalar(s).valuation_at_1()


def truncate(s, n):
    return scalar(s).truncate(n)


# ---------------------------------------------------------------------------
# Q[t]/(t^n)
# ---------------------------------------------------------------------------

class TruncatedScalar:
    """An element of Q[t]/(t^n): `level` = n, `coeffs` = (c_0 .. c_{n-1})."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level, coeffs):
        if len(coeffs) != level:
            raise DomainMismatch(
                f"{len(coeffs)} coefficients at truncation level {level}")
        self.level = level
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    @staticmethod
    def zero(level):
        return TruncatedScalar(level, (Fraction(0),) * level)

    @staticmethod
    def one(level):
        return TruncatedScalar(level, (Fraction(1),) + (Fraction(0),) * (level - 1))

    @staticmethod
    def from_fraction(f, level):
        return TruncatedScalar(level, (Fraction(f),) + (Fraction(0),) * (level - 1))

    def _chk(self, other):
        if not isinstance(other, TruncatedScalar):
            other = TruncatedScalar.from_fraction(other, self.level)
        if other.level != self.level:
            raise DomainMismatch("truncation level mismatch")
        return other

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        o = self._chk(other)
        return TruncatedScalar(self.level,
                               tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return TruncatedScalar(self.level, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._chk(other))

    def __mul__(self, other):
        o = self._chk(other)
        n = self.level
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(n - i):
                    out[i + j] += a * o.coeffs[j]
        return TruncatedScalar(n, tuple(out))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedScalar.from_fraction(other, self.level)
        if not isinstance(other, TruncatedScalar):
            return NotImplemented
        return self.level == other.level and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its Fraction and int, so hashes as they do
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.level, self.coeffs))

    def __repr__(self):
        return f"TruncatedScalar({self})"

    def __str__(self):
        from .render import truncated_scalar_str
        return truncated_scalar_str(self)
