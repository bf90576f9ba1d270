"""The underlying rings: k[x], k[y], k[x, x^-1], k[x_1..x_n], and the
quantum plane k<u, v>/(uv - q vu).

Ring elements are finite maps exponent -> scalar.  All four commutative
rings share one element type tagged by the ring; the plane gets its own
type because its product twists.  Both are `_terms.TermMap`s: they merge
equal keys only in their constructors, through `_terms.collect`, and
write only their products; the base writes the rest of the arithmetic.
"""

from __future__ import annotations

from ._terms import TermMap, collect, pairs
from .errors import DomainMismatch, OutOfSupport
from .exactscalar import ExactScalar, scalar


class RingTag:
    """Which ring we are over.  kind in {polyx, polyy, laurent, polyn}."""

    __slots__ = ("kind", "nvars")

    def __init__(self, kind, nvars=1):
        if kind not in ("polyx", "polyy", "laurent", "polyn"):
            raise DomainMismatch(f"unknown ring kind {kind!r}")
        self.kind = kind
        self.nvars = nvars

    @property
    def varname(self):
        return "y" if self.kind == "polyy" else "x"

    @property
    def allows_negative(self):
        return self.kind == "laurent"

    @property
    def degree_sign(self):
        """Grading degree per unit of exponent (deg y = -1)."""
        return -1 if self.kind == "polyy" else 1

    def __eq__(self, other):
        return isinstance(other, RingTag) and (self.kind, self.nvars) == (other.kind, other.nvars)

    def __hash__(self):
        return hash((self.kind, self.nvars))

    def __repr__(self):
        if self.kind == "polyn":
            return f"RingTag(polyn, n={self.nvars})"
        return f"RingTag({self.kind})"


POLY_X = RingTag("polyx")
POLY_Y = RingTag("polyy")
LAURENT_X = RingTag("laurent")


def poly_n(n):
    if n < 1:
        raise DomainMismatch(f"k[x_1..x_n] needs n >= 1, got {n}")
    return RingTag("polyn", n)


def _as_key(tag, e):
    return tuple(e) if tag.kind == "polyn" else int(e)


def _check_exponent(tag, e):
    if tag.kind == "polyn":
        if len(e) != tag.nvars:
            raise DomainMismatch(
                f"exponent {e} in a ring of {tag.nvars} variables")
        if any(x < 0 for x in e):
            raise OutOfSupport(f"exponent {e} not in the polynomial ring")
    elif e < 0 and not tag.allows_negative:
        raise OutOfSupport(f"exponent {e} not in the polynomial ring")


class RingElement(TermMap):
    """Element of the (commutative) ring named by `tag`."""

    __slots__ = ("tag", "terms")
    _map = "terms"

    def __init__(self, tag, terms):
        """terms: {exponent: scalar} or an iterable of (exponent, scalar)."""
        self.tag = tag
        nv = tag.nvars
        self.terms = collect((_as_key(tag, e), scalar(c, nv))
                             for e, c in pairs(terms))
        for k in self.terms:
            _check_exponent(tag, k)

    def _header(self):
        return (self.tag,)

    @staticmethod
    def one(tag):
        e = (0,) * tag.nvars if tag.kind == "polyn" else 0
        return RingElement(tag, {e: ExactScalar.from_int(1, tag.nvars)})

    @staticmethod
    def monomial(tag, e, c=1):
        return RingElement(tag, {e: scalar(c, tag.nvars)})

    def __mul__(self, other):
        if isinstance(other, (int, ExactScalar)):
            return self.scale(scalar(other, self.tag.nvars))
        o = self._chk(other)
        polyn = self.tag.kind == "polyn"
        return RingElement(self.tag, (
            (tuple(a + b for a, b in zip(e1, e2)) if polyn else e1 + e2, c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in o.terms.items()))

    def __repr__(self):
        return f"RingElement({self})"

    def __str__(self):
        from .render import ring_element_str
        return ring_element_str(self)


# ---------------------------------------------------------------------------
# the quantum plane
# ---------------------------------------------------------------------------

def _plane_key(a, b):
    if a < 0:
        raise OutOfSupport("negative u-power in the plane")
    return a, b


class PlaneElement(TermMap):
    """Element of k<u,v>/(uv = q vu) in normal form: sum of c * u^a v^b,
    a >= 0, b any integer (v is inverted)."""

    __slots__ = ("terms",)
    _map = "terms"

    def __init__(self, terms):
        """terms: {(a, b): scalar} or an iterable of ((a, b), scalar)."""
        self.terms = collect((_plane_key(a, b), scalar(c))
                             for (a, b), c in pairs(terms))

    @staticmethod
    def one():
        return PlaneElement({(0, 0): 1})

    @staticmethod
    def monomial(a, b, c=1):
        return PlaneElement({(a, b): c})

    def __mul__(self, other):
        if isinstance(other, (int, ExactScalar)):
            return self.scale(scalar(other))
        o = self._chk(other)
        # v^b1 u^a2 = q^(-a2 b1) u^a2 v^b1
        return PlaneElement(
            ((a1 + a2, b1 + b2), c1 * c2 * ExactScalar.q_power(-a2 * b1))
            for (a1, b1), c1 in self.terms.items()
            for (a2, b2), c2 in o.terms.items())

    def __repr__(self):
        return f"PlaneElement({self})"

    def __str__(self):
        from .render import plane_element_str
        return plane_element_str(self)


def x_of_plane(m=1):
    """The element x^m, x = u v^-1: x^m = q^(m(m-1)/2) u^m v^-m (m >= 0)."""
    if m < 0:
        raise OutOfSupport("x^m in the plane needs m >= 0")
    return PlaneElement({(m, -m): ExactScalar.q_power(m * (m - 1) // 2)})


def plane_to_x_poly(s):
    """Read an element supported on the x-line back as a polynomial in x.

    Returns the RingElement over k[x] with x^j-coefficient
    c_j / q^(j(j-1)/2), or None if some term is off the line u^j v^-j.
    """
    out = {}
    for (a, b), c in s.terms.items():
        if b != -a:
            return None
        out[a] = c * ExactScalar.q_power(-a * (a - 1) // 2)
    return RingElement(POLY_X, out)
