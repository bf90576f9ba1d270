"""Shape normal form: sums of  sigma^a * p(x) * D^(i1) ... D^(ik)  with
each i_l in {0, 1} (D^(0) the plain q-derivative, D^(1) its twisted
partner).  The inverse twist D^(-1) is eliminated up front through
D^(-1) = sigma^-1 D^(1).

Rewriting uses only the ring's defining relations:

    D^(c) x   = q^c x D^(c) + 1
    x sigma^a = q^-a sigma^a x
    D^(c) sigma^a = q^a sigma^a D^(c)

so pushing a power of x through a word costs one deletion sum:

    D^I x = q^w x D^I + sum_j q^(w_j) D^(I minus j),   w = sum(I),
    w_j = sum of the entries right of position j.
"""

from __future__ import annotations

from itertools import chain

from ._terms import TermMap, collect, nest, product
from .errors import EngineError, UnsupportedGenerator
from .exactscalar import ExactScalar, scalar
from . import opexpr
from .opexpr import EAdd, EGen, EMul, ENum, EPow, _Algebra, _fold


def _pscale(p, c):
    return collect((d, v * c) for d, v in p.items())


def twist_poly(p, s):
    """x^i |-> q^(s i) x^i on the coefficients."""
    if s == 0:
        return dict(p)
    return {d: c * ExactScalar.q_power(s * d) for d, c in p.items()}


_push_cache = {}


def _push(I, k):
    """D^I x^k as a list of (subword J, polynomial): sum poly(x) * D^J."""
    key = (I, k)
    hit = _push_cache.get(key)
    if hit is not None:
        return hit
    one = ExactScalar.from_int(1)
    if k == 0:
        out = [(I, {0: one})]
    else:
        # the terms (word, x-power, coefficient) of D^I x
        heads = [(I, 1, ExactScalar.q_power(sum(I)))]
        for j in range(len(I)):
            heads.append((I[:j] + I[j + 1:], 0, ExactScalar.q_power(sum(I[j + 1:]))))
        out = list(nest(
            ((J2, dh + d), ch * c)
            for J, dh, ch in heads for J2, poly in _push(J, k - 1)
            for d, c in poly.items()).items())
    _push_cache[key] = out
    return out


class ShapeForm(TermMap):
    """classes: {(sigma-exponent a, word I): x-polynomial}, zero classes
    dropped.  Not canonical -- the same operator has many shapes, and
    equality compares shapes, not operators."""

    __slots__ = ("classes",)
    _map = "classes"

    def __init__(self, classes):
        """classes: {(a, I): {x-degree: scalar}} or an iterable of
        (((a, I), x-degree), scalar) terms; words I are tuples."""
        self.classes = nest(classes)

    @staticmethod
    def of_term(a, p, I):
        return ShapeForm({(a, tuple(I)): {d: scalar(c) for d, c in p.items()}})

    def _terms(self):
        return ((((a, I), d), c)
                for (a, I), p in self.classes.items() for d, c in p.items())

    def __mul__(self, other):
        o = self._chk(other)

        def terms():
            for (a1, I1), p1 in self.classes.items():
                for (a2, I2), p2 in o.classes.items():
                    pref = ExactScalar.q_power(a2 * len(I1)) if a2 * len(I1) else None
                    p1t = twist_poly(p1, -a2)
                    for d2, c2 in p2.items():
                        for J, poly in _push(I1, d2):
                            newp = product(p1t, _pscale(poly, c2))
                            if pref is not None:
                                newp = _pscale(newp, pref)
                            for d, c in newp.items():
                                yield ((a1 + a2, J + I2), d), c

        return ShapeForm(terms())

    # -- the moves the simplicity walk uses --------------------------------

    def left_sigma(self, s):
        """sigma^s * self; the twists sit leftmost, so they just merge."""
        return ShapeForm({(s + a, I): p for (a, I), p in self.classes.items()})

    def bracket_x(self):
        """[self, x]: per class, (q^w - q^-a) sigma^a x p D^I plus the
        deletion terms."""
        def terms():
            for (a, I), p in self.classes.items():
                coef = ExactScalar.q_power(sum(I)) - ExactScalar.q_power(-a)
                for d, c in p.items():
                    yield ((a, I), d + 1), c * coef
                for j in range(len(I)):
                    w = ExactScalar.q_power(sum(I[j + 1:]))
                    for d, c in p.items():
                        yield ((a, I[:j] + I[j + 1:]), d), c * w

        return ShapeForm(terms())

    # -- inspection ---------------------------------------------------------

    def max_word_len(self):
        return max((len(I) for (_, I) in self.classes), default=0)

    def top_classes(self):
        d = self.max_word_len()
        return [(a, I) for (a, I) in self.classes if len(I) == d]

    def sigma_exponents(self):
        return sorted({a for (a, _) in self.classes})

    def total_x_degree(self):
        return sum(max(p) for p in self.classes.values())

    def to_expr(self):
        out = None
        for (a, I) in sorted(self.classes):
            p = self.classes[(a, I)]
            term = None
            if a:
                term = EGen("s", a)
            poly = None
            for d in sorted(p, reverse=True):
                mono = None
                c = p[d]
                if d:
                    mono = EGen("x") if d == 1 else EPow(EGen("x"), d)
                    if not c.is_one():
                        mono = EMul(ENum(c), mono)
                else:
                    mono = ENum(c)
                poly = mono if poly is None else EAdd(poly, mono)
            term = poly if term is None else EMul(term, poly)
            for i in I:
                term = EMul(term, EGen("D", i))
            out = term if out is None else EAdd(out, term)
        return out if out is not None else ENum(ExactScalar.from_int(0))

    def __str__(self):
        return opexpr.expr_str(self.to_expr())

    def __repr__(self):
        return f"ShapeForm({self})"


_X = ShapeForm.of_term(0, {1: 1}, ())
_ONE_SHAPE = ShapeForm.of_term(0, {0: 1}, ())


def _shape_of_gen(name, arg):
    if name == "x":
        return _X
    if name == "tau":
        return ShapeForm.of_term(0, {1: 1}, (0,))
    if name == "s":
        return ShapeForm.of_term(arg, {0: 1}, ())
    if name == "D":
        a = arg
        if a == 0:
            return ShapeForm.of_term(0, {0: 1}, (0,))
        if a == 1:
            return ShapeForm.of_term(0, {0: 1}, (1,))
        if a == -1:
            return ShapeForm.of_term(-1, {0: 1}, (1,))
        raise UnsupportedGenerator(
            "shapes only carry D[0], D[1] and D[-1] words")
    raise UnsupportedGenerator(f"no shape for leaf {name!r}")


def _is_scalar_shape(sf):
    if not sf.classes:
        return ExactScalar.from_int(0)
    if len(sf.classes) == 1:
        ((a, I), p), = sf.classes.items()
        if a == 0 and not I and set(p) == {0}:
            return p[0]
    return None


class _Shapes(_Algebra):
    """Values: ShapeForm; sums, differences, negatives and products are
    the ShapeForm ring operations."""

    def num(self, e):
        return ShapeForm.of_term(0, {0: e.value}, ())

    def gen(self, e):
        return _shape_of_gen(e.name, e.arg)

    def div(self, e, a, b):
        c = _is_scalar_shape(b)
        if c is None or c.is_zero():
            raise EngineError("shape division needs a nonzero scalar divisor")
        return a.scale(c.inverse())

    def pow(self, e, base):
        if e.k < 0:
            cls = list(base.classes.items())
            if len(cls) != 1 or cls[0][0][1] or set(cls[0][1]) != {0}:
                raise EngineError("negative shape power of a non-invertible "
                                  "factor")
            (a, _), p = cls[0]
            base = ShapeForm.of_term(-a, {0: p[0].inverse()}, ())
        # ShapeForm is not canonical: keep the plain left-to-right product
        out = _ONE_SHAPE
        for _ in range(abs(e.k)):
            out = out * base
        return out

    def bracket(self, e, A, B):
        pieces = [A * B]
        for (a, I), p in B.classes.items():
            for d, c in p.items():
                # the piece is -q^(twist * deg) b A for the term b of B
                w = -ExactScalar.q_power(e.twist * (d - len(I)))
                pieces.append((ShapeForm.of_term(a, {d: c}, I) * A).scale(w))
        return ShapeForm(chain.from_iterable(p._terms() for p in pieces))


_SHAPES = _Shapes()


def shape_normalize(e):
    """OperatorExpr (one variable, direct degree) -> ShapeForm."""
    if isinstance(e, ShapeForm):
        return e
    return _fold(e, _SHAPES)
