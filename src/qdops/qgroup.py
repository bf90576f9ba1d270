"""U_q(sl2): words in E, F, K, K^-1 (plus divided powers), their operator
realizations on k[x] and k[x^-1], the glued pairs, levelwise truncations,
and their action on the quantum plane k<u, v> with v inverted.

A word is an operator expression like any other: `_Hom` is the evaluator
`opexpr._Eval` with the letters read from a table of their images, so
scalars stay scalars until they meet a letter, and a divisor must be a
scalar.  The plane has one table per line a + b = n, which every letter
keeps: there a word is a one-variable graded operator on k[v, v^-1], so
the U_q relations on the plane and its agreement with alpha on the x-line
are identities of symbols.
"""

from __future__ import annotations

from functools import cache

from .errors import EngineError, GlueFailure, UnsupportedGenerator
from .exactscalar import ExactScalar, q_factorial, scalar
from .opexpr import _Eval, _fold, _promote, parse
from .opsym import (
    GradedOperator,
    Symbol,
    equals,
    extend_to_laurent,
    generator,
    truncate_operator,
    twisted_bracket,
)
from .rings import LAURENT_X, POLY_X, POLY_Y, PlaneElement, RingElement


# ---------------------------------------------------------------------------
# the morphisms alpha (on k[x]) and gamma (on k[x^-1])
# ---------------------------------------------------------------------------

@cache
def _alpha_letters():
    sig = lambda a: generator("sigma", POLY_X, a)
    dbe = lambda a: generator("dbeta", POLY_X, a)
    x = generator("x", POLY_X)
    q = ExactScalar.q_power
    return {
        "F": sig(-2) * dbe(2) * q(-1),
        "E": x * x * dbe(2) * (-q(2)),
        "K": sig(2),
        "Kinv": sig(-2),
    }


@cache
def _gamma_letters():
    # the inverse-degree ring twists by 1/q, so its beta-square derivative
    # is 1/q times ours; the prefactors below absorb that
    sig = lambda a: generator("sigma_y", POLY_Y, a)
    dbe = lambda a: generator("dbeta_y", POLY_Y, a)
    y = generator("y", POLY_Y)
    q = ExactScalar.q_power
    return {
        "F": sig(-2) * y * y * dbe(2) * (-q(-3)),
        "E": dbe(2),
        "K": sig(2),
        "Kinv": sig(-2),
    }


class _Hom(_Eval):
    """Values: ExactScalar while a subtree is scalar, else GradedOperator,
    with the letters read from a table of their images."""

    def __init__(self, letters, domain):
        super().__init__(domain)
        self.letters = letters

    def gen(self, e):
        if e.name in self.letters:
            return self.letters[e.name]
        if e.name in ("Ediv", "Fdiv"):
            m = int(e.arg)
            return self.letters[e.name[0]] ** m * q_factorial(m).inverse()
        raise UnsupportedGenerator(f"not a U_q leaf: {e.name!r}")

    def pow(self, e, base):
        if e.k < 0 and isinstance(base, GradedOperator):
            raise EngineError("negative power of a U_q word")
        return base ** e.k

    def bracket(self, e, a, b):
        if e.twist:
            raise EngineError("U_q brackets are untwisted")
        return super().bracket(e, a, b)


def _as_uq(w):
    return parse(w, mode="uq") if isinstance(w, str) else w


def _image(w, letters, domain):
    """The word w evaluated with the given letter images, as an operator."""
    return _promote(_fold(_as_uq(w), _Hom(letters, domain)), domain)


def alpha(w):
    return _image(w, _alpha_letters(), POLY_X)


def gamma(w):
    return _image(w, _gamma_letters(), POLY_Y)


def gamma_q_member(pair):
    dx, dy = pair
    return equals(extend_to_laurent(dx), extend_to_laurent(dy))


def eta(w):
    """(alpha(w), gamma(w)); the two extensions must glue."""
    pair = (alpha(w), gamma(w))
    if not gamma_q_member(pair):
        raise GlueFailure("alpha and gamma images do not glue on Laurent "
                          "polynomials")
    return pair


def eta_truncated(w, n):
    a, g = eta(w)
    return truncate_operator(a, n), truncate_operator(g, n)


# ---------------------------------------------------------------------------
# generators of the glued ring
# ---------------------------------------------------------------------------

def gamma_q_pairs():
    """The six generating pairs (operator on k[x], operator on k[x^-1])."""
    X = POLY_X
    Y = POLY_Y
    x = generator("x", X)
    y = generator("y", Y)
    d = lambda a: generator("dbeta", X, a)
    dy = lambda a: generator("dbeta_y", Y, a)
    pd_y = generator("partial_y", Y)
    q = ExactScalar.q_power
    return [
        (d(0), -(y * y * pd_y)),
        (-(x * x * d(0)), pd_y),
        (d(1), y * y * dy(1) * (-q(-1))),
        (x * x * d(1) * (-q(1)), dy(1)),
        (d(-1), y * y * dy(-1) * (-q(1))),
        (x * x * d(-1) * (-q(-1)), dy(-1)),
    ]


def gamma_generators_check():
    """Membership of the six pairs plus the twisted-bracket expressions
    recovering sigma, sigma^-1 and tau; returns a list of (name, ok)."""
    out = []
    for i, pair in enumerate(gamma_q_pairs(), 1):
        out.append((f"pair-{i}", gamma_q_member(pair)))

    X = POLY_X
    x = generator("x", X)
    d = lambda a: generator("dbeta", X, a)
    one = GradedOperator.identity(X)
    q = ExactScalar.q_power(1)
    qi = ExactScalar.q_power(-1)

    lhs = twisted_bracket(d(1), x * x * d(1), 2)
    c = (q - 1) / (q + 1)
    out.append(("sigma-formula",
                equals(lhs * c + one, generator("sigma", X, 1))))

    lhs = twisted_bracket(d(-1), x * x * d(-1), -2)
    c = (qi - 1) / (qi + 1)
    out.append(("sigma-inverse-formula",
                equals(lhs * c + one, generator("sigma", X, -1))))

    lhs = twisted_bracket(d(0), x * x * d(0))
    out.append(("tau-formula",
                equals(lhs * scalar("1/2"), generator("tau", X))))
    return out


# ---------------------------------------------------------------------------
# the quantum plane
# ---------------------------------------------------------------------------
#
# K(u) = qu, K(v) = v/q, E(u) = 0, E(v) = u, F(u) = v, F(v) = 0, spread
# over products by E(st) = E(s)t + K(s)E(t), F(st) = sF(t) + F(s)K^-1(t);
# on the inverse, E(1/v) = -q (1/v) u (1/v), F(1/v) = 0, K(1/v) = q/v.
# On monomials:
#
#   K(u^a v^b) = q^(a-b) u^a v^b,
#   E(u^a v^b) = q^(a+1-b) [b] u^(a+1) v^(b-1),
#   F(u^a v^b) = q^(b+1-a) [a] u^(a-1) v^(b+1).
#
# Every letter keeps a + b.  On the line a + b = n, u^(n-b) v^b is read as
# v^b in k[v, v^-1] (the ring LAURENT_X, exponent b, symbol variable
# w = q^b), and each letter is a one-variable graded operator there; its
# coefficient at the edge a = 0 is a multiple of [0] = 0, so `apply` never
# leaves the plane.


@cache
def _plane_letters(n):
    """The letters on the line a + b = n, from the formulas above with
    a = n - b."""
    q = ExactScalar.q_power
    c = (q(1) - q(-1)).inverse()
    sym = lambda *terms: Symbol(1, {((i,), (0,)): k for i, k in terms})
    return {
        "K": GradedOperator(LAURENT_X, {0: sym((-2, q(n)))}),
        "Kinv": GradedOperator(LAURENT_X, {0: sym((2, q(-n)))}),
        "E": GradedOperator(LAURENT_X, {-1: sym((-1, q(n + 1) * c),
                                                (-3, -q(n + 1) * c))}),
        "F": GradedOperator(LAURENT_X, {1: sym((1, q(1) * c),
                                               (3, -q(1 - 2 * n) * c))}),
    }


def plane_line_operator(w, n):
    """The action of the word w on the line a + b = n of the plane, as a
    graded operator on k[v, v^-1]."""
    return _image(w, _plane_letters(n), LAURENT_X)


def act_on_plane(w, s):
    """Act by the word/expression w on a plane element, line by line."""
    w = _as_uq(w)
    lines = {}
    for (a, b), c in s.terms.items():
        lines.setdefault(a + b, {})[b] = c
    return PlaneElement(
        ((n - b, b), c) for n, line in lines.items()
        for b, c in plane_line_operator(w, n).apply(
            RingElement(LAURENT_X, line)).terms.items())


def plane_alpha_consistent(w):
    """Does the plane action of w on the x-line match alpha(w) on every x^m?

    x^m = q^(m(m-1)/2) u^m v^-m lies on the line a + b = 0 at b = -m.  A
    part of that line's operator at v-shift f with symbol t(w) sends x^m
    to q^(mf - f(f+1)/2) t(q^-m) x^(m-f): the part at x-shift -f with
    symbol q^(-f(f+1)/2) u^f t(1/u) (the plane's symbols are m-free).
    Symbols are faithful on m >= 0, so one comparison decides every m.
    """
    w = _as_uq(w)
    q = ExactScalar.q_power
    on_x = GradedOperator(LAURENT_X, (
        (-f, Symbol(1, ((((f - i,), j), c * q(-f * (f + 1) // 2))
                        for ((i,), j), c in t.coeffs.items())))
        for (f,), t in plane_line_operator(w, 0).parts.items()))
    return equals(on_x, extend_to_laurent(alpha(w)))
