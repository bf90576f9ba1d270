"""Pointwise oracle: apply an operator expression to x^m straight from the
generator definitions on k[x]:

    x x^m = x^{m+1},   tau x^m = m x^m,   s[b] x^m = q^{bm} x^m,
    D[a] x^m = (q^{am} - 1)/(q^a - 1) x^{m-1},   D[0] x^m = m x^{m-1},

with products read as composition (a*b applies b first) and
bracket(a, b, t) = a b - sum_d q^{t d} b_d a over the degree-d parts b_d
of b.  Nothing here goes through qdops.opsym: the interpreter walks the
public expression tree and does its arithmetic in a field object, exact
rationals at q = 2 (cheap enough for every case) or sympy's Q(q) (for a
seeded sample).
"""

import re
from fractions import Fraction


def _rational(text):
    """Python source for printed engine output (digits, q, u, m and
    + - * / ^ ( )), every integer a Fraction."""
    if not re.fullmatch(r"[0-9qum+\-*/^() ]*", text):
        raise ValueError(f"unexpected engine text {text!r}")
    return re.sub(r"\d+", lambda g: f"F({g.group()})", text.replace("^", "**"))


def _at(source, **values):
    return eval(source, {"__builtins__": {}, "F": Fraction}, values)


class PointField:
    """Q(q) evaluated at q = 2: exact rationals, cheap enough for every
    case.  Engine scalars enter through their printed form."""

    Q = Fraction(2)
    zero, one = Fraction(0), Fraction(1)

    def integer(self, n):
        return Fraction(n)

    def qpow(self, e):
        return self.Q ** e

    def scalar(self, value):
        return _at(_rational(str(value)), q=self.Q)


class SympyField:
    """Q(q) as a sympy rational function field.  Engine scalars enter
    through their printed form, so no internal layout is assumed.  sympy
    is imported here, after the timed loop, so it never shows in setup time
    or in the peak RSS of the timed cases."""

    def __init__(self):
        import sympy
        from sympy.polys.fields import field

        self._sympify = sympy.sympify
        self.K, self.q = field("q", sympy.QQ)
        self.zero = self.K.zero
        self.one = self.K.one
        self._sym = sympy.Symbol("q")

    def integer(self, n):
        return self.K(n)

    def qpow(self, e):
        return self.q ** e

    def scalar(self, value):
        expr = self._sympify(str(value).replace("^", "**"),
                             locals={"q": self._sym})
        return self.K.from_expr(expr)


def _add(p, r, F, sign=1):
    out = dict(p)
    for e, c in r.items():
        out[e] = out.get(e, F.zero) + (c if sign > 0 else -c)
    return {e: c for e, c in out.items() if c != F.zero}


def _scale(p, c, F):
    return {e: v * c for e, v in p.items() if v * c != F.zero}


class Interpreter:
    """Applies expressions to monomials; memoized per (node, exponent) so
    the shared subtrees of an integration DAG are visited once."""

    def __init__(self, F):
        self.F = F
        self.memo = {}

    def apply(self, e, poly):
        out = {}
        for j, c in poly.items():
            out = _add(out, _scale(self.mono(e, j), c, self.F), self.F)
        return out

    def scalar_of(self, e):
        p = self.mono(e, 0)
        if any(k != 0 for k in p):
            raise ValueError("divisor is not a scalar expression")
        return p.get(0, self.F.zero)

    def mono(self, e, j):
        key = (id(e), j)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self._mono(e, j)
        return hit

    def _mono(self, e, j):
        F = self.F
        kind = type(e).__name__
        if kind == "ENum":
            return _scale({j: F.one}, F.scalar(e.value), F)
        if kind == "EGen":
            name, a = e.name, e.arg
            if name == "x":
                return {j + 1: F.one}
            if name == "tau":
                return {j: F.integer(j)} if j else {}
            if name == "s":
                return {j: F.qpow(a * j)}
            if name == "D":
                if j == 0:
                    return {}
                if a == 0:
                    return {j - 1: F.integer(j)}
                return {j - 1: (F.qpow(a * j) - F.one) / (F.qpow(a) - F.one)}
            raise ValueError(f"no pointwise rule for generator {name!r}")
        if kind == "EAdd":
            return _add(self.mono(e.a, j), self.mono(e.b, j), F)
        if kind == "ESub":
            return _add(self.mono(e.a, j), self.mono(e.b, j), F, sign=-1)
        if kind == "ENeg":
            return _scale(self.mono(e.a, j), -F.one, F)
        if kind == "EMul":
            return self.apply(e.a, self.mono(e.b, j))
        if kind == "EDiv":
            return _scale(self.mono(e.a, j), F.one / self.scalar_of(e.b), F)
        if kind == "EPow":
            if e.k < 0:
                # only scalars (q^-1, ...) have negative powers on k[x]
                inv = F.one / self.scalar_of(e.base)
                return _scale({j: F.one}, inv ** -e.k, F)
            p = {j: F.one}
            for _ in range(e.k):
                p = self.apply(e.base, p)
            return p
        if kind == "EBracket":
            out = self.apply(e.a, self.mono(e.b, j))
            for i, alpha in self.mono(e.a, j).items():
                for k, beta in self.mono(e.b, i).items():
                    w = alpha * beta * F.qpow(e.twist * (k - i))
                    out = _add(out, {k: w}, F, sign=-1)
            return out
        raise ValueError(f"no pointwise rule for node {kind}")


def engine_image(op, m, F):
    """op applied to x^m by qdops (GradedOperator.apply), in field F."""
    from qdops.rings import POLY_X, RingElement
    img = op.apply(RingElement.monomial(POLY_X, m))
    out = {e: F.scalar(c) for e, c in img.terms.items()}
    # a nonzero rational function can vanish at the point a field samples
    return {e: c for e, c in out.items() if c != F.zero}


def mismatches(pairs, points, F):
    """pairs: (expr, engine operator).  Returns the (expr text, m) points at
    which the engine's image of x^m differs from the interpreter's."""
    interp = Interpreter(F)
    bad = []
    for expr, op in pairs:
        for m in points:
            if engine_image(op, m, F) != interp.mono(expr, m):
                bad.append((str(expr), m))
    return bad


def _split_symbol(body):
    """(numerator, denominator) of a printed symbol.  symbol_str prints
    N or N/D with at most one '/' outside parentheses; D is everything
    after it."""
    depth = 0
    for i, ch in enumerate(body):
        depth += (ch == "(") - (ch == ")")
        if ch == "/" and depth == 0:
            return body[:i], body[i + 1:]
    return body, "1"


def ambiguous(text):
    """Whether a printed operator has a denominator like 7*q^2 without
    parentheses, which the usual precedence reads as (N/7)*q^2."""
    if text == "0":
        return False
    dens = (_split_symbol(chunk.split("] ", 1)[1])[1]
            for chunk in text.split("; "))
    return any("*" in d and not d.startswith("(") for d in dens)


def rendered_mismatches(expr, text, points):
    """Check an operator as render.operator_str printed it ("[e=k]
    symbol(u, m); ...", u = q^m) against the interpreter at q = 2: the
    printed symbols, not the engine's objects, are what is compared.
    Each symbol is read as numerator over denominator, the way symbol_str
    builds it (see `ambiguous`)."""
    F = PointField()
    parts = {}
    if text != "0":
        for chunk in text.split("; "):
            head, body = chunk.split("] ", 1)
            parts[int(head[len("[e="):])] = [
                compile(_rational(side), "<symbol>", "eval")
                for side in _split_symbol(body)]
    interp = Interpreter(F)
    bad = []
    for m in points:
        got = {}
        at = {"q": F.Q, "u": F.Q ** m, "m": Fraction(m)}
        for e, (num, den) in parts.items():
            v = _at(num, **at) / _at(den, **at)
            if v:
                got[m + e] = v
        if got != interp.mono(expr, m):
            bad.append((str(expr), m))
    return bad
