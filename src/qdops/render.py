"""Deterministic plain-text rendering for scalars, ring elements, symbols
and operators.

Every printed sum is built from four rules:

    _monomial   var^x factors joined by '*'       u^2*m
    _summand    coefficient text times monomial   -m, 3*u, (q + 1)*m
    _join       summands joined by signs          a + b - c
    _quotient   N/D                               m/(7*q^2)

Exponents print in descending order (truncated scalars: ascending).
Composite coefficients are parenthesized, and so is a denominator that
contains a sum or a product, so output reads back under the usual
precedence.  A lone rational prints bare in polynomials over Q
(`q + 3/7`) and parenthesized where the coefficients are scalars
(`x + (3/7)`)."""

import math


def _paren(s, breaks="+-/ "):
    """s, parenthesized if its body (after a leading minus) contains one
    of `breaks`, so that it can be spliced into a product."""
    body = s[1:] if s.startswith("-") else s
    return f"({s})" if any(ch in body for ch in breaks) else s


def _bare(s):
    return s


def _monomial(factors):
    """The factors var^x with x != 0 of the (var, x) pairs, '*'-joined."""
    return "*".join(v if x == 1 else f"{v}^{x}" for v, x in factors if x)


def _indexed(var, exps):
    """(var1, x1), (var2, x2), ... for an exponent vector."""
    return [(f"{var}{i + 1}", x) for i, x in enumerate(exps)]


def _summand(cs, mono, lone=_paren, factor=_paren):
    """Coefficient text `cs` times monomial text `mono` ('' for a constant
    term).  A unit coefficient prints as a sign; `lone` wraps a constant
    term and `factor` a coefficient in front of a monomial."""
    if not mono:
        return lone(cs)
    if cs in ("1", "-1"):
        return cs[:-1] + mono
    return f"{factor(cs)}*{mono}"


def _join(terms):
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _quotient(ns, ds):
    """N/D, or N when D is 1.  A denominator with a sum or a product is
    parenthesized: m/(7*q^2), never m/7*q^2."""
    if ds == "1":
        return ns
    return f"{_paren(ns)}/{_paren(ds, '+-*/ ')}"


def poly_terms_str(pairs, var):
    """pairs: iterable of (exponent, rational), rendered descending."""
    pairs = sorted(((e, c) for e, c in pairs if c), key=lambda t: -t[0])
    return _join([_summand(str(c), _monomial([(var, e)]), lone=_bare)
                  for e, c in pairs])


def _mpoly_str(d):
    """{exponent vector: rational} in q1..qn, rendered descending."""
    return _join([_summand(str(d[e]), _monomial(_indexed("q", e)), lone=_bare)
                  for e in sorted(d, reverse=True) if d[e]])


def scalar_str(s):
    if s.c == 0:
        return "0"
    if s.nvars > 1:
        return _quotient(_mpoly_str({e: s.c * c for e, c in s.num.items()}),
                         _mpoly_str(s.den))
    den = s.den
    if len([c for c in den if c]) == 1:
        # monomial denominator: print as a Laurent polynomial in q
        k, lead = len(den) - 1, den[-1]
        return poly_terms_str([(i - k, s.c * c / lead)
                               for i, c in enumerate(s.num)], "q")
    num = [(i, s.c * c) for i, c in enumerate(s.num)]
    return _quotient(poly_terms_str(num, "q"), poly_terms_str(enumerate(den), "q"))


def truncated_scalar_str(s):
    """c_0 + c_1*t + ... in Q[t]/(t^n), ascending, coefficients bare."""
    return _join([_summand(str(c), _monomial([("t", i)]), _bare, _bare)
                  for i, c in enumerate(s.coeffs) if c])


def ring_element_str(p):
    tag = p.tag
    terms = []
    for e in sorted(p.terms, reverse=True):
        factors = _indexed("x", e) if tag.kind == "polyn" else [(tag.varname, e)]
        terms.append(_summand(scalar_str(p.terms[e]), _monomial(factors)))
    return _join(terms)


def plane_element_str(s):
    return _join([_summand(scalar_str(s.terms[(a, b)]),
                           _monomial([("u", a), ("v", b)]))
                  for (a, b) in sorted(s.terms, reverse=True)])


def symbol_str(sym, uvar="u", mvar="m"):
    """One-variable symbols get a common denominator; several variables
    print term by term."""
    if sym.nvars == 1:
        return _symbol1_str(sym, uvar, mvar)
    return _join([_summand(scalar_str(sym.coeffs[(iv, jv)]),
                           _monomial(_indexed(uvar, iv) + _indexed(mvar, jv)))
                  for (iv, jv) in sorted(sym.coeffs, reverse=True)])


def _symbol1_str(sym, uvar, mvar):
    from . import kernel

    # common denominator over the coefficients
    den = [1]
    dlcm = 1
    for c in sym.coeffs.values():
        g = kernel.pgcd(den, list(c.den))
        den = kernel.pdiv_exact(kernel.pmul(den, list(c.den)), g)
        dlcm = dlcm * c.c.denominator // math.gcd(dlcm, c.c.denominator)
    terms = []
    for (iv, jv) in sorted(sym.coeffs, reverse=True):
        c = sym.coeffs[(iv, jv)]
        mult = kernel.pdiv_exact(den, list(c.den))
        npoly = kernel.pmul_int(kernel.pmul(list(c.num), mult),
                                c.c.numerator * (dlcm // c.c.denominator))
        terms.append(_summand(poly_terms_str(enumerate(npoly), "q"),
                              _monomial([(uvar, iv[0]), (mvar, jv[0])])))
    return _quotient(_join(terms),
                     poly_terms_str([(k, x * dlcm) for k, x in enumerate(den)],
                                    "q"))


def symbol_rows(op):
    """(degree, printed symbol) for each graded part of `op`, by degree.
    The symbol variables are w, n on k[y] and u, m elsewhere."""
    uvar, mvar = ("w", "n") if op.domain.kind == "polyy" else ("u", "m")
    return [(e, symbol_str(op.parts[e], uvar, mvar)) for e in sorted(op.parts)]


def _rows_str(rows):
    return "; ".join(f"[e={e}] {s}" for e, s in rows) or "0"


def operator_str(op):
    one = op.domain.nvars == 1
    return _rows_str((e[0] if one else e, s) for e, s in symbol_rows(op))


def truncated_operator_str(op):
    def part(f):
        return _join([_summand(truncated_scalar_str(f[j]), _monomial([("m", j)]))
                      for j in sorted(f, reverse=True)])

    return _rows_str((e, part(op.parts[e])) for e in sorted(op.parts))
