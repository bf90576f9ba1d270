"""The one merge rule for sparse term maps.

Every value of the engine that is a finite sum (symbols, operators, ring
and plane elements, shape polynomials, D-word expansions, n-variable
potential terms, truncated m-polynomials) is a dict key -> coefficient
without zero coefficients.  `collect` is the only place that builds one
from terms; `nest` groups a flat map with pair keys one level deep.
"""


def pairs(terms):
    """The (key, value) terms of a dict, or `terms` itself."""
    return terms.items() if isinstance(terms, dict) else terms


def collect(terms):
    """{key: sum of its values} over a dict or an iterable of (key, value).

    Values of one key are added left to right in the order given (n-variable
    scalars are not canonical, so the grouping fixes how a sum prints);
    keys keep the order of their first term, and zero sums are dropped.
    """
    out = {}
    for k, v in pairs(terms):
        out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if not v.is_zero()}


def nest(terms):
    """{outer: {inner: value}} from ((outer, inner), value) terms, or from
    a dict already of that nested shape, merged by `collect`."""
    if isinstance(terms, dict):
        terms = (((k, j), v) for k, f in terms.items() for j, v in f.items())
    out = {}
    for (k, j), v in collect(terms).items():
        out.setdefault(k, {})[j] = v
    return out
