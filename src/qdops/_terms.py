"""The one merge rule for sparse term maps, and the arithmetic they share.

Every value of the engine that is a finite sum (symbols, operators, ring
and plane elements, shape polynomials, truncated m-polynomials) is a dict
key -> coefficient without zero coefficients.  `collect` is the only
place that builds one from terms; `nest` groups a flat map with pair keys
one level deep, and `product` multiplies two plain maps whose keys add
with `+`.

`TermMap` is the base of the six term-map classes: it writes zero, the
sum, the negative, the difference, the scalar multiple, equality and the
hash once, each result built by the subclass's own constructor.
"""

from itertools import chain

from .errors import DomainMismatch
from .exactscalar import ExactScalar


def pairs(terms):
    """The (key, value) terms of a dict, or `terms` itself."""
    return terms.items() if isinstance(terms, dict) else terms


def collect(terms):
    """{key: sum of its values} over a dict or an iterable of (key, value).

    Values of one key are added left to right in the order given; keys
    keep the order of their first term, and zero sums are dropped.
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


def product(a, b):
    """{k1 + k2: sum of c1 * c2} for two maps whose keys add with `+`
    (degrees), merged by `collect`."""
    return collect((k1 + k2, c1 * c2)
                   for k1, c1 in a.items() for k2, c2 in b.items())


class TermMap:
    """A finite sum held as a map in the attribute named by `_map`.

    The constructor of a subclass takes its header (`_header()`, the
    leading arguments: a variable count, a ring, a ring and a level, or
    nothing) and then a map or an iterable of flat (key, value) terms,
    which it merges through `collect`.  A subclass whose map is nested
    gives its flat terms in `_terms`.  Two maps are equal when they have
    the same type, the same header and equal maps; this is exact because
    no map holds a zero term.
    """

    __slots__ = ()
    _map = None

    def _header(self):
        return ()

    def _terms(self):
        return getattr(self, self._map).items()

    def _new(self, terms):
        return type(self)(*self._header(), terms)

    def _chk(self, other):
        if type(other) is not type(self) or other._header() != self._header():
            raise DomainMismatch(
                f"{type(self).__name__} arithmetic across domains")
        return other

    @classmethod
    def zero(cls, *header):
        return cls(*header, {})

    def is_zero(self):
        return not getattr(self, self._map)

    def __add__(self, other):
        return self._new(chain(self._terms(), self._chk(other)._terms()))

    def __neg__(self):
        return self._new((k, -v) for k, v in self._terms())

    def __sub__(self, other):
        return self._new(chain(self._terms(), (
            (k, -v) for k, v in self._chk(other)._terms())))

    def scale(self, c):
        """The multiple by a scalar of the values' kind."""
        return self._new((k, v * c) for k, v in self._terms())

    def __rmul__(self, other):
        if isinstance(other, (int, ExactScalar)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self._header() == other._header()
                and getattr(self, self._map) == getattr(other, other._map))

    def __hash__(self):
        return hash((self._header(), frozenset(getattr(self, self._map))))
