"""Sparse exact-rational multivariate polynomials.

A MultiPoly is a finite map from exponent tuples to nonzero Fractions,
over an explicit ordered variable context.  Contexts are plain tuples of
names and are never implicit: the library mixes several coordinate systems
and silently identifying them is the main bug risk.

An element stores one form, its reduced cleared pair (den, ints): the
lcm of the denominators and the nonzero coefficients times it.  The
constructor makes it by one rule, _clear, and from_cleared stores a
pair a kernel built, divided by gcd(den, *ints); so two elements are
equal exactly when their contexts and pairs are.  The pair never
changes; `terms`, the read-only map from monomials to Fractions, is a
view of it built on first read.  Terms print in graded lexicographic
order, so printing and JSON output are deterministic.

Combination is the base shared with the enveloping algebra
(superlie.UEAElement) and the Weyl algebra (weyl.WeylElement): linear
arithmetic, equality, hashing and printing live there, and each
subclass adds its context, product, term order, monomial format and
JSON form.  lincomb sums scaled pairs on Python ints: +, -, scale and
the kernels read their sums and products back by from_cleared.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add
from types import MappingProxyType


def grlex_key(exp):
    """Sort key for graded-lex order, largest term first when reversed."""
    return (sum(exp), exp)


def _clear(items):
    """(den, ints) for (key, value) pairs with Fraction-coercible values:
    den is the lcm of the denominators, and ints maps the key of each
    nonzero value to the value times den."""
    fr = [(k, f) for k, x in items
          if (f := x if type(x) in (Fraction, int) else Fraction(x))]
    den = lcm(*[x.denominator for _, x in fr])
    return den, {k: x.numerator * (den // x.denominator) for k, x in fr}


def lincomb(pairs):
    """(D, ints) with ints / D = sum c * ints_c / den_c over the pairs
    (c, (den_c, ints_c)) of rational c and cleared entries: D is the lcm
    of every c.denominator * den_c, zero coefficients are skipped and
    zero entries dropped."""
    pairs = [(c, entry) for c, entry in pairs if c]
    D = lcm(*(c.denominator * den for c, (den, _) in pairs))
    out = {}
    for c, (den, ints) in pairs:
        a = c.numerator * (D // (c.denominator * den))
        for k, v in ints.items():
            out[k] = out.get(k, 0) + a * v
    return D, {k: v for k, v in out.items() if v}


class Combination:
    """A finite exact-rational combination of monomials over a context,
    stored as its reduced cleared pair.  A subclass keeps its context in
    a slot of its own, exposes it as `context`, and supplies the
    product, `sorted_terms` and `_format_monomial`; the linear
    arithmetic, equality, hashing and printing are shared."""

    __slots__ = ('_pair', '_terms')

    def __init__(self, terms=None):
        den, ints = _clear((terms or {}).items())
        self._pair = (den, MappingProxyType(ints))
        self._terms = None      # the Fraction view, built on first read

    @classmethod
    def zero(cls, context):
        return cls(context)

    @classmethod
    def from_cleared(cls, context, den, ints):
        """The element with terms ints / den, the inverse of cleared(); it
        stores the pair reduced by gcd(den, *ints), zeros dropped."""
        g = gcd(den, *ints.values())
        elem = cls(context)
        elem._pair = (den // g, MappingProxyType(
            {k: v // g for k, v in ints.items() if v}))
        return elem

    @property
    def terms(self):
        """Read-only {key: nonzero Fraction} view of the pair, kept."""
        if self._terms is None:
            den, ints = self._pair
            self._terms = MappingProxyType(
                {k: Fraction(v, den) for k, v in ints.items()})
        return self._terms

    def is_zero(self):
        return not self._pair[1]

    def _check(self, other):
        if self.context != other.context:
            raise ValueError('context mismatch: %r vs %r'
                             % (self.context, other.context))

    def cleared(self):
        """The stored (den, {key: int}) pair, with read-only ints, for
        kernels that run on Python ints and divide back once per term."""
        return self._pair

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self.from_cleared(self.context, *lincomb(
            ((1, self._pair), (1, other._pair))))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self.from_cleared(self.context, *lincomb(
            ((1, self._pair), (-1, other._pair))))

    def scale(self, c):
        return self.from_cleared(self.context,
                                 *lincomb(((Fraction(c), self._pair),)))

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.context == other.context and self._pair == other._pair

    def __hash__(self):
        den, ints = self._pair
        return hash((self.context, den, frozenset(ints.items())))

    def __str__(self):
        if not self.terms:
            return '0'
        parts = []
        for k, c in self.sorted_terms():
            mono = self._format_monomial(k)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append('-' + mono)
            else:
                parts.append('%s*%s' % (c, mono))
        out = parts[0]
        for p in parts[1:]:
            out += ' - ' + p[1:] if p.startswith('-') else ' + ' + p
        return out

    __repr__ = __str__


class MultiPoly(Combination):

    __slots__ = ('vars', '_plan')

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        terms = {tuple(e): c for e, c in (terms or {}).items()}
        if any(len(e) != len(self.vars) for e in terms):
            raise ValueError('exponent length does not match context')
        super().__init__(terms)
        self._plan = None       # evaluate's integer plan, built on demand

    @classmethod
    def from_cleared(cls, vars, den, ints):
        if any(len(e) != len(vars) for e in ints):
            raise ValueError('exponent length does not match context')
        return super().from_cleared(vars, den, ints)

    @property
    def context(self):
        return self.vars

    @classmethod
    def const(cls, vars, c):
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): Fraction(c)})

    @classmethod
    def variable(cls, vars, name):
        vars = tuple(vars)
        i = vars.index(name)
        exp = tuple(1 if k == i else 0 for k in range(len(vars)))
        return cls(vars, {exp: Fraction(1)})

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self._pair[1]), default=-1)

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.vars, other)
        return super().__add__(other)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.vars, other)
        return super().__sub__(other)

    def __mul__(self, other):
        """Product on the cleared ints, divided back once per term."""
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check(other)
        (den1, ints1), (den2, ints2) = self.cleared(), other.cleared()
        terms = {}
        for e1, c1 in ints1.items():
            for e2, c2 in ints2.items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MultiPoly.from_cleared(self.vars, den1 * den2, terms)

    def __pow__(self, k):
        if not (isinstance(k, int) and k >= 0):
            raise ValueError('exponent must be a nonnegative integer')
        result = MultiPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def evaluate(self, point):
        """Exact value at a point (sequence of Fractions, one per variable).

        Runs on Python ints: with p_i = n_i / d_i and K_i the top exponent
        of variable i, a term c x^e contributes c * prod n_i^e_i
        d_i^(K_i - e_i) over the common denominator prod d_i^K_i, so the
        sum takes one table lookup per variable and term and a single
        division at the end.  The stored ints as a list and the K_i are
        the polynomial's plan, built on the first call and kept: the pair
        never changes."""
        point = [p if type(p) is Fraction else Fraction(p) for p in point]
        if len(point) != len(self.vars):
            raise ValueError('point length does not match context')
        den, ints = self._pair
        if not ints:
            return Fraction(0)
        if self._plan is None:
            self._plan = (list(ints.items()), [max(col) for col in zip(*ints)])
        terms, tops = self._plan
        tables = []
        for p, top in zip(point, tops):
            num, pden = p.numerator, p.denominator
            npow = [1]
            dpow = [1]
            for _ in range(top):
                npow.append(npow[-1] * num)
                dpow.append(dpow[-1] * pden)
            tables.append([a * b for a, b in zip(npow, reversed(dpow))])
            den *= dpow[-1]
        total = 0
        for e, c in terms:
            for table, k in zip(tables, e):
                c *= table[k]
            total += c
        return Fraction(total, den)

    def top_part(self):
        """Homogeneous part of highest total degree."""
        if self.is_zero():
            raise ValueError('zero polynomial has no top part')
        return self.homogeneous_part(self.degree())

    def homogeneous_part(self, d):
        den, ints = self._pair
        return MultiPoly.from_cleared(
            self.vars, den, {e: v for e, v in ints.items() if sum(e) == d})

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]),
                      reverse=True)

    def _format_monomial(self, e):
        return '*'.join(name if k == 1 else '%s^%d' % (name, k)
                        for name, k in zip(self.vars, e) if k > 0)

    def to_json(self):
        return {
            'vars': list(self.vars),
            'terms': [{'exp': list(e), 'coef': str(c)}
                      for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, data):
        vars = tuple(data['vars'])
        terms = {}
        for t in data['terms']:
            e = tuple(int(k) for k in t['exp'])
            terms[e] = terms.get(e, 0) + Fraction(t['coef'])
        return cls(vars, terms)


class AffineSubstitution:
    """An affine map sending each source variable to an affine form over
    the target context.  Composition with a polynomial substitutes every
    variable and expands exactly."""

    __slots__ = ('source', 'target', 'images')

    def __init__(self, source, target, images):
        """images: map source variable name -> (linear coeffs tuple, constant)."""
        self.source = tuple(source)
        self.target = tuple(target)
        self.images = {}
        for name in self.source:
            lin, const = images[name]
            lin = tuple(Fraction(c) for c in lin)
            if len(lin) != len(self.target):
                raise ValueError('linear part length does not match target')
            self.images[name] = (lin, Fraction(const))

    def image_poly(self, name):
        lin, const = self.images[name]
        p = MultiPoly.const(self.target, const)
        for coeff, var in zip(lin, self.target):
            if coeff:
                p = p + MultiPoly.variable(self.target, var).scale(coeff)
        return p

    def apply(self, p):
        """The substituted polynomial: one lincomb over the pair of p of
        the products of the powers of the variable images."""
        if p.vars != self.source:
            raise ValueError('polynomial context does not match substitution source')
        images = [self.image_poly(name) for name in self.source]
        # cache powers of the (few) variable images
        one = MultiPoly.const(self.target, 1)
        powers = [[one] for _ in images]
        den, ints = p.cleared()
        terms = []
        for e, c in ints.items():
            term = one
            for i, k in enumerate(e):
                while len(powers[i]) <= k:
                    powers[i].append(powers[i][-1] * images[i])
                if k:
                    term = term * powers[i][k]
            terms.append((c, term.cleared()))
        D, out = lincomb(terms)
        return MultiPoly.from_cleared(self.target, D * den, out)
