"""Sparse exact-rational multivariate polynomials.

A MultiPoly is a finite map from exponent tuples to nonzero Fractions,
over an explicit ordered variable context.  Contexts are plain tuples of
names and are never implicit: the library mixes several coordinate systems
and silently identifying them is the main bug risk.

Terms are kept in canonical form (no zero coefficients) and rendered in
graded lexicographic order so that printing and JSON output are
deterministic.  They are read-only (a MappingProxyType over the dict the
constructor builds): arithmetic returns new elements, and a value derived
from the terms and kept on the element stays valid.

Combination is the sparse-combination base shared with the enveloping
algebra (superlie.UEAElement) and the Weyl algebra (weyl.WeylElement):
canonical form, linear arithmetic, equality, hashing and printing live
there, and each subclass adds its context, product, term order,
monomial format and JSON form.  Exact linear combinations run on
Python ints, as cleared (den, ints) pairs made by one rule, _clear:
Combination.cleared keeps an element's pair, read-only, on the element,
lincomb sums scaled pairs and Combination.from_cleared reads one back
and keeps it, so an element a kernel built is never cleared again.
MultiPoly products and MultiPoly.evaluate run on the kept pairs too.
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
    """A finite exact-rational combination of monomials over a context.

    `terms` is a read-only map from monomial keys to nonzero Fractions.
    A subclass keeps its context in a slot of its own, exposes it as
    `context`, and supplies the product, `sorted_terms` and
    `_format_monomial`; the linear arithmetic, equality, hashing and
    printing are shared."""

    __slots__ = ('terms', '_cleared')

    def __init__(self, terms=None):
        # a plain Fraction is immutable and already reduced: keep it
        self.terms = MappingProxyType(
            {k: c if type(c) is Fraction else Fraction(c)
             for k, c in (terms or {}).items() if c != 0})
        self._cleared = None    # (terms, cleared pair), kept by cleared()

    @classmethod
    def zero(cls, context):
        return cls(context)

    @classmethod
    def from_cleared(cls, context, den, ints):
        """The element with terms ints / den, the inverse of cleared(); it
        keeps the pair reduced by gcd(den, *ints), as cleared() makes it."""
        g = gcd(den, *ints.values())
        den, ints = den // g, {k: v // g for k, v in ints.items() if v}
        elem = cls(context, {k: Fraction(v, den) for k, v in ints.items()})
        elem._cleared = (elem.terms, (den, MappingProxyType(ints)))
        return elem

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.context != other.context:
            raise ValueError('context mismatch: %r vs %r'
                             % (self.context, other.context))

    def cleared(self):
        """(den, {key: int}): the lcm of the denominators and the terms
        times it, for kernels that run on Python ints and divide back
        once per output term.  Kept, with read-only ints, and made again
        only if `terms` itself has been replaced."""
        if self._cleared is None or self._cleared[0] is not self.terms:
            den, ints = _clear(self.terms.items())
            self._cleared = (self.terms, (den, MappingProxyType(ints)))
        return self._cleared[1]

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        terms = self.terms.copy()
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return type(self)(self.context, terms)

    def __neg__(self):
        return type(self)(self.context, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        return type(self)(self.context,
                          {k: c * v for k, v in self.terms.items()})

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self):
        return hash((self.context, frozenset(self.terms.items())))

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
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

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
        division at the end.  The K_i and the kept cleared terms as a
        list are the polynomial's plan, built on the first call and kept
        with the ints it was read from."""
        point = [p if type(p) is Fraction else Fraction(p) for p in point]
        if len(point) != len(self.vars):
            raise ValueError('point length does not match context')
        if not self.terms:
            return Fraction(0)
        den, ints = self.cleared()
        plan = self._plan
        if plan is None or plan[0] is not ints:
            plan = self._plan = (ints, list(ints.items()),
                                 [max(col) for col in zip(*ints)])
        _, terms, tops = plan
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
        if not self.terms:
            raise ValueError('zero polynomial has no top part')
        return self.homogeneous_part(self.degree())

    def homogeneous_part(self, d):
        return MultiPoly(self.vars, {e: c for e, c in self.terms.items()
                                     if sum(e) == d})

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]),
                      reverse=True)

    def rename(self, new_vars):
        """Same terms over a different (equal-length) context."""
        new_vars = tuple(new_vars)
        if len(new_vars) != len(self.vars):
            raise ValueError('context length mismatch')
        return MultiPoly(new_vars, self.terms)

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
        if p.vars != self.source:
            raise ValueError('polynomial context does not match substitution source')
        images = [self.image_poly(name) for name in self.source]
        # cache powers of the (few) variable images
        powers = [[MultiPoly.const(self.target, 1)] for _ in images]
        result = MultiPoly.zero(self.target)
        for e, c in p.terms.items():
            term = MultiPoly.const(self.target, c)
            for i, k in enumerate(e):
                while len(powers[i]) <= k:
                    powers[i].append(powers[i][-1] * images[i])
                if k:
                    term = term * powers[i][k]
            result = result + term
        return result
