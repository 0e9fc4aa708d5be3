"""The sparse-combination arithmetic shared by MultiPoly, UEAElement and
WeylElement."""

import random
from fractions import Fraction
from math import lcm
from operator import delitem, setitem

import pytest

from supercapelli.multipoly import MultiPoly, lincomb
from supercapelli.superlie import Ambient, UEAElement
from supercapelli.weyl import WeylElement

A11 = Ambient(1, 1)

# class, context, another context, monomial keys: constant first
CASES = {
    'MultiPoly': (MultiPoly, ('x', 'y'), ('x', 'z'),
                  [(0, 0), (1, 0), (0, 2), (1, 1)]),
    'UEAElement': (UEAElement, A11, Ambient(2, 1),
                   [(), ((0, 1),), ((1, 0),), ((0, 0), (1, 1))]),
    'WeylElement': (WeylElement, A11, Ambient(2, 1),
                    [((), ()), ((0,), ()), ((), (0,)), ((0,), (1,))]),
}

# (constant, +1, -1, negative non-unit) coefficients on the keys above
SAMPLE_COEFFS = (3, 1, -1, Fraction(-2, 3))

# str() of each sample element; the CLI's text output is built from it
SAMPLE_STR = {
    'MultiPoly': '-2/3*x*y - y^2 + x + 3',
    'UEAElement': '3 + E(1,1b) - E(1b,1) - 2/3*E(1,1)E(1b,1b)',
    'WeylElement': '3 - D(1,1) + y(1,1) - 2/3*y(1,1)D(1,1b)',
}


def sample(name):
    cls, ctx, _, keys = CASES[name]
    return cls(ctx, dict(zip(keys, SAMPLE_COEFFS)))


@pytest.mark.parametrize('name', sorted(CASES))
def test_shared_arithmetic(name):
    cls, ctx, other_ctx, keys = CASES[name]
    k0, k1, k2, k3 = keys
    x = cls(ctx, {k0: 2, k1: 0, k2: Fraction(1, 2)})
    assert x.terms == {k0: Fraction(2), k2: Fraction(1, 2)}
    assert all(type(c) is Fraction for c in x.terms.values())
    assert not x.is_zero() and cls.zero(ctx).is_zero()
    assert cls(ctx, {k1: 0}) == cls.zero(ctx)

    y = cls(ctx, {k2: Fraction(-1, 2), k3: 5})
    assert (x + y).terms == {k0: 2, k3: 5}
    assert (x - y).terms == {k0: 2, k2: 1, k3: -5}
    assert (-y).terms == {k2: Fraction(1, 2), k3: -5}
    assert x - x == cls.zero(ctx)
    assert y.scale(Fraction(2, 5)).terms == {k2: Fraction(-1, 5), k3: 2}
    assert 3 * y == y.scale(3)
    assert y.scale(0).is_zero()

    # equal elements built in different term orders
    a = cls(ctx, {k0: 1, k1: -2, k3: Fraction(1, 3)})
    b = cls(ctx, {k3: Fraction(2, 6), k1: -2, k0: Fraction(1)})
    assert a == b and hash(a) == hash(b)
    assert not a != b
    assert cls(other_ctx, {}) != cls.zero(ctx)

    with pytest.raises(ValueError):
        cls(ctx, {k0: 1}) + cls(other_ctx, {k0: 1})
    for other_name in CASES:
        if other_name != name:
            assert sample(name) != sample(other_name)
            assert not sample(name) == sample(other_name)


class SubFraction(Fraction):
    pass


@pytest.mark.parametrize('name', sorted(CASES))
def test_constructor_keeps_exact_fractions(name):
    cls, ctx, _, keys = CASES[name]
    k0, k1, k2, k3 = keys
    f = Fraction(-2, 3)
    x = cls(ctx, {k0: f, k1: 3, k2: '1/4', k3: SubFraction(5, 2)})
    # a value of type exactly Fraction is the input object itself
    assert x.terms[k0] is f
    # ints, strings and Fraction subclasses become plain Fractions
    assert x.terms == {k0: f, k1: 3, k2: Fraction(1, 4), k3: Fraction(5, 2)}
    assert all(type(c) is Fraction for c in x.terms.values())
    # zeros of every type are dropped, as before
    assert cls(ctx, {k0: 0, k1: Fraction(0), k2: SubFraction(0),
                     k3: 0.0}).terms == {}
    assert cls(ctx, {k0: 0, k1: f}).terms == {k1: f}
    # from_cleared inverts cleared(), with plain Fractions
    x = sample(name)
    den, ints = x.cleared()
    assert den == 3 and all(type(v) is int for v in ints.values())
    y = cls.from_cleared(ctx, den, ints)
    assert y == x and type(y) is cls
    assert all(type(c) is Fraction for c in y.terms.values())
    assert cls.from_cleared(ctx, *cls.zero(ctx).cleared()) == cls.zero(ctx)


def test_lincomb_matches_fraction_reference():
    rng = random.Random(21)
    for _ in range(300):
        pairs, want = [], {}
        for _ in range(rng.randrange(5)):
            c = Fraction(rng.randrange(-6, 7), rng.randrange(1, 9))
            den = rng.randrange(1, 13)
            ints = {rng.randrange(6): rng.randrange(-20, 21)
                    for _ in range(rng.randrange(5))}
            pairs.append((c, (den, ints)))
            for k, v in ints.items():
                want[k] = want.get(k, 0) + c * Fraction(v, den)
        D, got = lincomb(iter(pairs))
        assert D == lcm(*(c.denominator * den for c, (den, _) in pairs if c))
        assert all(type(v) is int and v for v in got.values())
        assert {k: Fraction(v, D) for k, v in got.items()} == \
            {k: v for k, v in want.items() if v}


def test_lincomb_edge_cases():
    assert lincomb([]) == (1, {})
    # a zero coefficient is skipped, and its denominator left out of D
    assert lincomb([(Fraction(0), (7, {'a': 1})),
                    (Fraction(1, 2), (3, {'b': 1}))]) == (6, {'b': 1})
    # a key that cancels is dropped; so are all of them
    assert lincomb([(1, (2, {'a': 1, 'b': 1})),
                    (Fraction(-1, 2), (1, {'a': 1}))]) == (2, {'b': 1})
    assert lincomb([(Fraction(1, 3), (1, {'a': 2})),
                    (Fraction(-2, 3), (1, {'a': 1}))]) == (3, {})
    # negative coefficients
    assert lincomb([(-3, (1, {'a': 2})),
                    (Fraction(-1, 4), (1, {'a': 4, 'b': -1}))]) == \
        (4, {'a': -28, 'b': 1})


@pytest.mark.parametrize('name', sorted(CASES))
def test_terms_are_read_only(name):
    """Every change to the terms of an element raises and leaves it as it
    was; equality, hashing and dict copies behave as on a plain dict."""
    cls, ctx, _, keys = CASES[name]
    x = sample(name)
    before = dict(x.terms)
    assert x.terms == before and before == x.terms
    for change in (lambda: setitem(x.terms, keys[0], Fraction(9)),
                   lambda: setitem(x.terms, 'new', Fraction(1)),
                   lambda: delitem(x.terms, keys[1])):
        with pytest.raises(TypeError):
            change()
    for change in (lambda: x.terms.clear(), lambda: x.terms.pop(keys[0]),
                   lambda: x.terms.update({keys[0]: 1}),
                   lambda: x.terms.setdefault(keys[0], 1)):
        with pytest.raises(AttributeError):
            change()
    assert dict(x.terms) == before and x == sample(name)
    assert hash(x) == hash(sample(name)) == hash(cls(ctx, before))
    # arithmetic copies the terms and never shares them
    y = x + x
    assert y.terms is not x.terms and dict(x.terms) == before
    assert y == x.scale(2) and x.terms.copy() == before


@pytest.mark.parametrize('name', sorted(CASES))
def test_str_is_pinned(name):
    x = sample(name)
    assert str(x) == SAMPLE_STR[name]
    assert repr(x) == SAMPLE_STR[name]
    assert str(CASES[name][0].zero(CASES[name][1])) == '0'


@pytest.mark.parametrize('name', ['UEAElement', 'WeylElement'])
def test_scalar_operand_raises_type_error(name):
    x = CASES[name][0].one(A11)
    for op in (lambda: x + 1, lambda: 1 + x, lambda: x - 1,
               lambda: 1 - x, lambda: x + Fraction(1, 2)):
        with pytest.raises(TypeError):
            op()
    # elements of different algebras over the same ambient do not mix
    with pytest.raises(TypeError):
        UEAElement.one(A11) + WeylElement.one(A11)


def test_multipoly_keeps_scalar_coercion():
    p = MultiPoly.variable(('x',), 'x')
    assert p + 1 == 1 + p == MultiPoly(('x',), {(1,): 1, (0,): 1})
    assert p - 1 == MultiPoly(('x',), {(1,): 1, (0,): -1})
