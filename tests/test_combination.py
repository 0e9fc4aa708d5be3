"""The sparse-combination arithmetic shared by MultiPoly, UEAElement and
WeylElement."""

import random
from fractions import Fraction
from itertools import product
from math import lcm
from operator import delitem, setitem
from types import MappingProxyType

import pytest

from supercapelli import multipoly, superlie, weyl
from supercapelli.hooks import HookParams, enumerate_hooks, parse_partition
from supercapelli.multipoly import Combination, MultiPoly, lincomb, _clear
from supercapelli.solver import c_poly_hc, c_star_poly, full_preimage
from supercapelli.superlie import (Ambient, UEAElement, gelfand_element,
                                   pbw_normalize)
from supercapelli.weyl import (WeylElement, capelli_operator,
                               consecutive_cycles_perm, rho_check,
                               spherical_poly, t_sigma, weyl_mul)

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


# ---------------------------------------------------------------------------
# The cleared (den, ints) pair kept on each element, against the clearing
# rules recomputed from scratch on every call.

def reference_cleared(x):
    """The lcm of the denominators of the terms and the terms times it,
    recomputed from the terms on every call."""
    den = lcm(*(c.denominator for c in x.terms.values()))
    return den, {k: c.numerator * (den // c.denominator)
                 for k, c in x.terms.items()}


def reference_clear(items):
    """The clearing of (key, value) pairs with Fraction-coercible values,
    zeros dropped, written as an incremental lcm."""
    den, fr = 1, []
    for k, x in items:
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        if x:
            den = lcm(den, x.denominator)
            fr.append((k, x))
    return den, {k: x.numerator * (den // x.denominator) for k, x in fr}


def _kernel_built():
    """(label, element) for an element built by each kernel path."""
    amb = Ambient(1, 2)
    params = HookParams(1, 1, 'half')
    z = gelfand_element(amb, 2).scale(Fraction(-1, 3))
    t = t_sigma(amb, consecutive_cycles_perm((2,)))
    D = capelli_operator(params, parse_partition('2,1', params))
    return [('pbw_normalize', pbw_normalize(z)),
            ('pbw_normalize mirrored', pbw_normalize(z, mirrored=True)),
            ('rho_check', rho_check(z)),
            ('weyl_mul', weyl_mul(t, rho_check(z))),
            ('t_sigma', t),
            ('capelli_operator', D),
            ('full_preimage', full_preimage(D, check_invariant=False))]


@pytest.mark.parametrize('name', sorted(CASES))
def test_kept_pair_equals_reference_on_every_path(name):
    cls, ctx, _, keys = CASES[name]
    x = sample(name)
    y = cls(ctx, {keys[0]: Fraction(5, 4), keys[2]: Fraction(-7, 6)})
    built = [('constructor', x), ('+', x + y), ('-', x - y),
             ('scale', x.scale(Fraction(-3, 10))), ('*', x * y),
             ('zero', cls.zero(ctx)),
             # an unreduced den and zero entries: kept reduced, zeros gone
             ('from_cleared', cls.from_cleared(
                 ctx, 12, {keys[0]: 4, keys[1]: 0, keys[2]: -6, keys[3]: 8})),
             ('from_cleared zeros', cls.from_cleared(ctx, 6, {keys[0]: 0})),
             ('from_cleared unit', cls.from_cleared(ctx, 5, {keys[1]: 5}))]
    if name == 'WeylElement':
        built += _kernel_built()
    for label, elem in built:
        pair = elem.cleared()
        assert pair == reference_cleared(elem), label
        assert elem.cleared() is pair, label
        den, ints = pair
        assert type(den) is int and den > 0, label
        assert all(type(v) is int and v for v in ints.values()), label
        assert type(elem).from_cleared(elem.context, *pair) == elem, label
    by_label = dict(built)
    assert by_label['from_cleared'].cleared() == \
        (6, {keys[0]: 2, keys[2]: -3, keys[3]: 4})
    assert by_label['from_cleared zeros'].cleared() == (1, {})
    assert by_label['from_cleared unit'].cleared() == (1, {keys[1]: 1})


@pytest.mark.parametrize('name', sorted(CASES))
def test_kept_ints_are_read_only_and_follow_the_terms(name):
    cls, ctx, _, keys = CASES[name]
    x = sample(name)
    den, ints = x.cleared()
    assert isinstance(ints, MappingProxyType)
    with pytest.raises(TypeError):
        ints[keys[0]] = 7
    with pytest.raises(TypeError):
        del ints[keys[1]]
    assert x.cleared() == reference_cleared(sample(name))
    # the terms are a view of the pair and cannot be replaced
    y = x.scale(Fraction(2, 7)) + cls(ctx, {keys[3]: Fraction(1, 5)})
    with pytest.raises(AttributeError):
        x.terms = y.terms
    with pytest.raises(AttributeError):
        del x.terms
    assert x.cleared() == (den, ints) and x == sample(name)
    assert x.cleared() is x.cleared()


def test_clear_equals_the_incremental_rule():
    rng = random.Random(31)
    values = [0, Fraction(0), '0', '-0/5']
    for _ in range(400):
        items = []
        for k in range(rng.randrange(7)):
            kind = rng.randrange(4)
            num, den = rng.randrange(-9, 10), rng.randrange(1, 13)
            v = (num if kind == 0 else Fraction(num, den) if kind == 1
                 else '%d/%d' % (num, den) if kind == 2
                 else rng.choice(values))
            items.append((k, v))
        got = _clear(iter(items))
        assert got == reference_clear(items), items
        assert all(type(v) is int and v for v in got[1].values())
    assert _clear([]) == (1, {})
    assert _clear([('a', '3/4'), ('b', 2), ('c', Fraction(-1, 6))]) == \
        (12, {'a': 9, 'b': 24, 'c': -2})


def _frontier_objects(m, n, d):
    """D, z, c, c* and d for every hook of size d at (m, n)."""
    params = HookParams(m, n, 'half')
    out = {}
    for b in enumerate_hooks(params, d):
        D = capelli_operator(params, b)
        z = full_preimage(D, check_invariant=False)
        out[b] = (D, z, c_poly_hc(params, b, preimage=z).poly,
                  c_star_poly(params, b, preimage=z).poly,
                  spherical_poly(params, b, capelli=D))
    return out


@pytest.mark.parametrize('m, n, d', [(2, 2, 3), (1, 2, 4)])
def test_kept_pairs_equal_the_recomputed_route_at_the_frontier(
        m, n, d, monkeypatch):
    routes = []
    for cleared in (Combination.cleared, reference_cleared):
        monkeypatch.setattr(Combination, 'cleared', cleared)
        monkeypatch.setattr(weyl, '_ctx_cache', {})
        monkeypatch.setattr(superlie, '_pbw_tables', {})
        routes.append(_frontier_objects(m, n, d))
    kept, recomputed = routes
    assert list(kept) == list(recomputed) and kept
    for b, objs in kept.items():
        for got, want in zip(objs, recomputed[b]):
            assert got == want and str(got) == str(want), b


# ---------------------------------------------------------------------------
# One stored form: the reduced pair, with the terms as a view of it.

def _built_on_every_path(name):
    """(label, element) for one class, with elements equal to each other
    built along different paths."""
    cls, ctx, _, keys = CASES[name]
    k0, k1, k2, k3 = keys
    x = sample(name)
    y = cls(ctx, {k0: Fraction(5, 4), k2: Fraction(-7, 6)})
    built = [('sample', x), ('y', y),
             ('int', cls(ctx, {k0: 3, k1: -2})),
             # the same ints over different denominators
             ('unit', cls(ctx, {k0: 1})), ('half', cls(ctx, {k0: '1/2'})),
             ('str', cls(ctx, {k0: '3', k1: '-4/2'})),
             ('subclass', cls(ctx, {k0: SubFraction(6, 2), k1: -2})),
             ('zero values', cls(ctx, {k0: 0, k1: Fraction(0), k2: '0',
                                       k3: SubFraction(0)})),
             ('zero', cls.zero(ctx)),
             ('from_cleared unreduced', cls.from_cleared(
                 ctx, 12, {k0: 15, k1: 0, k2: -14})),
             ('from_cleared scaled', cls.from_cleared(
                 ctx, 6, {k0: 18, k1: -12})),
             ('from_cleared zeros', cls.from_cleared(ctx, 6, {k0: 0})),
             ('+', x + y), ('-', x - y), ('+ -', x + y - y),
             ('- self', y - y), ('neg', -y), ('neg neg', -(-x)),
             ('scale', x.scale(Fraction(-3, 10))),
             ('scale str', y.scale('-1/1')), ('scale 0', x.scale(0)),
             ('rmul', 2 * x), ('sum', x + x), ('*', x * y)]
    if name == 'WeylElement':
        built += _kernel_built()
    return built


@pytest.mark.parametrize('name', sorted(CASES))
def test_one_stored_form_on_every_path(name):
    """Equality is term equality on every build path, equal elements hash
    equal, and the terms are the stored pair divided out."""
    built = _built_on_every_path(name)
    for label, x in built:
        den, ints = x.cleared()
        assert x.terms == {k: Fraction(v, den) for k, v in ints.items()}, \
            label
        assert x.terms is x.terms, label
        assert all(type(c) is Fraction and c for c in x.terms.values()), \
            label
        assert x.is_zero() == (not x.terms), label
    equal_pairs = 0
    for (la, a), (lb, b) in product(built, repeat=2):
        same = dict(a.terms) == dict(b.terms)
        assert (a == b) == same and (a != b) != same, (la, lb)
        if same:
            assert hash(a) == hash(b), (la, lb)
            equal_pairs += la != lb
    # several paths build the same element
    assert equal_pairs >= 12


def _no_fraction(*args):
    raise AssertionError('a Fraction was built')


@pytest.mark.parametrize('name', sorted(CASES))
def test_pair_paths_build_no_fraction(name, monkeypatch):
    """from_cleared, +, -, equality, hashing and the zero check run on the
    pairs alone; the terms view is built on its first read."""
    cls, ctx, _, keys = CASES[name]
    x, want = sample(name), dict(sample(name).terms)
    monkeypatch.setattr(multipoly, 'Fraction', _no_fraction)
    y = cls.from_cleared(ctx, 12, {keys[0]: 15, keys[2]: -14})
    z = x + y - y
    assert z == x and hash(z) == hash(x) and not z.is_zero()
    assert (y - y).is_zero() and z.cleared() == x.cleared()
    monkeypatch.undo()
    assert z.terms == want


# ---------------------------------------------------------------------------
# The lincomb route of +, -, and scale against the Fraction-dict loops it
# replaced.

def reference_add(x, y):
    """x + y summed term by term over Fraction dicts."""
    if type(y) is not type(x):
        return NotImplemented
    x._check(y)
    terms = dict(x.terms)
    for k, c in y.terms.items():
        terms[k] = terms.get(k, 0) + c
    return type(x)(x.context, terms)


def reference_neg(x):
    return type(x)(x.context, {k: -c for k, c in x.terms.items()})


def reference_sub(x, y):
    if type(y) is not type(x):
        return NotImplemented
    return reference_add(x, reference_neg(y))


def reference_scale(x, c):
    c = Fraction(c)
    return type(x)(x.context, {k: c * v for k, v in x.terms.items()})


REFERENCE_ARITHMETIC = {'__add__': reference_add, '__sub__': reference_sub,
                        '__neg__': reference_neg, 'scale': reference_scale}


def _random_element(rng, name):
    cls, ctx, _, keys = CASES[name]
    return cls(ctx, {k: Fraction(rng.randrange(-7, 8), rng.randrange(1, 7))
                     for k in rng.sample(keys, rng.randrange(len(keys) + 1))})


@pytest.mark.parametrize('name', sorted(CASES))
def test_lincomb_arithmetic_equals_the_fraction_dict_loops(name):
    rng = random.Random('arithmetic %s' % name)
    scalars = [0, 1, -1, 3, Fraction(-5, 6), '7/4', SubFraction(2, 9)]
    for _ in range(200):
        x, y = _random_element(rng, name), _random_element(rng, name)
        c = rng.choice(scalars)
        for got, want in ((x + y, reference_add(x, y)),
                          (x - y, reference_sub(x, y)),
                          (-x, reference_neg(x)),
                          (x.scale(c), reference_scale(x, c)),
                          (x + x - y, reference_sub(reference_add(x, x), y))):
            assert got == want and str(got) == str(want), (x, y, c)
            assert dict(got.terms) == dict(want.terms)
            assert got.cleared() == reference_cleared(want)


@pytest.mark.parametrize('m, n, d', [(2, 2, 3), (1, 2, 4)])
def test_lincomb_arithmetic_equals_the_fraction_dict_route_at_the_frontier(
        m, n, d, monkeypatch):
    routes = []
    for patch in ({}, REFERENCE_ARITHMETIC):
        for attr, fn in patch.items():
            monkeypatch.setattr(Combination, attr, fn)
        monkeypatch.setattr(weyl, '_ctx_cache', {})
        monkeypatch.setattr(superlie, '_pbw_tables', {})
        routes.append(_frontier_objects(m, n, d))
    lincomb_route, fraction_route = routes
    assert list(lincomb_route) == list(fraction_route) and lincomb_route
    for b, objs in lincomb_route.items():
        for got, want in zip(objs, fraction_route[b]):
            assert got == want and str(got) == str(want), b
