import random
from fractions import Fraction

import pytest

from supercapelli.multipoly import MultiPoly, AffineSubstitution

CTX = ('x', 'y', 'z')


def random_poly(rng, nterms=4, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(maxdeg + 1) for _ in CTX)
        terms[e] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    return MultiPoly(CTX, terms)


def random_point(rng):
    return [Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
            for _ in CTX]


def test_construction_drops_zeros():
    p = MultiPoly(CTX, {(1, 0, 0): 0, (0, 1, 0): 2})
    assert (1, 0, 0) not in p.terms
    assert p.terms == {(0, 1, 0): Fraction(2)}


def test_context_mismatch_raises():
    p = MultiPoly(CTX, {(1, 0, 0): 1})
    q = MultiPoly(('x', 'y'), {(1, 0): 1})
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        MultiPoly(CTX, {(1, 0): 1})


def test_from_cleared_checks_the_exponent_length():
    with pytest.raises(ValueError, match='exponent length'):
        MultiPoly.from_cleared(('x', 'y'), 1, {(1,): 1})
    with pytest.raises(ValueError, match='exponent length'):
        MultiPoly.from_cleared(CTX, 4, {(1, 0, 0): 2, (0, 1, 0, 0): 1})
    assert MultiPoly.from_cleared(('x', 'y'), 4, {(1, 0): 2}) == \
        MultiPoly(('x', 'y'), {(1, 0): Fraction(1, 2)})


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(20):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p - p == MultiPoly.zero(CTX)
        assert p * MultiPoly.const(CTX, 1) == p


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(20):
        p, q = random_poly(rng), random_poly(rng)
        pt = random_point(rng)
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


def test_pow_matches_repeated_product():
    rng = random.Random(3)
    p = random_poly(rng)
    acc = MultiPoly.const(CTX, 1)
    for k in range(5):
        assert p ** k == acc
        acc = acc * p


def test_graded_lex_term_order():
    p = MultiPoly(CTX, {(0, 0, 0): 1, (2, 0, 0): 1, (1, 1, 0): 1,
                        (0, 0, 1): 1})
    exps = [e for e, _ in p.sorted_terms()]
    assert exps == [(2, 0, 0), (1, 1, 0), (0, 0, 1), (0, 0, 0)]


def test_str_rendering():
    p = MultiPoly(CTX, {(2, 0, 0): 1, (0, 1, 0): Fraction(-1, 2),
                        (0, 0, 0): 3})
    assert str(p) == 'x^2 - 1/2*y + 3'
    assert str(MultiPoly.zero(CTX)) == '0'


def test_json_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        p = random_poly(rng)
        assert MultiPoly.from_json(p.to_json()) == p
    data = MultiPoly(CTX, {(1, 0, 0): Fraction(2, 3)}).to_json()
    assert data == {'vars': ['x', 'y', 'z'],
                    'terms': [{'exp': [1, 0, 0], 'coef': '2/3'}]}


def test_top_and_homogeneous_parts():
    p = MultiPoly(CTX, {(2, 1, 0): 1, (0, 0, 3): 2, (1, 0, 0): 5})
    assert p.top_part() == MultiPoly(CTX, {(2, 1, 0): 1, (0, 0, 3): 2})
    assert p.homogeneous_part(1) == MultiPoly(CTX, {(1, 0, 0): 5})
    with pytest.raises(ValueError):
        MultiPoly.zero(CTX).top_part()


def test_affine_substitution_matches_pointwise():
    rng = random.Random(13)
    target = ('u', 'v')
    images = {
        'x': ((Fraction(2), Fraction(0)), Fraction(1)),
        'y': ((Fraction(1), Fraction(-1)), Fraction(0)),
        'z': ((Fraction(0), Fraction(3)), Fraction(-1, 2)),
    }
    sub = AffineSubstitution(CTX, target, images)
    for _ in range(10):
        p = random_poly(rng)
        q = sub.apply(p)
        for _ in range(5):
            pt = [Fraction(rng.randrange(-4, 5)) for _ in target]
            src = [sub.image_poly(name).evaluate(pt) for name in CTX]
            assert q.evaluate(pt) == p.evaluate(src)



def reference_evaluate(p, point):
    """The Fraction-power evaluation loop the integer evaluate replaced."""
    point = [Fraction(x) for x in point]
    total = Fraction(0)
    for e, c in p.terms.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v *= x ** k
        total += v
    return total


def test_evaluate_equals_fraction_power_loop():
    rng = random.Random(2025)

    def coef():
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))

    checked = 0
    for nvars in range(5):
        ctx = tuple('v%d' % i for i in range(nvars))
        for _ in range(60):
            terms = {tuple(rng.randrange(6) for _ in ctx): coef()
                     for _ in range(rng.randrange(0, 8))}
            polys = [MultiPoly(ctx, terms), MultiPoly.zero(ctx),
                     MultiPoly.const(ctx, coef())]
            for p in polys:
                for pt in (
                        [Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
                         for _ in ctx],
                        [0] * nvars,
                        [rng.choice((0, -1, Fraction(-3, 4), Fraction(2, 3)))
                         for _ in ctx]):
                    got = p.evaluate(pt)
                    assert type(got) is Fraction
                    assert got == reference_evaluate(p, pt)
                    checked += 1
    assert checked == 5 * 60 * 3 * 3
    with pytest.raises(ValueError, match='point length'):
        MultiPoly.const(CTX, 1).evaluate([1, 2])


def test_each_polynomial_keeps_its_values_over_many_points():
    """evaluate clears a polynomial once and reuses that plan: every
    polynomial below, however it was built, gives the reference value at
    each of 40 points, in one run of calls on the same object."""
    rng = random.Random(30)
    p = MultiPoly(CTX, {(2, 0, 1): Fraction(-3, 4), (0, 3, 0): Fraction(5, 6),
                        (1, 1, 1): -2, (0, 0, 0): Fraction(7, 3)})
    q = random_poly(rng, nterms=6)
    sub = AffineSubstitution(CTX, ('u', 'v', 'w'), {
        'x': ((Fraction(1, 2), 0, 1), Fraction(-1, 3)),
        'y': ((0, -1, Fraction(2, 5)), 1),
        'z': ((3, 0, 0), 0)})
    polys = [
        MultiPoly.zero(CTX),
        MultiPoly.const(CTX, 0),
        MultiPoly.const(CTX, Fraction(-5, 7)),
        MultiPoly.const((), 4),
        p,
        MultiPoly.from_cleared(CTX, *p.cleared()),
        MultiPoly.from_cleared(CTX, 6, {(1, 0, 2): -4, (0, 2, 0): 9}),
        p + q,
        p + 1,
        p - p,
        p * q,
        q * q * q,
        p.homogeneous_part(3),
        p.homogeneous_part(1),
        sub.apply(p),
        sub.apply(q),
    ]
    for poly in polys:
        points = [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 6))
                   for _ in poly.vars] for _ in range(38)]
        points += [[0] * len(poly.vars), [-1] * len(poly.vars)]
        for pt in points:
            got = poly.evaluate(pt)
            assert type(got) is Fraction
            assert got == reference_evaluate(poly, pt), (poly, pt)


def test_a_polynomial_built_after_an_evaluation_evaluates_fresh():
    p = MultiPoly(CTX, {(1, 2, 0): Fraction(3, 2), (0, 0, 1): -1})
    pt = [Fraction(2, 3), -3, Fraction(5, 4)]
    assert p.evaluate(pt) == reference_evaluate(p, pt)
    for q in (p + 1, p * p, p.scale(Fraction(-2, 5)), -p):
        assert q.evaluate(pt) == reference_evaluate(q, pt)
    assert (p + 1).evaluate(pt) == p.evaluate(pt) + 1
    # the terms, and so the plan, cannot be replaced
    r = MultiPoly(CTX, {(1, 0, 0): 1})
    assert r.evaluate(pt) == Fraction(2, 3)
    with pytest.raises(AttributeError):
        r.terms = (p + 1).terms
    assert r.evaluate(pt) == Fraction(2, 3)
