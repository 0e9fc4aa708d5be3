import random
import re
from fractions import Fraction

import pytest

from supercapelli.hooks import (HookParams, HookPartition, Weight,
                                parse_partition, enumerate_hooks,
                                transpose_parts, gamma_map, gamma_star_map,
                                dual_weight,
                                hook_product_H, classical_hook_product,
                                frobenius_point, frobenius_affine_map,
                                a_context, eps_context, xy_context,
                                eps_extension)
from supercapelli.superlie import Ambient

P11 = HookParams(1, 1, 'half')
P21 = HookParams(2, 1, 'half')


def test_params_validation():
    with pytest.raises(ValueError):
        HookParams(-1, 0)
    with pytest.raises(ValueError):
        HookParams(1, 1, 'third')
    assert HookParams(1, 2, 'half').ambient == Ambient(1, 4)
    assert HookParams(1, 2, 'one').ambient == Ambient(1, 2)


@pytest.mark.parametrize('bad', [1.5, 2.0, Fraction(5, 2), '3', None])
def test_non_integer_ranks_and_parts_are_rejected(bad):
    """A rank or a part that is not an integer raises a ValueError naming
    it, never a silent truncation."""
    for make in (lambda: HookParams(bad, 1), lambda: HookParams(1, bad),
                 lambda: Ambient(bad, 1), lambda: Ambient(1, bad),
                 lambda: HookPartition((3, bad), P11)):
        with pytest.raises(ValueError, match='must be an integer, got %s'
                           % re.escape(repr(bad))):
            make()
    # booleans and other int subclasses are integers, as before
    assert HookParams(True, 1) == HookParams(1, 1)
    assert repr(Ambient(2, True)) == 'Ambient(2|1)'
    assert HookPartition((2, True), P11).parts == (2, 1)


@pytest.mark.parametrize('mn', [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2),
                                (3, 2)])
def test_ambient_of_the_pair_ranks(mn):
    m, n = mn
    assert HookParams(m, n, 'half').ambient == Ambient(m, 2 * n)
    assert HookParams(m, n, 'one').ambient == Ambient(m, n)
    with pytest.raises(AttributeError):
        HookParams(m, n).ambient = Ambient(m, n)


def test_hook_condition():
    parse_partition('3,1', P11)           # arm in row 1 is free
    with pytest.raises(ValueError):
        parse_partition('2,2', P11)       # row 2 exceeds n = 1
    with pytest.raises(ValueError):
        parse_partition('1,2', P11)       # not monotone
    assert parse_partition('', P11).parts == ()
    assert str(parse_partition('()', P11)) == '()'


def test_positive_part_after_a_zero_is_rejected():
    for parts in ((0, 1), (1, 0, 1), (2, 0, 0, 1)):
        with pytest.raises(ValueError):
            HookPartition(parts, P11)
    with pytest.raises(ValueError):
        parse_partition('0,1', P11)
    assert HookPartition((2, 1, 0, 0), P11).parts == (2, 1)
    assert parse_partition('1,0', P11).parts == (1,)


def test_enumeration_counts():
    assert [len(enumerate_hooks(P11, d)) for d in range(5)] == [1, 1, 2, 3, 4]
    assert len(enumerate_hooks(P11, 3, upto=True)) == 7
    # (2|1): all partitions of 3 fit the hook
    assert len(enumerate_hooks(P21, 3)) == 3
    names = [str(b) for b in enumerate_hooks(P11, 3)]
    assert names == ['3', '2,1', '1,1,1']


def test_enumeration_rejects_negative_size():
    for upto in (False, True):
        with pytest.raises(ValueError):
            enumerate_hooks(P11, -1, upto=upto)


def test_transpose_involution():
    rng = random.Random(2)
    for _ in range(30):
        parts = sorted((rng.randrange(1, 6) for _ in range(rng.randrange(5))),
                       reverse=True)
        assert list(transpose_parts(transpose_parts(parts))) == parts


def test_star_parts():
    b = parse_partition('3,1', P11)
    # transpose (2,1,1); star strips the first m = 1 rows
    assert b.star_parts() == (1,)
    assert parse_partition('2,1', P21).star_parts() == (0,)


def test_gamma_map_values():
    w = gamma_map(parse_partition('2,1', P21))
    assert w.frame == 'a_star_gamma'
    assert w.coords == (4, 2, 0)
    w = gamma_map(parse_partition('3,1', P11))
    assert w.coords == (6, 2)
    # theta = one uses the epsilon frame without doubling
    w = gamma_map(parse_partition('2,1', HookParams(2, 1, 'one')))
    assert w.frame == 'h_star_eps'
    assert w.coords == (2, 1, 0)


def test_gamma_star_map_values():
    w = gamma_star_map(parse_partition('2', P11))
    assert w.coords == (-2, -2)
    w = gamma_star_map(parse_partition('1,1', P11))
    assert w.coords == (0, -4)
    with pytest.raises(ValueError):
        gamma_star_map(parse_partition('1', HookParams(1, 1, 'one')))


def test_gamma_star_injective_small_ranks():
    for params in (P11, P21, HookParams(2, 2, 'half')):
        seen = {}
        for b in enumerate_hooks(params, 4, upto=True):
            w = gamma_star_map(b)
            assert w not in seen, (b, seen[w])
            seen[w] = b


def test_dual_weight_round_trip():
    for params in (P11, P21, HookParams(1, 2, 'half'),
                   HookParams(2, 2, 'half')):
        for b in enumerate_hooks(params, 5, upto=True):
            assert dual_weight(gamma_star_map(b), params) == gamma_map(b)


def test_dual_weight_rejects_weights_outside_the_image():
    P22 = HookParams(2, 2, 'half')
    # no hook partition gives: an odd coordinate; a positive one; column 2
    # longer than column 1; a row excess with columns 1..n not reaching
    # that row (three ways); then the wrong frame, ranks and regime
    bad = [
        (Weight('a_star_gamma', (-1, 0, 0, 0), 2, 2), P22),
        (Weight('a_star_gamma', (0, 0, 0, 2), 2, 2), P22),
        (Weight('a_star_gamma', (0, 0, -4, -2), 2, 2), P22),
        (Weight('a_star_gamma', (0, -2, 0, -2), 2, 2), P22),
        (Weight('a_star_gamma', (-2, 0, 0, 0), 2, 2), P22),
        (Weight('a_star_gamma', (-2, 0, -2, -2), 2, 2), P22),
        (Weight('h_star_eps', (-2, -2), 1, 1), P11),
        (Weight('a_star_gamma', (-2, -2, -2), 2, 1), P11),
        (gamma_star_map(parse_partition('2', P11)), HookParams(1, 1, 'one')),
    ]
    for mu, params in bad:
        with pytest.raises(ValueError):
            dual_weight(mu, params)


def test_dual_weight_names_every_weight_outside_the_image():
    # a positive even coordinate gives a negative part, and a larger row
    # excess below than above gives increasing parts: no hook partition
    # has them, so the weight is outside the image like any other
    P22 = HookParams(2, 2, 'half')
    bad = [
        (Weight('a_star_gamma', (2, 0), 1, 1), P11),
        (Weight('a_star_gamma', (2, 0, 0, 0), 2, 2), P22),
        (Weight('a_star_gamma', (0, 2, 0, 0), 2, 2), P22),
        (Weight('a_star_gamma', (4, 2, 0, 0), 2, 2), P22),
        (Weight('a_star_gamma', (-2, 0, 0, 0), 2, 2), P22),
        (Weight('a_star_gamma', (0, 0, 0, 2), 2, 2), P22),
    ]
    for mu, params in bad:
        with pytest.raises(ValueError, match=r'^weight .* is not in the '
                           r'image of gamma_star_map$'):
            dual_weight(mu, params)


def test_dual_weight_has_no_size_cap():
    b = parse_partition('70', P11)
    assert dual_weight(gamma_star_map(b), P11) == gamma_map(b)


def test_hook_products():
    assert hook_product_H(parse_partition('1', P11)) == 1
    assert hook_product_H(parse_partition('2', P11)) == 2
    assert hook_product_H(parse_partition('1,1', P11)) == Fraction(3, 2)
    assert classical_hook_product(parse_partition('2,1', P21)) == 3
    assert classical_hook_product(parse_partition('3', P21)) == 6


def test_frobenius_point_values():
    pt = frobenius_point(parse_partition('2', P11))
    assert pt.x == (Fraction(1),)
    assert pt.y == (Fraction(3, 2),)
    pt = frobenius_point(parse_partition('1', HookParams(1, 1, 'one')))
    assert pt.coords() == (Fraction(1, 2), Fraction(1, 2))


def test_frobenius_affine_map_property():
    for mn in ((1, 1), (2, 1), (1, 2), (3, 0), (0, 2), (2, 2)):
        for theta in ('half', 'one'):
            params = HookParams(*mn, theta)
            sub = frobenius_affine_map(params)
            for b in enumerate_hooks(params, 5, upto=True):
                pt = frobenius_point(b).coords()
                w = gamma_map(b)
                images = [sub.image_poly(name).evaluate(pt)
                          for name in sub.source]
                assert tuple(images) == w.coords, b


def test_contexts_and_extension():
    assert a_context(2, 1) == ('a1', 'a2', 'ab1')
    assert eps_context(1, 2) == ('e1', 'eb1', 'eb2')
    assert xy_context(1, 1) == ('x1', 'y1')
    w = Weight('a_star_gamma', (4, 2), 1, 1)
    assert eps_extension(w) == (Fraction(4), Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        eps_extension(Weight('h_star_eps', (1, 0), 1, 1))
