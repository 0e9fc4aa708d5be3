import random
from fractions import Fraction

import pytest

from supercapelli.multipoly import MultiPoly
from supercapelli.superlie import (Ambient, UEAElement, bracket, bracket_gen,
                                   pbw_normalize, gelfand_element, omega,
                                   a_context, hc_project, omega_cartan,
                                   q_projection, gd_element)


def E(amb, i, j):
    return UEAElement.gen(amb, i, j)


def random_element(amb, rng, nwords=3, maxlen=3):
    terms = {}
    for _ in range(nwords):
        w = tuple((rng.randrange(amb.dim), rng.randrange(amb.dim))
                  for _ in range(rng.randrange(maxlen + 1)))
        terms[w] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return UEAElement(amb, terms)


def test_labels():
    amb = Ambient(2, 2)
    assert [amb.label(i) for i in range(4)] == ['1', '2', '1b', '2b']
    assert amb.parse_label('2b') == 3
    with pytest.raises(ValueError):
        amb.parse_label('5')
    assert str(E(amb, 2, 3)) == 'E(1b,2b)'


def test_bracket_even():
    amb = Ambient(2, 0)
    assert bracket(E(amb, 0, 1), E(amb, 1, 0)) == E(amb, 0, 0) - E(amb, 1, 1)
    assert bracket(E(amb, 0, 0), E(amb, 1, 1)).is_zero()


def test_bracket_odd_anticommutator():
    amb = Ambient(1, 1)
    x, y = E(amb, 0, 1), E(amb, 1, 0)
    # both odd: the supercommutator is the anticommutator
    assert bracket(x, y) == E(amb, 0, 0) + E(amb, 1, 1)
    assert bracket(x, x).is_zero()
    with pytest.raises(ValueError):
        bracket(x * y, x)


def test_bracket_rejects_a_degree_two_operand_beside_zero():
    amb = Ambient(1, 1)
    x, y = E(amb, 0, 1), E(amb, 1, 0)
    zero = UEAElement.zero(amb)
    for a, b in ((zero, x * y), (x * y, zero)):
        with pytest.raises(ValueError, match='degree-1'):
            bracket(a, b)


def test_super_jacobi_random():
    amb = Ambient(1, 2)
    rng = random.Random(23)
    gens = [(i, j) for i in range(amb.dim) for j in range(amb.dim)]
    for _ in range(25):
        g1, g2, g3 = (rng.choice(gens) for _ in range(3))
        p1, p2, p3 = (amb.gen_parity(g) for g in (g1, g2, g3))
        a, b, c = E(amb, *g1), E(amb, *g2), E(amb, *g3)
        lhs = bracket(a, bracket(b, c))
        rhs = bracket(bracket(a, b), c) + \
            bracket(b, bracket(a, c)).scale((-1) ** (p1 * p2))
        assert lhs == rhs


def test_pbw_normal_form_oracle():
    amb = Ambient(2, 0)
    got = pbw_normalize(E(amb, 0, 1) * E(amb, 1, 0))
    want = (E(amb, 1, 0) * E(amb, 0, 1)
            + E(amb, 0, 0) - E(amb, 1, 1))
    assert got == want


def test_pbw_odd_square_vanishes():
    amb = Ambient(1, 1)
    x = E(amb, 0, 1)
    assert pbw_normalize(x * x).is_zero()
    # diagonal letters are even, so their squares are already normal
    z = E(amb, 1, 1)
    assert pbw_normalize(z * z) == z * z


def test_pbw_idempotent_and_linear():
    rng = random.Random(31)
    amb = Ambient(1, 2)
    for _ in range(10):
        a = random_element(amb, rng)
        b = random_element(amb, rng)
        na = pbw_normalize(a)
        assert pbw_normalize(na) == na
        assert pbw_normalize(a + b) == na + pbw_normalize(b)
        # mirrored ordering is idempotent as well
        ma = pbw_normalize(a, mirrored=True)
        assert pbw_normalize(ma, mirrored=True) == ma


def test_pbw_preserves_products():
    """Normalization is a rewriting of the same element: normalizing a
    product of normalized factors equals normalizing the raw product."""
    rng = random.Random(37)
    amb = Ambient(1, 1)
    for _ in range(10):
        a, b = random_element(amb, rng, 2, 2), random_element(amb, rng, 2, 2)
        assert pbw_normalize(pbw_normalize(a) * pbw_normalize(b)) == \
            pbw_normalize(a * b)


def test_gelfand_degree_one():
    amb = Ambient(2, 1)
    z = gelfand_element(amb, 1)
    assert z == E(amb, 0, 0) + E(amb, 1, 1) + E(amb, 2, 2)


def reference_gelfand_element(ambient, d):
    """gelfand_element as the recursion over index paths that built it
    before, kept as an independent reference."""
    terms = {}
    idx = range(ambient.dim)

    def rec(cycle):
        # cycle: index path i, r1, ..., rt
        if len(cycle) == d:
            path = cycle + (cycle[0],)
            sgn = ambient.parity(cycle[0])
            word = []
            for a, b in zip(path, path[1:]):
                # twisted entry at (a, b) is (-1)^{|a||b|} E_{b,a}
                sgn += ambient.parity(a) * ambient.parity(b)
                word.append((b, a))
            word = tuple(word)
            terms[word] = terms.get(word, 0) + (-1) ** sgn
            return
        for r in idx:
            rec(cycle + (r,))

    for i in idx:
        rec((i,))
    return UEAElement(ambient, terms)


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2), (2, 2), (3, 0),
                                (0, 2)])
def test_gelfand_element_equals_the_cycle_recursion(mn):
    amb = Ambient(*mn)
    for d in range(1, 5):
        got, want = gelfand_element(amb, d), reference_gelfand_element(amb, d)
        assert got == want, d
        assert list(got.terms) == list(want.terms), d


def test_gelfand_element_is_fresh_on_every_call():
    amb = Ambient(1, 1)
    z = gelfand_element(amb, 2)
    want = dict(z.terms)
    assert want
    z.terms.clear()
    again = gelfand_element(amb, 2)
    assert again is not z and again.terms == want


def test_gelfand_centrality_small():
    for (m, n) in ((1, 1), (2, 1)):
        amb = Ambient(m, n)
        for d in (1, 2):
            z = gelfand_element(amb, d)
            for i in range(amb.dim):
                for j in range(amb.dim):
                    g = E(amb, i, j)
                    assert pbw_normalize(z * g - g * z).is_zero(), (m, n, d, i, j)


def test_omega_involution_and_antimultiplicativity():
    rng = random.Random(41)
    amb = Ambient(1, 2)
    for _ in range(10):
        a = random_element(amb, rng)
        assert omega(omega(a)) == a
    for i in range(amb.dim):
        for j in range(amb.dim):
            assert omega(E(amb, i, j)) == E(amb, i, j).scale(-1)


def test_hc_plus_oracle():
    amb = Ambient(1, 1)
    ctx = amb.cartan_context()
    got = hc_project(gelfand_element(amb, 2), 'plus')
    want = MultiPoly(ctx, {(2, 0): 1, (0, 2): -1, (1, 0): -1, (0, 1): -1})
    assert got == want


def test_hc_project_rejects_an_unknown_sign():
    z = gelfand_element(Ambient(1, 1), 2)
    for sign in ('mnus', 'Plus', None):
        with pytest.raises(ValueError, match="'plus' or 'minus'"):
            hc_project(z, sign)
    assert hc_project(z) == hc_project(z, 'plus') != hc_project(z, 'minus')


def full_normal_form_hc(a, sign):
    """hc_project before it dropped the words of n-U + Un+: normal order
    every word, then keep the purely diagonal ones."""
    amb = a.ambient
    terms = {}
    for w, c in pbw_normalize(a, mirrored=(sign == 'minus')).terms.items():
        if all(i == j for i, j in w):
            exp = tuple(sum(1 for i, _ in w if i == k)
                        for k in range(amb.dim))
            terms[exp] = terms.get(exp, 0) + c
    return MultiPoly(amb.cartan_context(), terms)


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2), (2, 2), (0, 2),
                                (3, 0)])
def test_hc_project_equals_the_full_normal_form_route(mn):
    """Gelfand elements, Gelfand products (the preimages are sums of
    them) and random elements with odd letters, both signs."""
    from supercapelli.weyl import gelfand_product
    amb = Ambient(*mn)
    rng = random.Random('hc %s %s' % mn)
    elements = [gelfand_element(amb, d) for d in (1, 2, 3)]
    elements += [gelfand_product(amb, part)
                 for part in ((2, 1), (1, 1, 1), (2, 2))]
    elements += [random_element(amb, rng, nwords=6, maxlen=4)
                 for _ in range(15)]
    dropped = 0
    for z in elements:
        for sign in ('plus', 'minus'):
            got = hc_project(z, sign)
            assert got == full_normal_form_hc(z, sign)
            assert str(got) == str(full_normal_form_hc(z, sign))
        dropped += any(w and w[0][0] > w[0][1] for w in z.terms)
    assert dropped


def test_hc_minus_vs_omega():
    amb = Ambient(1, 2)
    for d in (1, 2, 3):
        z = gelfand_element(amb, d)
        assert hc_project(omega(z), 'minus') == \
            omega_cartan(hc_project(z, 'plus'))


def test_omega_cartan():
    ctx = ('h1', 'h2')
    p = MultiPoly(ctx, {(2, 0): 1, (1, 0): 3, (0, 0): 5})
    assert omega_cartan(p) == MultiPoly(ctx, {(2, 0): 1, (1, 0): -3,
                                              (0, 0): 5})


def test_q_projection():
    amb = Ambient(1, 2)
    ctx = amb.cartan_context()
    assert a_context(1, 1) == ('a1', 'ab1')
    p = MultiPoly(ctx, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
                        (0, 1, 1): 4})
    q = q_projection(p, amb)
    assert q == MultiPoly(('a1', 'ab1'), {(1, 0): 1, (0, 1): 1, (0, 2): 1})
    with pytest.raises(ValueError):
        q_projection(MultiPoly(Ambient(1, 1).cartan_context(), {}),
                     Ambient(1, 1))


def test_gd_element():
    amb = Ambient(1, 2)
    g1 = gd_element(amb, 1)
    ctx = amb.cartan_context()
    want = MultiPoly(ctx, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    assert g1 == want
    assert q_projection(g1, amb) == MultiPoly(('a1', 'ab1'),
                                              {(1, 0): 1, (0, 1): 1})


def test_gd_matches_projected_gelfand():
    """In degree one the projected Gelfand element equals the shifted
    power-sum generator exactly."""
    amb = Ambient(1, 2)
    z1 = q_projection(hc_project(gelfand_element(amb, 1), 'plus'), amb)
    p1 = q_projection(gd_element(amb, 1), amb)
    assert z1 == p1


# ---------------------------------------------------------------------------
# Independent oracle: the super Perelomov-Popov generating function.

def perelomov_popov_series(amb, sign, kmax):
    """The coefficients of u^0, u^-1, ..., u^-(kmax+1) of
    prod_i (u - l_i + 1)/(u - l_i) * prod_j (u - l'_j)/(u - l'_j + 1)
    over the Cartan variables x_i = E(i,i) (i even) and y_j = E(jb,jb),
    built from MultiPoly arithmetic alone: each factor is the series
    1 + sum_k l^k u^(-k-1), or 1 - sum_k (l' - 1)^k u^(-k-1)."""
    m, n = amb.m, amb.n
    ctx = amb.cartan_context()
    zero, one = MultiPoly.zero(ctx), MultiPoly.const(ctx, 1)
    factors = []
    for i in range(1, m + 1):
        shift = 1 - i if sign == 'plus' else i - m + n
        l = MultiPoly.variable(ctx, ctx[i - 1]) + MultiPoly.const(ctx, shift)
        factors.append([one] + [l ** k for k in range(kmax + 1)])
    for j in range(1, n + 1):
        shift = j - m if sign == 'plus' else n + 1 - j
        lp = MultiPoly.const(ctx, shift - 1) \
            - MultiPoly.variable(ctx, ctx[m + j - 1])
        factors.append([one] + [(lp ** k).scale(-1)
                                for k in range(kmax + 1)])
    series = [one] + [zero] * (kmax + 1)
    for f in factors:
        series = [sum((series[a] * f[t - a] for a in range(t + 1)), zero)
                  for t in range(kmax + 2)]
    return series


@pytest.mark.parametrize('m, n, kmax', [
    (1, 1, 5), (2, 1, 4), (1, 2, 4), (3, 0, 4), (0, 2, 4),
    (2, 2, 3), (3, 1, 3), (1, 3, 3)])
def test_hc_of_gelfand_elements_is_the_perelomov_popov_product(m, n, kmax):
    """1 + sum_k HC(C_k) u^(-k-1) is the super Perelomov-Popov product,
    with l_i = x_i - i + 1, l'_j = -y_j - m + j for the plus projection
    and l_i = x_i + i - m + n, l'_j = -y_j + n + 1 - j for the minus
    one.  The series shares only MultiPoly with pbw_normalize and
    hc_project."""
    amb = Ambient(m, n)
    for sign in ('plus', 'minus'):
        series = perelomov_popov_series(amb, sign, kmax)
        # C_0 is the supertrace of the identity
        assert series[1] == MultiPoly.const(amb.cartan_context(), m - n)
        for k in range(1, kmax + 1):
            assert hc_project(gelfand_element(amb, k), sign) \
                == series[k + 1]
