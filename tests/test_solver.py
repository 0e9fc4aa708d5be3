import random
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from supercapelli.hooks import (HookParams, enumerate_hooks, parse_partition,
                                gamma_star_map, dual_weight, hook_product_H,
                                xy_context, partitions)
from supercapelli.linalg import lin_solve, dict_vectors_rank
from supercapelli.multipoly import AffineSubstitution, MultiPoly
from supercapelli.superlie import Ambient, UEAElement, gelfand_element, \
    q_projection, gd_element, hc_project
from supercapelli import weyl
from supercapelli.weyl import (WeylElement, gelfand_product, t_sigma,
                               rho_check, symbol, capelli_operator, y_gen,
                               consecutive_cycles_perm, invariant_spanning_set,
                               invariant_symbol_space, spherical_poly,
                               weyl_context, weyl_mul, _entry)
from supercapelli.solver import (coset_type, full_preimage,
                                 central_preimage, c_poly_hc, c_poly_interp,
                                 c_star_poly, ia_star_basis,
                                 InterpolationBasis,
                                 deformed_power_sum, sp_basis, sp_star,
                                 frobenius_transform, natural_algebra_check,
                                 theta_one_family, verify_sv, verify_main)

from linalg_reference import reference_solve_in_span

P11 = HookParams(1, 1, 'half')


# ---------------------------------------------------------------------------
# Reference: the exhaustive hyperoctahedral search that coset_type replaced.

def perm_compose(a, b):
    """(a b)(i) = a(b(i)); permutations as 1-based image tuples."""
    return tuple(a[b[i] - 1] for i in range(len(b)))


def hyperoctahedral(d):
    """The centralizer of the fixed-point-free involution (1 2)(3 4)...:
    block permutations combined with flips inside each block, in
    lexicographic order of the resulting image tuples."""
    out = []
    for blockperm in permutations(range(d)):
        for flips in range(2 ** d):
            img = [0] * (2 * d)
            for t in range(d):
                u = blockperm[t]
                if (flips >> t) & 1:
                    img[2 * t] = 2 * u + 2
                    img[2 * t + 1] = 2 * u + 1
                else:
                    img[2 * t] = 2 * u + 1
                    img[2 * t + 1] = 2 * u + 2
            out.append(tuple(img))
    return sorted(out)


def _compositions(d):
    """All ordered compositions of d, graded by length then lex."""
    out = []

    def rec(left, prefix):
        if left == 0:
            out.append(tuple(prefix))
            return
        for p in range(1, left + 1):
            prefix.append(p)
            rec(left - p, prefix)
            prefix.pop()

    rec(d, [])
    return sorted(out, key=lambda c: (len(c), c))


def reference_sigma_normalize(sigma):
    """(sp, spp, blocks) with sp, spp in the hyperoctahedral group and
    sp * sigma * spp the product of consecutive cycles with those block
    sizes: the first hit of a lexicographic scan of H x H."""
    d = len(sigma) // 2
    targets = {consecutive_cycles_perm(c): c for c in _compositions(d)}
    H = hyperoctahedral(d)
    for sp in H:
        for spp in H:
            prod = perm_compose(sp, perm_compose(tuple(sigma), spp))
            if prod in targets:
                return sp, spp, targets[prod]
    raise AssertionError('no hyperoctahedral normalization found')


def test_perm_compose():
    a, b = (2, 3, 1), (3, 1, 2)
    assert perm_compose(a, b) == (1, 2, 3)
    ident = (1, 2, 3, 4)
    rng = random.Random(43)
    perms = list(permutations(range(1, 5)))
    for _ in range(20):
        p, q, r = (rng.choice(perms) for _ in range(3))
        assert perm_compose(p, ident) == p == perm_compose(ident, p)
        assert perm_compose(perm_compose(p, q), r) == \
            perm_compose(p, perm_compose(q, r))


def test_hyperoctahedral_group():
    H2 = hyperoctahedral(2)
    assert len(H2) == len(set(H2)) == 8
    assert len(hyperoctahedral(3)) == 48
    # every element permutes the pairing blocks {1,2}, {3,4}
    for h in H2:
        for t in range(2):
            block = {h[2 * t], h[2 * t + 1]}
            assert block in ({1, 2}, {3, 4})


@pytest.mark.parametrize('d', [1, 2, 3])
def test_coset_type_equals_search(d):
    for sig in permutations(range(1, 2 * d + 1)):
        sp, spp, blocks = reference_sigma_normalize(sig)
        assert perm_compose(sp, perm_compose(sig, spp)) == \
            consecutive_cycles_perm(blocks)
        assert coset_type(sig) == tuple(sorted(blocks, reverse=True)), sig


def test_coset_type_rejects_bad_input():
    with pytest.raises(ValueError):
        coset_type((1, 2, 3))
    with pytest.raises(ValueError):
        coset_type((1, 1, 2, 3))


def test_symbol_preimage_s4():
    amb = Ambient(1, 1)
    for sig in permutations(range(1, 5)):
        z = gelfand_product(amb, coset_type(sig))
        assert symbol(rho_check(z), 2) == t_sigma(amb, sig), sig


def _round_trips(m, n, dmax):
    """(b, D_b, z) for every hook partition of size <= dmax, with z from
    full_preimage under its invariance check."""
    params = HookParams(m, n, 'half')
    amb = Ambient(m, 2 * n)
    out = []
    for d in range(dmax + 1):
        inv = invariant_symbol_space(amb, d, verify=False)
        for b in enumerate_hooks(params, d):
            D = capelli_operator(params, b, inv_basis=inv)
            out.append((b, D, full_preimage(D, check_invariant=True)))
    return out


@pytest.fixture(scope='module')
def round_trips_21():
    return _round_trips(2, 1, 3)


def gelfand_product_image(amb, part):
    """rho_check(gelfand_product(amb, part)), a fresh element of the
    entry in the images table of the ambient's Weyl context."""
    return WeylElement.from_cleared(amb, *_entry(weyl_context(amb), 'images',
                                                 part))


def test_gelfand_product_image_symbols_are_t_sigma():
    # the span full_preimage peels with equals the literal t_sigma span
    for amb in (Ambient(1, 2), Ambient(2, 2), Ambient(1, 4)):
        for d in (1, 2, 3):
            for part in partitions(d):
                assert symbol(gelfand_product_image(amb, part), d) == \
                    t_sigma(amb, consecutive_cycles_perm(part)), (amb, part)


def test_gelfand_product_image_is_rho_check_of_product():
    amb = Ambient(1, 2)
    z = gelfand_element(amb, 2).scale(Fraction(1, 4)) \
        * gelfand_element(amb, 1).scale(Fraction(-1, 2))
    assert gelfand_product_image(amb, (2, 1)) == rho_check(z)
    assert gelfand_product_image(amb, ()) == rho_check(UEAElement.one(amb))


def test_gelfand_product_image_hands_out_fresh_elements(monkeypatch):
    """Elements built from the symbols or the images table are fresh and
    read-only: an attempt to change one raises and changes neither the
    table nor a later preimage."""
    monkeypatch.setattr(weyl, '_ctx_cache', {})
    params = HookParams(1, 1, 'half')
    amb = Ambient(1, 2)
    D = capelli_operator(params, parse_partition('2,1', params))
    z = full_preimage(D, check_invariant=False)
    parts = [part for d in range(4) for part in partitions(d)]

    def handed_out():
        return ([gelfand_product_image(amb, part) for part in parts]
                + [t for d in range(4)
                   for _, t in invariant_spanning_set(amb, d)])

    want = handed_out()
    got = handed_out()
    for old, new in zip(want, got):
        assert new is not old and new.terms is not old.terms
        for k in new.terms:
            with pytest.raises(TypeError):
                new.terms[k] += 1
        with pytest.raises(TypeError):
            new.terms[((), (0,))] = Fraction(5)
    assert handed_out() == want
    ctx = weyl_context(amb)
    assert set(ctx.images) == set(ctx.symbols) == set(parts)
    assert full_preimage(D, check_invariant=False) == z


def test_full_preimage_round_trip(round_trips_21):
    # literal rho_check of the whole preimage, word by word
    for b, D, z in _round_trips(1, 1, 2) + round_trips_21:
        assert rho_check(z) == D, b


def test_eigen_poly_routes_agree_degree_3(round_trips_21):
    params = HookParams(2, 1, 'half')
    for b, _, z in round_trips_21:
        if b.size == 3:
            assert c_poly_hc(params, b, preimage=z).poly == \
                c_poly_interp(params, b).poly, b


def test_full_preimage_rejects_noninvariant():
    from supercapelli.weyl import y_gen, d_gen, weyl_mul
    amb = Ambient(1, 2)
    op = weyl_mul(y_gen(amb, 0, 0), d_gen(amb, 0, 1))
    with pytest.raises(ValueError):
        full_preimage(op, check_invariant=True)


# ---------------------------------------------------------------------------
# Reference: the preimage routes that multiplied the scaled Gelfand
# elements out in place, before gelfand_product.

def reference_gelfand_loop(ambient, part):
    z = UEAElement.one(ambient)
    for b in part:
        z = z * gelfand_element(ambient, b).scale(Fraction(-1, 2) ** b)
    return z


def reference_gelfand_image(ambient, part, memo):
    """rho_check(gelfand_product(ambient, part)) as a weyl_mul product of
    single-block images, kept in memo, a dict local to one caller."""
    img = memo.get(part)
    if img is None:
        if len(part) <= 1:
            img = rho_check(gelfand_product(ambient, part))
        else:
            img = weyl_mul(reference_gelfand_image(ambient, part[:-1], memo),
                           reference_gelfand_image(ambient, part[-1:], memo))
        memo[part] = img
    return img


def reference_full_preimage(D):
    """full_preimage(D, check_invariant=False) as it was: the images
    rebuilt in a memo local to the call, each order's coefficients from
    a Fraction elimination, the remainder reduced in Fractions, each
    order's products multiplied out per nonzero coefficient and added to
    z, and a scalar order-zero remainder added directly."""
    amb = D.ambient
    z = UEAElement.zero(amb)
    R = D
    images = {}
    while not R.is_zero():
        d = R.order()
        if d == 0:
            c = R.terms.get(((), ()), Fraction(0))
            if R.terms != {((), ()): c}:
                raise AssertionError('order-zero remainder is not scalar')
            z = z + UEAElement.one(amb).scale(c)
            break
        s = symbol(R, d)
        parts = partitions(d)
        span = [reference_gelfand_image(amb, part, images) for part in parts]
        coeffs = reference_solve_in_span(
            [symbol(img, d).terms for img in span], s.terms)
        assert coeffs is not None
        zd = UEAElement.zero(amb)
        rest = dict(R.terms)
        for c, part, img in zip(coeffs, parts, span):
            if not c:
                continue
            zd = zd + reference_gelfand_loop(amb, part).scale(c)
            for t, v in img.terms.items():
                rest[t] = rest.get(t, 0) - c * v
        z = z + zd
        R = WeylElement(amb, rest)
        assert R.is_zero() or R.order() < d
    return z


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2), (2, 2), (3, 0),
                                (0, 2)])
def test_gelfand_product_equals_the_loop(mn):
    amb = Ambient(*mn)
    assert gelfand_product(amb, ()) == UEAElement.one(amb)
    unsorted = [(1, 2), (1, 3), (1, 1, 2), (1, 3, 2)]
    for part in [p for d in range(1, 5) for p in partitions(d)] + unsorted:
        assert gelfand_product(amb, part) == \
            reference_gelfand_loop(amb, part), part
    assert gelfand_product(amb, [2, 1]) == reference_gelfand_loop(amb, (2, 1))


def test_gelfand_elements_and_products_are_fresh(monkeypatch):
    """A returned Gelfand element or product is fresh and read-only: an
    attempt to change one raises and changes neither a later call nor a
    preimage built after it on a fresh Weyl context."""
    params = HookParams(1, 1, 'half')
    amb = Ambient(1, 2)
    D = capelli_operator(params, parse_partition('2,1', params))
    z = full_preimage(D, check_invariant=False)
    parts = [part for d in range(4) for part in partitions(d)]

    def handed_out():
        return ([gelfand_element(amb, d) for d in range(1, 4)]
                + [gelfand_product(amb, part) for part in parts])

    want = [dict(x.terms) for x in handed_out()]
    for x in handed_out():
        with pytest.raises(AttributeError):
            x.terms.clear()
    monkeypatch.setattr(weyl, '_ctx_cache', {})
    assert [x.terms for x in handed_out()] == want
    monkeypatch.setattr(weyl, '_ctx_cache', {})
    for x in handed_out():
        with pytest.raises(TypeError):
            x.terms[()] = Fraction(7)
    assert full_preimage(D, check_invariant=False) == z


def test_products_table_equals_the_loop(monkeypatch):
    # filled largest degree first, so each longer entry is requested
    # before the leading parts it is built from
    monkeypatch.setattr(weyl, '_ctx_cache', {})
    amb = Ambient(2, 1)
    ctx = weyl_context(amb)
    for d in range(4, -1, -1):
        for part in partitions(d):
            den, ints = _entry(ctx, 'products', part)
            assert UEAElement(amb, {w: Fraction(v, den)
                                    for w, v in ints.items()}) == \
                reference_gelfand_loop(amb, part), part
    assert set(ctx.products) == {p for d in range(5) for p in partitions(d)}


def test_symbol_preimage_equals_the_loop_over_the_coset_type():
    amb = Ambient(1, 2)
    sample = random.Random(0).sample(list(permutations(range(1, 7))), 20)
    for sig in list(permutations(range(1, 5))) + sample:
        assert gelfand_product(amb, coset_type(sig)) == \
            reference_gelfand_loop(amb, coset_type(sig)), sig


@pytest.mark.parametrize('m, n, dmax', [(1, 1, 5), (2, 1, 4), (1, 2, 3),
                                         (2, 2, 3), (3, 0, 4), (0, 1, 3)])
def test_full_preimage_equals_reference(m, n, dmax, monkeypatch):
    """Every hook of size <= dmax, peeled in ascending and in descending
    size, each time on fresh Weyl contexts, so the images are kept in
    both orders.  The Gelfand symbols are dependent at (1,1) d>=4,
    (3,0) d=4 and (0,1) d>=2, where solve_in_span leaves a coefficient
    free."""
    params = HookParams(m, n, 'half')
    ops = []
    for d in range(dmax + 1):
        inv = invariant_symbol_space(Ambient(m, 2 * n), d, verify=False)
        ops += [(b, capelli_operator(params, b, inv_basis=inv))
                for b in enumerate_hooks(params, d)]
    refs = [reference_full_preimage(D) for _, D in ops]
    for order in (ops, ops[::-1]):
        monkeypatch.setattr(weyl, '_ctx_cache', {})
        got = {b: full_preimage(D, check_invariant=False) for b, D in order}
        for (b, _), ref in zip(ops, refs):
            assert got[b] == ref and str(got[b]) == str(ref), b


def test_full_preimage_rejects_a_nonscalar_order_zero_remainder():
    amb = Ambient(1, 2)
    # the constant 3 peels to 3 * 1; y_11 has order 0 but is no scalar
    assert full_preimage(WeylElement.one(amb).scale(3),
                         check_invariant=False) == UEAElement.one(amb).scale(3)
    with pytest.raises(AssertionError, match='not in the invariant span'):
        full_preimage(y_gen(amb, 0, 0), check_invariant=False)


def test_eigen_poly_routes_agree():
    for params in (P11, HookParams(2, 1, 'half')):
        for b in enumerate_hooks(params, 2, upto=True):
            if not b.size:
                continue
            z = central_preimage(params, b)
            assert c_poly_hc(params, b, preimage=z).poly == \
                c_poly_interp(params, b).poly


def test_eigen_poly_normalization_and_vanishing():
    for b in enumerate_hooks(P11, 3, upto=True):
        if not b.size:
            continue
        c = c_poly_hc(P11, b)
        for mu in enumerate_hooks(P11, b.size, upto=True):
            want = factorial(b.size) if mu == b else 0
            assert c.value(gamma_star_map(mu)) == want


def test_duality():
    for b in enumerate_hooks(P11, 2, upto=True):
        if not b.size:
            continue
        z = central_preimage(P11, b)
        c = c_poly_hc(P11, b, preimage=z)
        cs = c_star_poly(P11, b, preimage=z)
        for mu in enumerate_hooks(P11, 3, upto=True):
            w = gamma_star_map(mu)
            assert c.value(w) == cs.value(dual_weight(w, P11))


def test_interpolation_basis_dimension():
    basis = ia_star_basis(P11, 3)
    assert len(basis) == len(enumerate_hooks(P11, 3, upto=True))
    basis = sp_basis(P11, 3)
    assert len(basis) == len(enumerate_hooks(P11, 3, upto=True))


def test_basis_values_from_generators_equal_basis_evaluation():
    half, one = HookParams(2, 1, 'half'), HookParams(2, 1, 'one')
    from supercapelli.hooks import frobenius_point
    bases = [(half, ia_star_basis(half, 6),
              lambda b: gamma_star_map(b).coords)]
    for params in (half, one):
        bases.append((params, sp_basis(params, 6),
                      lambda b: frobenius_point(b).coords()))
    for params, basis, point in bases:
        assert sorted(basis.gens) == list(range(1, 7))
        for b in enumerate_hooks(params, 6, upto=True):
            pt = point(b)
            assert basis.values_at(pt) == [p.evaluate(pt)
                                           for p in basis.polys]


def test_node_rows_are_values_at_each_node():
    half, one = HookParams(2, 1, 'half'), HookParams(2, 1, 'one')
    from supercapelli.hooks import frobenius_point
    bases = [(ia_star_basis(half, 6), lambda b: gamma_star_map(b).coords)]
    for params in (half, one):
        bases.append((sp_basis(params, 6),
                      lambda b: frobenius_point(b).coords()))
    for basis, point in bases:
        assert list(basis.nodes) == enumerate_hooks(basis.params, 6,
                                                    upto=True)
        assert len(basis.nodes) == len(basis) == 29
        for b in basis.nodes:
            assert basis.point(b) == point(b)


def reference_interp(basis, point, target_of, b):
    """The solve-and-accumulate route c_poly_interp and sp_star took
    before the basis kept its nodes: every node row re-evaluated for each
    partition, then sum c_j p_j one scaled term at a time."""
    d = b.size
    rows, rhs = [], []
    for bp in enumerate_hooks(b.params, d, upto=True):
        rows.append(basis.values_at(point(bp)))
        rhs.append(target_of(b) if bp == b else Fraction(0))
    res = lin_solve(rows, rhs, len(basis))
    assert res.unique
    poly = MultiPoly.zero(basis.context)
    for c, p in zip(res.solution, basis.polys):
        if c:
            poly = poly + p.scale(c)
    return poly


def test_interpolation_routes_equal_reference():
    """Every hook up to the interp benchmark's (2,1), d=6, and up to
    (1,2), d=3, with a fresh basis and with one basis shared by the
    partitions of each size."""
    from supercapelli.hooks import frobenius_point, classical_hook_product
    count = 0
    for (m, n), dmax in (((2, 1), 6), ((1, 2), 3)):
        half, one = HookParams(m, n, 'half'), HookParams(m, n, 'one')
        for d in range(1, dmax + 1):
            ia = ia_star_basis(half, d)
            for b in enumerate_hooks(half, d):
                want = reference_interp(
                    ia, lambda bp: gamma_star_map(bp).coords,
                    lambda bp: Fraction(factorial(d)), b)
                for got in (c_poly_interp(half, b).poly,
                            c_poly_interp(half, b, basis=ia).poly):
                    assert got == want and str(got) == str(want)
                count += 1
            for params, target in ((half, hook_product_H),
                                   (one, classical_hook_product)):
                sp = sp_basis(params, d)
                for b in enumerate_hooks(params, d):
                    want = reference_interp(
                        sp, lambda bp: frobenius_point(bp).coords(),
                        lambda bp: Fraction(target(bp)), b)
                    for got in (sp_star(params, b),
                                sp_star(params, b, basis=sp)):
                        assert got == want and str(got) == str(want)
                    count += 1
    assert count == 3 * (28 + 6)


def test_partition_of_other_ranks_is_rejected():
    params, other = HookParams(2, 1, 'half'), P11
    b = parse_partition('2', other)
    # named with both parameter sets, not answered with the zero operator
    for call in (capelli_operator, c_poly_hc, central_preimage,
                 spherical_poly):
        with pytest.raises(ValueError, match=r'partition 2 of '
                           r"HookParams\(1, 1, 'half'\) is not a hook "
                           r"partition of HookParams\(2, 1, 'half'\)"):
            call(params, b)
    # the interpolation route names the partition's own parameters too
    with pytest.raises(ValueError, match=r"does not match HookParams\(2, 1, "
                       r"'half'\), partition 2 of HookParams\(1, 1, 'half'\)"):
        c_poly_interp(params, b)


def test_mismatched_basis_is_rejected():
    half, one = P11, HookParams(1, 1, 'one')
    b = parse_partition('2', half)
    with pytest.raises(ValueError, match='does not match'):
        c_poly_interp(half, b, basis=sp_basis(half, 2))
    with pytest.raises(ValueError, match='does not match'):
        sp_star(one, parse_partition('2', one), basis=sp_basis(half, 2))
    with pytest.raises(ValueError, match='does not match'):
        sp_star(half, b, basis=ia_star_basis(half, 2))
    for d in (1, 3):
        with pytest.raises(ValueError, match='does not match'):
            c_poly_interp(half, b, basis=ia_star_basis(half, d))
        with pytest.raises(ValueError, match='does not match'):
            sp_star(half, b, basis=sp_basis(half, d))
    with pytest.raises(ValueError, match='does not match'):
        c_poly_interp(HookParams(2, 1, 'half'),
                      parse_partition('2', HookParams(2, 1, 'half')),
                      basis=ia_star_basis(half, 2))
    # A partition of other ranks is not among the basis nodes.
    with pytest.raises(ValueError, match='does not match'):
        c_poly_interp(half, parse_partition('2', HookParams(2, 1, 'half')),
                      basis=ia_star_basis(half, 2))
    # The matching basis is still accepted.
    assert c_poly_interp(half, b, basis=ia_star_basis(half, 2)).poly == \
        c_poly_interp(half, b).poly
    assert sp_star(one, parse_partition('2', one), basis=sp_basis(one, 2)) \
        == sp_star(one, parse_partition('2', one))


def test_singular_interpolation_system_is_rejected():
    half = HookParams(2, 1, 'half')
    for basis in (ia_star_basis(half, 2), sp_basis(half, 2)):
        # every node sent to the first node's point: a rank-one node system
        first = basis.point(basis.nodes[0])
        with pytest.raises(AssertionError,
                           match='interpolation system is singular'):
            InterpolationBasis(half, 2, basis.context, basis.gens,
                               lambda b: first)


def test_callers_without_a_basis_share_one_node_solve(monkeypatch):
    """c_poly_interp, sp_star, verify_sv and theta_one_family build one
    interpolation basis per (family, params, d), kept on the ambient's
    Weyl context: the partitions of one degree share one node solve."""
    from supercapelli import solver
    monkeypatch.setattr(weyl, '_ctx_cache', {})
    solves = []

    def counted(*args):
        solves.append(args)
        return lin_solve(*args)

    monkeypatch.setattr(solver, 'lin_solve', counted)
    half, one = HookParams(2, 1, 'half'), HookParams(2, 1, 'one')
    hooks = list(enumerate_hooks(half, 3))
    assert len(hooks) > 1
    for b in hooks:
        c_poly_interp(half, b)
        sp_star(half, b)
        verify_sv(half, b)
    assert len(solves) == 2         # one ia*_basis, one sp_basis
    for b in enumerate_hooks(one, 3):
        theta_one_family(one, b)
        sp_star(one, b)
    assert len(solves) == 3
    ctx = weyl_context(Ambient(2, 2))
    assert sorted((name, p.theta, d) for name, p, d in ctx.bases) == [
        ('ia_star_basis', 'half', 3), ('sp_basis', 'half', 3)]
    assert list(weyl_context(Ambient(2, 1)).bases) == [('sp_basis', one, 3)]
    # callers get fresh, read-only polynomials: an attempt to change one
    # raises and changes no later call
    b = hooks[0]
    want = c_poly_interp(half, b).poly
    got = c_poly_interp(half, b).poly
    assert got == want and got is not want and got.terms is not want.terms
    for k in got.terms:
        with pytest.raises(TypeError):
            got.terms[k] += 1
    sp = sp_star(half, b)
    with pytest.raises(AttributeError):
        sp.terms.clear()
    assert c_poly_interp(half, b).poly == want
    assert sp_star(half, b) == sp_star(half, b, basis=sp_basis(half, 3))
    assert len(solves) == 4         # the explicit sp_basis above


def test_hc_project_of_preimages_equals_the_full_normal_form_route(
        round_trips_21):
    from test_superlie import full_normal_form_hc
    for b, D, z in _round_trips(1, 1, 3) + round_trips_21:
        for sign in ('plus', 'minus'):
            assert hc_project(z, sign) == full_normal_form_hc(z, sign), b


def test_capelli_operator_rejects_a_wrong_invariant_basis():
    params = HookParams(2, 1, 'half')
    b = parse_partition('2,1', params)
    amb = Ambient(2, 2)
    basis = invariant_symbol_space(amb, 3, verify=False)
    want = capelli_operator(params, b)
    assert capelli_operator(params, b, inv_basis=basis) == want
    cases = [
        (invariant_symbol_space(Ambient(1, 2), 3, verify=False),
         r'inv_basis has an element outside Ambient\(2\|2\)'),
        (invariant_symbol_space(amb, 2, verify=False),
         r'inv_basis has an element not of bidegree \(3,3\)'),
        (basis + [t_sigma(amb, (1, 2, 3, 4))],
         r'inv_basis has an element not of bidegree \(3,3\)'),
        (basis[:-1], r'inv_basis has %d elements, not %d'
         % (len(basis) - 1, len(basis))),
        (basis + basis[:1], r'inv_basis has %d elements, not %d'
         % (len(basis) + 1, len(basis))),
    ]
    for inv, match in cases:
        with pytest.raises(ValueError, match=match):
            capelli_operator(params, b, inv_basis=inv)


def reference_filtered_products(gens_by_degree, d, context):
    """The product family _filtered_products kept before the prefix
    rule and the per-size top parts: each partition's product multiplied
    out from 1, ranked on its Fraction terms against the whole family
    kept so far."""
    polys = [MultiPoly.const(context, 1)]
    records = [()]
    vecs = [polys[0].terms]
    for size in range(1, d + 1):
        for part in partitions(size):
            prod = MultiPoly.const(context, 1)
            for k in part:
                prod = prod * gens_by_degree[k]
            if dict_vectors_rank(vecs + [prod.terms]) > len(vecs):
                polys.append(prod)
                records.append(part)
                vecs.append(prod.terms)
    return polys, records


@pytest.mark.parametrize('m, n, d', [
    (2, 1, 6), (1, 2, 5), (1, 1, 7), (3, 1, 5), (2, 2, 5), (1, 3, 4),
    # ranks whose power sums satisfy relations in low degree
    (3, 0, 5), (0, 2, 4), (1, 0, 5), (0, 1, 5)])
def test_filtered_products_equal_the_loop_from_one(m, n, d):
    half, one = HookParams(m, n, 'half'), HookParams(m, n, 'one')
    for basis in (ia_star_basis(half, d), sp_basis(half, d),
                  sp_basis(one, d)):
        polys, records = reference_filtered_products(basis.gens, d,
                                                     basis.context)
        assert basis.records == records
        assert basis.polys == polys
        assert [str(p) for p in basis.polys] == [str(p) for p in polys]


def test_deformed_power_sum_is_transformed_generator():
    for params in (P11, HookParams(2, 1, 'half')):
        amb = Ambient(params.m, 2 * params.n)
        from supercapelli.hooks import a_context
        for d in (1, 2, 3):
            gen = q_projection(gd_element(amb, d), amb)
            assert gen.vars == a_context(params.m, params.n)
            assert frobenius_transform(params, gen) == \
                deformed_power_sum(params, d)


def test_sp_star_rank_one_oracle():
    ctx = xy_context(1, 1)
    want = (MultiPoly.variable(ctx, 'x1') + MultiPoly.variable(ctx, 'y1')
            + MultiPoly.const(ctx, Fraction(-1, 2)))
    assert sp_star(P11, parse_partition('1', P11)) == want


def test_sp_star_interpolation_conditions():
    from supercapelli.hooks import frobenius_point
    for params in (P11, HookParams(1, 1, 'one')):
        for b in enumerate_hooks(params, 2, upto=True):
            if not b.size:
                continue
            p = sp_star(params, b)
            for mu in enumerate_hooks(params, b.size, upto=True):
                val = p.evaluate(frobenius_point(mu).coords())
                if mu == b:
                    assert val == (hook_product_H(b)
                                   if params.theta == 'half'
                                   else classical(b))
                else:
                    assert val == 0


def classical(b):
    from supercapelli.hooks import classical_hook_product
    return classical_hook_product(b)


def test_frobenius_transform_preserves_degree():
    for b in enumerate_hooks(P11, 3, upto=True):
        if not b.size:
            continue
        c = c_star_poly(P11, b)
        assert frobenius_transform(P11, c).degree() == c.poly.degree()


def test_natural_algebra_check():
    params = HookParams(1, 1, 'one')
    ctx = xy_context(1, 1)
    assert natural_algebra_check(params, MultiPoly.const(ctx, 5))
    # x1 alone violates the shift relation on the hyperplane
    assert not natural_algebra_check(params, MultiPoly.variable(ctx, 'x1'))
    # x1 + y1 satisfies it
    assert natural_algebra_check(
        params, MultiPoly.variable(ctx, 'x1') + MultiPoly.variable(ctx, 'y1'))
    for b in enumerate_hooks(params, 3, upto=True):
        if not b.size:
            continue
        fam = theta_one_family(params, b)
        assert natural_algebra_check(params, fam['s_star'])
        assert natural_algebra_check(params, fam['s_top'])


def reference_natural_algebra_check(params, p):
    """The hyperplane half of natural_algebra_check as it was: shift all
    variables by +s and by -s, subtract, then restrict the difference to
    x_k = -theta * y_l, four substitutions per (k, l)."""
    m, n = params.m, params.n
    ctx = p.vars
    theta = Fraction(1, 2) if params.theta == 'half' else Fraction(1)

    def substitute(lin_of, shift):
        images = {}
        for i, name in enumerate(ctx):
            images[name] = (lin_of(i), shift[i])
        return AffineSubstitution(ctx, ctx, images)

    def unit(i):
        return [Fraction(int(j == i)) for j in range(m + n)]

    for k in range(m):
        for l in range(n):
            plus = [Fraction(0)] * (m + n)
            plus[k], plus[m + l] = Fraction(1, 2), Fraction(-1, 2)
            g = substitute(unit, plus).apply(p) \
                - substitute(unit, [-s for s in plus]).apply(p)

            def restrict(i):
                return [-theta * int(j == m + l) for j in range(m + n)] \
                    if i == k else unit(i)

            if not substitute(restrict, [0] * (m + n)).apply(g).is_zero():
                return False
    return True


def test_natural_algebra_check_matches_the_four_substitution_route():
    # separately symmetric inputs, so each verdict is the hyperplane one
    verdicts = []
    for m, n in [(1, 1), (2, 1), (1, 2)]:
        for theta in ('half', 'one'):
            params = HookParams(m, n, theta)
            ctx = xy_context(m, n)
            sx = sum((MultiPoly.variable(ctx, v) for v in ctx[:m]),
                     MultiPoly.zero(ctx))
            sy = sum((MultiPoly.variable(ctx, v) for v in ctx[m:]),
                     MultiPoly.zero(ctx))
            for b in enumerate_hooks(params, 3, upto=True):
                p = sp_star(params, b)
                for q in (p, p + sx * sy, p + sy):
                    want = reference_natural_algebra_check(params, q)
                    assert natural_algebra_check(params, q) == want, (b, q)
                    verdicts.append(want)
    assert verdicts.count(True) and verdicts.count(False), verdicts


def test_verify_reports():
    b = parse_partition('1,1', P11)
    assert verify_main(P11, b).passed
    assert verify_sv(P11, b).passed


def test_hc_symbol_identity():
    for (m, n) in ((1, 1), (2, 1)):
        amb = Ambient(m, n)
        for d in (1, 2):
            lhs = symbol(rho_check(gelfand_element(amb, d)), d)
            rhs = t_sigma(amb, consecutive_cycles_perm((d,))).scale((-2) ** d)
            assert lhs == rhs


@pytest.mark.parametrize('m,n,dmax', [(0, 2, 3), (3, 0, 3), (2, 2, 2),
                                      (3, 1, 2)])
def test_verify_main_outside_the_default_ranks(m, n, dmax):
    """The top part of the HC eigenvalue polynomial equals d_b at ranks
    the default verify suites never restrict at: m = 0, n = 0, (2,2) and
    (3,1)."""
    params = HookParams(m, n, 'half')
    hooks = [b for b in enumerate_hooks(params, dmax, upto=True) if b.size]
    assert hooks
    for b in hooks:
        D = capelli_operator(params, b)
        assert not spherical_poly(params, b, capelli=D).is_zero(), b
        report = verify_main(params, b, capelli=D)
        assert report.passed, report
