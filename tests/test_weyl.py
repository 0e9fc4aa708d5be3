import random
import re
from fractions import Fraction

import pytest

from supercapelli.hooks import (HookParams, enumerate_hooks, gamma_star_map,
                                eps_extension, a_context, parse_partition,
                                partitions)
from supercapelli.linalg import dict_columns_kernel
from supercapelli.multipoly import MultiPoly
from supercapelli.superlie import Ambient, UEAElement, bracket, gelfand_element
from supercapelli import weyl
from supercapelli.weyl import (WeylElement, _symbol_mul_ints, weyl_context,
                               y_gen, d_gen, weyl_mul, monomial_basis,
                               apply_weyl, rho_check, rho_check_gen, t_sigma,
                               consecutive_cycles_perm, invariant_spanning_set,
                               invariant_symbol_space, mono_weight,
                               highest_weight_vectors,
                               all_highest_weight_vectors, cyclic_span_dim,
                               eigenvalue_on, capelli_operator,
                               spherical_vector, spherical_poly,
                               osp_spanning_set, symbol, hook_vectors)
from supercapelli.solver import verify_main


def random_weyl(amb, rng, nterms=3, maxlen=2):
    ctx = weyl_context(amb)
    ngen = len(ctx.pairs)
    terms = {}
    for _ in range(nterms):
        y = tuple(sorted(rng.randrange(ngen)
                         for _ in range(rng.randrange(maxlen + 1))))
        d = tuple(sorted(rng.randrange(ngen)
                         for _ in range(rng.randrange(maxlen + 1))))
        if ctx.sort_mono(y)[0] is None or ctx.sort_mono(d)[0] is None:
            continue
        terms[(y, d)] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    return WeylElement(amb, terms)


def test_canonical_pairs():
    amb = Ambient(1, 2)
    ctx = weyl_context(amb)
    # pairs (0,0), (0,1), (0,2), (1,2); odd diagonals excluded
    assert len(ctx.pairs) == 4
    assert ctx.canon(1, 1) == (None, 0)
    g, s = ctx.canon(2, 0)
    assert ctx.pairs[g] == (0, 2) and s == 1
    g, s = ctx.canon(2, 1)
    assert ctx.pairs[g] == (1, 2) and s == -1


def test_heisenberg_relation():
    amb = Ambient(1, 0)
    y = y_gen(amb, 0, 0)
    d = d_gen(amb, 0, 0)
    assert weyl_mul(d, y) == weyl_mul(y, d) + WeylElement.one(amb).scale(2)


def test_odd_generator_squares():
    amb = Ambient(1, 1)
    y = y_gen(amb, 0, 1)
    assert weyl_mul(y, y).is_zero()
    d = d_gen(amb, 0, 1)
    assert weyl_mul(d, d).is_zero()


def test_associativity_random():
    amb = Ambient(1, 2)
    rng = random.Random(19)
    for _ in range(12):
        a, b, c = (random_weyl(amb, rng) for _ in range(3))
        assert weyl_mul(weyl_mul(a, b), c) == weyl_mul(a, weyl_mul(b, c))


def test_json_round_trip():
    amb = Ambient(2, 2)
    rng = random.Random(29)
    for _ in range(8):
        a = random_weyl(amb, rng)
        assert WeylElement.from_json(a.to_json()) == a


def test_monomial_basis_dimensions():
    amb = Ambient(1, 2)
    # 2 even generators, 2 odd generators
    assert [len(monomial_basis(amb, k)) for k in range(4)] == [1, 4, 8, 12]


def test_rho_check_is_homomorphism():
    amb = Ambient(1, 2)
    gens = [(i, j) for i in range(amb.dim) for j in range(amb.dim)]
    for g1 in gens:
        for g2 in gens:
            a = UEAElement.gen(amb, *g1)
            b = UEAElement.gen(amb, *g2)
            lhs = rho_check(bracket(a, b))
            p1, p2 = amb.gen_parity(g1), amb.gen_parity(g2)
            ra, rb = rho_check(a), rho_check(b)
            rhs = weyl_mul(ra, rb) - weyl_mul(rb, ra).scale((-1) ** (p1 * p2))
            assert lhs == rhs, (g1, g2)


def test_rho_check_gelfand_one_is_grading():
    amb = Ambient(1, 2)
    op = rho_check(gelfand_element(amb, 1))
    for k in range(4):
        for mono in monomial_basis(amb, k):
            img = apply_weyl(op, {mono: Fraction(1)})
            assert img == ({mono: Fraction(-2 * k)} if k else {})


def test_t_sigma_rank_one():
    amb = Ambient(1, 0)
    t = t_sigma(amb, (1, 2))
    assert t == WeylElement(amb, {((0,), (0,)): Fraction(1, 2)})
    assert rho_check(UEAElement.gen(amb, 0, 0)) == t.scale(-2)


def test_t_sigma_block_invariance():
    amb = Ambient(1, 1)
    # swapping within a pairing block leaves the invariant unchanged
    assert t_sigma(amb, (2, 1, 3, 4)) == t_sigma(amb, (1, 2, 3, 4))
    assert t_sigma(amb, (3, 4, 1, 2)) == t_sigma(amb, (1, 2, 3, 4))


def test_consecutive_cycles_perm():
    assert consecutive_cycles_perm((1,)) == (1, 2)
    assert consecutive_cycles_perm((2,)) == (1, 4, 3, 2)
    assert consecutive_cycles_perm((1, 1)) == (1, 2, 3, 4)


def test_invariant_space_dimensions():
    # gl(1|2) and gl(2|2)
    for m, n in ((1, 1), (2, 1)):
        amb = Ambient(m, 2 * n)
        for d in (1, 2, 3):
            basis = invariant_symbol_space(amb, d, verify=True)
            assert len(basis) == len(enumerate_hooks(HookParams(m, n, 'half'),
                                                     d))


def test_invariant_spanning_set_degree_two_covers_s4():
    from itertools import permutations
    from supercapelli.linalg import solve_in_span
    amb = Ambient(1, 2)
    span = [t.terms for _, t in invariant_spanning_set(amb, 2)]
    for sig in permutations(range(1, 5)):
        assert solve_in_span(span, t_sigma(amb, sig).terms) is not None, sig


@pytest.mark.parametrize('mn, dmax', [
    ((0, 0), 2), ((1, 0), 3), ((0, 2), 3), ((1, 1), 4), ((2, 1), 4),
    ((1, 2), 4), ((2, 2), 4), ((3, 0), 3), ((1, 4), 3), ((3, 2), 3)])
def test_invariant_spanning_set_equals_the_literal_t_sigma(mn, dmax):
    # old route: the literal sum of each product of consecutive cycles
    amb = Ambient(*mn)
    for d in range(dmax + 1):
        for part, t in invariant_spanning_set(amb, d):
            lit = t_sigma(amb, consecutive_cycles_perm(part))
            assert t == lit and str(t) == str(lit), (mn, part)


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2), (0, 2)])
def test_symbol_product_is_the_symbol_of_the_weyl_product(mn):
    amb = Ambient(*mn)
    ctx = weyl_context(amb)
    cycles = {b: t_sigma(amb, consecutive_cycles_perm((b,)))
              for b in (1, 2, 3)}
    for b1, a in cycles.items():
        for b2, b in cycles.items():
            den_a, ints_a = a.cleared()
            den_b, ints_b = b.cleared()
            prod = WeylElement(amb, {k: Fraction(v, den_a * den_b)
                                     for k, v in _symbol_mul_ints(
                                         ctx, ints_a, ints_b).items()})
            assert prod == symbol(weyl_mul(a, b), b1 + b2), (b1, b2)


def test_cycle_symbols_are_walked_once_per_block_size(monkeypatch):
    monkeypatch.setattr(weyl, '_ctx_cache', {})
    calls = []

    def counted(ambient, sigma):
        calls.append(sigma)
        return t_sigma(ambient, sigma)

    monkeypatch.setattr(weyl, 't_sigma', counted)
    amb = Ambient(2, 1)
    first = invariant_symbol_space(amb, 4, verify=False)
    # one literal walk per block size, each of a single cycle
    assert sorted(calls, key=len) == [consecutive_cycles_perm((b,))
                                      for b in (1, 2, 3, 4)]
    del calls[:]
    for d in range(5):
        basis = invariant_symbol_space(amb, d, verify=False)
    assert basis == first and calls == []


TABLES = ('symbols', 'images', 'products')


def _filled_context(monkeypatch, amb, parts):
    """A fresh Weyl context with every table asked for each of parts."""
    monkeypatch.setattr(weyl, '_ctx_cache', {})
    ctx = weyl_context(amb)
    for part in parts:
        for table in TABLES:
            weyl._entry(ctx, table, part)
    return ctx


def test_tables_hold_the_requests_their_leading_parts_and_parts(monkeypatch):
    parts = [(3, 2, 1), (2, 2), (1, 1, 1, 1)]
    ctx = _filled_context(monkeypatch, Ambient(1, 2), parts)
    want = {(), (3, 2, 1), (3, 2), (3,), (2,), (1,), (2, 2), (1, 1, 1, 1),
            (1, 1, 1), (1, 1)}
    for table in TABLES:
        assert set(getattr(ctx, table)) == want, table
    assert ctx.symbols[()] == ctx.images[()] == (1, {((), ()): 1})
    assert ctx.products[()] == (1, {(): 1})


def test_tables_do_not_depend_on_the_fill_order(monkeypatch):
    amb = Ambient(2, 1)
    parts = [part for d in range(5) for part in partitions(d)]
    up = _filled_context(monkeypatch, amb, parts)
    down = _filled_context(monkeypatch, amb, parts[::-1])
    assert up is not down
    for table in TABLES:
        assert getattr(up, table) == getattr(down, table), table


def test_symbols_table_entries_are_the_spanning_set(monkeypatch):
    monkeypatch.setattr(weyl, '_ctx_cache', {})
    amb = Ambient(1, 2)
    for d in range(6):
        for part, t in invariant_spanning_set(amb, d):
            assert WeylElement.from_cleared(
                amb, *weyl_context(amb).symbols[part]) == t
    assert set(weyl_context(amb).symbols) == \
        {p for d in range(6) for p in partitions(d)}


def test_verify_compares_each_product_with_the_literal_t_sigma(monkeypatch):
    amb = Ambient(1, 2)
    span = invariant_spanning_set(amb, 2)
    (p0, t0), (p1, t1) = span
    # a rescaled product spans the same space, so only the literal
    # comparison can catch it
    monkeypatch.setattr(weyl, 'invariant_spanning_set',
                        lambda ambient, d: [(p0, t0.scale(2)), (p1, t1)])
    with pytest.raises(AssertionError, match='literal t_sigma'):
        invariant_symbol_space(amb, 2, verify=True)


def test_verify_compares_the_span_with_the_kernel(monkeypatch):
    amb = Ambient(1, 2)
    kernel = weyl.invariant_kernel(amb, 2)
    assert len(kernel) == 2
    monkeypatch.setattr(weyl, 'invariant_kernel',
                        lambda ambient, d: kernel[:1])
    with pytest.raises(AssertionError, match='does not match the kernel'):
        invariant_symbol_space(amb, 2, verify=True)
    # a kernel of the right dimension that misses a spanning symbol: one
    # kernel vector swapped for a single (non-invariant) monomial
    mm = monomial_basis(amb, 2)[0]
    other = WeylElement(amb, {(mm, mm): Fraction(1)})
    monkeypatch.setattr(weyl, 'invariant_kernel',
                        lambda ambient, d: [kernel[0], other])
    with pytest.raises(AssertionError,
                       match='symbol outside the invariant kernel'):
        invariant_symbol_space(amb, 2, verify=True)


def test_highest_weight_bookkeeping():
    amb = Ambient(1, 2)
    params = HookParams(1, 1, 'half')
    for k in range(4):
        hw = all_highest_weight_vectors(amb, k)
        count = sum(len(basis) for _, basis in hw)
        assert count == len(enumerate_hooks(params, k))
        total = sum(cyclic_span_dim(amb, v) for _, basis in hw for v in basis)
        assert total == len(monomial_basis(amb, k))


def reference_highest_weight_vectors(ambient, k, eps_coords):
    """highest_weight_vectors as it filtered its candidates before: every
    degree-k monomial, its weight converted to Fractions, compared with
    the requested weight (one pass over the whole basis per weight)."""
    ctx = weyl_context(ambient)
    eps = tuple(Fraction(c) for c in eps_coords)
    cands = [mm for mm in monomial_basis(ambient, k)
             if tuple(Fraction(w) for w in mono_weight(ctx, mm)) == eps]
    if not cands:
        return []
    raising = [rho_check_gen(ambient, i, i + 1) for i in range(ambient.dim - 1)]
    columns = []
    for mm in cands:
        vec = {}
        for gi, op in enumerate(raising):
            img = apply_weyl(op, {mm: Fraction(1)})
            for key, c in img.items():
                vec[(gi, key)] = c
        columns.append(vec)
    return [{mm: c for mm, c in zip(cands, vec) if c}
            for vec in dict_columns_kernel(columns)]


@pytest.mark.parametrize('mn', [(1, 2), (2, 2), (1, 4), (0, 2), (3, 0),
                                (2, 1)])
def test_highest_weight_vectors_equal_the_filter_route(mn):
    amb = Ambient(*mn)
    ctx = weyl_context(amb)
    for k in range(4):
        weights = sorted({mono_weight(ctx, mm)
                          for mm in monomial_basis(amb, k)}, reverse=True)
        want = []
        for w in weights:
            basis = reference_highest_weight_vectors(amb, k, w)
            assert highest_weight_vectors(amb, k, w) == basis, (w, k)
            # Fraction-coercible coordinates name the same weight
            for coords in ([Fraction(c) for c in w], [str(c) for c in w]):
                assert highest_weight_vectors(amb, k, coords) == basis, (w, k)
            if basis:
                want.append((w, basis))
        assert all_highest_weight_vectors(amb, k) == want, k


def test_highest_weight_vectors_of_a_weight_with_no_monomial():
    amb = Ambient(1, 2)
    half = Fraction(-1, 2)
    assert highest_weight_vectors(amb, 2, (-1, half, half)) == []
    assert highest_weight_vectors(amb, 2, ('-1', '-1/2', '-1/2')) == []
    assert highest_weight_vectors(amb, 2, (-2, 0)) == []     # wrong length
    assert highest_weight_vectors(amb, 2, (-1, -1, -1)) == []  # wrong degree


def test_capelli_operator_rank_one():
    params = HookParams(1, 0, 'half')
    b = enumerate_hooks(params, 1)[0]
    D = capelli_operator(params, b)
    assert D == WeylElement(Ambient(1, 0), {((0,), (0,)): Fraction(1, 2)})


def test_capelli_eigenvalues():
    params = HookParams(1, 1, 'half')
    amb = Ambient(1, 2)
    from math import factorial
    for b in enumerate_hooks(params, 2, upto=True):
        if not b.size:
            continue
        D = capelli_operator(params, b)
        for mu in enumerate_hooks(params, b.size):
            w = gamma_star_map(mu)
            hw = highest_weight_vectors(amb, mu.size, eps_extension(w))
            assert len(hw) == 1
            ev = eigenvalue_on(D, hw[0])
            assert ev == (factorial(b.size) if mu == b else 0)


def test_spherical_rank_one():
    params = HookParams(1, 0, 'half')
    b = enumerate_hooks(params, 1)[0]
    vec = spherical_vector(params, b)
    assert vec == {(0,): Fraction(1, 2)}
    poly = spherical_poly(params, b)
    ctx = a_context(1, 0)
    assert poly == MultiPoly.variable(ctx, 'a1').scale(Fraction(-1, 2))


def test_spherical_vector_invariance():
    params = HookParams(1, 1, 'half')
    b = enumerate_hooks(params, 2)[0]
    vec = spherical_vector(params, b)
    assert vec
    for k in osp_spanning_set(params):
        assert not apply_weyl(rho_check(k), vec)


def test_symbol():
    amb = Ambient(1, 0)
    a = weyl_mul(d_gen(amb, 0, 0), y_gen(amb, 0, 0))
    assert symbol(a, 1) == WeylElement(amb, {((0,), (0,)): Fraction(1)})
    with pytest.raises(ValueError):
        symbol(a, 0)


def test_capelli_operator_groups_p_d_by_weight_once(monkeypatch):
    # one weight grouping of P^d(W) per call, not one per hook of degree d
    calls = []
    real = weyl.monomial_basis

    def monomial_basis(ambient, k):
        calls.append((ambient, k))
        return real(ambient, k)

    monkeypatch.setattr(weyl, 'monomial_basis', monomial_basis)
    params = HookParams(2, 1, 'half')
    hooks = enumerate_hooks(params, 3)
    assert len(hooks) == 3
    for b in hooks:
        calls.clear()
        D = capelli_operator(params, b)
        assert calls == [(params.ambient, 3)]
        # the eigenvalues, read on highest weight vectors found per hook
        for mu in hooks:
            hw = highest_weight_vectors(params.ambient, 3,
                                        eps_extension(gamma_star_map(mu)))
            assert eigenvalue_on(D, hw[0]) == (6 if mu == b else 0)


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2), (3, 0), (0, 2)])
def test_hook_vectors_are_the_highest_weight_vectors_of_the_hooks(mn):
    params = HookParams(*mn, 'half')
    for k in range(5):
        vectors = hook_vectors(params, k)
        assert list(vectors) == enumerate_hooks(params, k), k
        for mu, v in vectors.items():
            w = eps_extension(gamma_star_map(mu))
            assert v == highest_weight_vectors(params.ambient, k, w)[0], mu


def test_hook_vectors_name_a_weight_without_a_vector(monkeypatch):
    params = HookParams(2, 1, 'half')
    mu = enumerate_hooks(params, 2)[1]
    w = gamma_star_map(mu)
    gone = set(weyl._weight_spaces(params.ambient, 2)[eps_extension(w)])
    real = weyl._highest_in

    def highest_in(ambient, cands):
        return [] if set(cands) == gone else real(ambient, cands)

    monkeypatch.setattr(weyl, '_highest_in', highest_in)
    with pytest.raises(AssertionError,
                       match=r'highest weight space at %s has dimension 0'
                       % re.escape(str(w))):
        hook_vectors(params, 2)


def test_spherical_vector_rejects_a_capelli_of_other_ranks_or_degree():
    params, small = HookParams(2, 1, 'half'), HookParams(1, 1, 'half')
    b = parse_partition('2', params)
    other = capelli_operator(small, parse_partition('2', small))
    cubic = capelli_operator(params, parse_partition('3', params))
    for fn in (spherical_vector, spherical_poly, verify_main):
        with pytest.raises(ValueError, match=r'capelli operator in '
                           r'Ambient\(1\|2\), not in Ambient\(2\|2\)'):
            fn(params, b, capelli=other)
        with pytest.raises(ValueError,
                           match=r'capelli operator not of bidegree \(2,2\)'):
            fn(params, b, capelli=cubic)
    # the operator of the right ranks and degree is accepted
    assert spherical_poly(params, b, capelli=capelli_operator(params, b)) \
        == spherical_poly(params, b)


def reference_eigenvalue_on(op, vec):
    """eigenvalue_on as it checked proportionality before: the first key,
    then every key of the vector, then every key of the image."""
    img = apply_weyl(op, vec)
    if not img:
        return Fraction(0)
    key = next(iter(sorted(vec)))
    if key not in img:
        raise AssertionError('image not proportional to the vector')
    s = img[key] / vec[key]
    for kk, c in vec.items():
        if img.get(kk, 0) != s * c:
            raise AssertionError('image not proportional to the vector')
    for kk in img:
        if kk not in vec:
            raise AssertionError('image not proportional to the vector')
    return s


def _eigenvalue_or_error(fn, op, vec):
    try:
        return fn(op, vec)
    except AssertionError as exc:
        return str(exc)


def test_eigenvalue_on_equals_the_three_loop_check():
    amb = Ambient(1, 2)
    rng = random.Random(5)
    ctx = weyl_context(amb)
    monos = monomial_basis(amb, 1) + monomial_basis(amb, 2)
    ops = [rho_check_gen(amb, i, j) for i in range(3) for j in range(3)]
    ops += [random_weyl(amb, rng, nterms=2, maxlen=1) for _ in range(20)]
    # the Euler operator scales every degree-2 vector by 2
    euler = WeylElement(amb, {((g,), (g,)): Fraction(1, ctx.pairing(g, g))
                              for g in range(len(ctx.pairs))})
    outcomes = set()
    for _ in range(200):
        vec = {mm: Fraction(rng.randrange(1, 5), rng.randrange(1, 3))
               for mm in rng.sample(monos, rng.randrange(1, 4))}
        for op in [euler] + rng.sample(ops, 3):
            got = _eigenvalue_or_error(eigenvalue_on, op, vec)
            assert got == _eigenvalue_or_error(reference_eigenvalue_on,
                                               op, vec), (op, vec)
            outcomes.add(type(got))
    assert outcomes == {Fraction, str}
    vec = {mm: Fraction(1) for mm in monomial_basis(amb, 2)[:3]}
    assert eigenvalue_on(euler, vec) == 2
    with pytest.raises(AssertionError, match='image not proportional'):
        eigenvalue_on(euler + rho_check_gen(amb, 0, 1), vec)
