"""The packed-int normal-ordering kernels, the Horner rho_check, the
integer apply_weyl, the closed-form spherical restriction, the integer
polynomial product, the integer interpolation node rows and the rules
written once (the word product, the weight spaces of P^k(W), the
Frobenius shifts, the hook-product box walk and omega's sign) against
the routes they replaced, kept here as references: equal values and
equal str() on random and exhaustive inputs.  The references are the
Fraction routes, the sorted-tuple int kernels that the packed ones
replaced and the second copies of each rule."""

import gc
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import permutations, product
from math import prod

import pytest

from supercapelli.cli import _CONFIGS
from supercapelli.hooks import (HookParams, a_context, classical_hook_product,
                                enumerate_hooks, eps_context,
                                frobenius_affine_map, frobenius_point,
                                hook_product_H, partitions,
                                xy_context, FrobeniusPoint)
from supercapelli.linalg import dict_columns_kernel
from supercapelli.multipoly import AffineSubstitution, MultiPoly, _clear
from supercapelli.solver import coset_type, full_preimage
from supercapelli import weyl
from supercapelli.superlie import (Ambient, UEAElement, bracket_gen,
                                   gelfand_element, omega, pbw_normalize,
                                   _gen_key)
from supercapelli.weyl import (WeylElement, all_highest_weight_vectors,
                               apply_weyl, capelli_operator,
                               consecutive_cycles_perm, cyclic_span_dim,
                               gelfand_product, hook_vectors, invariant_kernel,
                               invariant_symbol_space, monomial_basis,
                               osp_spanning_set, rho_check, rho_check_gen,
                               spherical_poly, spherical_vector, symbol,
                               t_sigma, weyl_context, weyl_mul,
                               _cartan_generators, _commutator, _entry,
                               _order_part, _rho_intern, _symbol_mul_ints)

from linalg_reference import reference_rank


# ---------------------------------------------------------------------------
# References: word-by-word rewriting and insertion sort on Fractions.

def reference_pbw_normalize(a, mirrored=False):
    amb = a.ambient
    done = {}
    frontier = dict(a.terms)
    while frontier:
        word, coeff = frontier.popitem()
        if coeff == 0:
            continue
        pos = -1
        for t in range(len(word) - 1):
            g1, g2 = word[t], word[t + 1]
            if _gen_key(amb, g1, mirrored) > _gen_key(amb, g2, mirrored) or \
                    (g1 == g2 and amb.gen_parity(g1)):
                pos = t
                break
        if pos < 0:
            done[word] = done.get(word, 0) + coeff
            continue
        g1, g2 = word[pos], word[pos + 1]
        head, tail = word[:pos], word[pos + 2:]
        br = bracket_gen(amb, g1, g2)
        if g1 == g2:
            # odd square: x^2 = [x,x]/2
            for w, c in br.terms.items():
                nw = head + w + tail
                frontier[nw] = frontier.get(nw, 0) + coeff * c / 2
        else:
            sgn = (-1) ** (amb.gen_parity(g1) * amb.gen_parity(g2))
            nw = head + (g2, g1) + tail
            frontier[nw] = frontier.get(nw, 0) + sgn * coeff
            for w, c in br.terms.items():
                nw = head + w + tail
                frontier[nw] = frontier.get(nw, 0) + coeff * c
    return UEAElement(amb, done)


def reference_sort_mono(ctx, items):
    items = list(items)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            if ctx.parity[items[j - 1]] and ctx.parity[items[j]]:
                sign = -sign
            items[j - 1], items[j] = items[j], items[j - 1]
            j -= 1
    for k in range(len(items) - 1):
        if items[k] == items[k + 1] and ctx.parity[items[k]]:
            return None, 0
    return tuple(items), sign


def reference_push(ctx, dmono, ymono):
    if not dmono or not ymono:
        return {(ymono, dmono): Fraction(1)}
    delta = dmono[-1]
    rest = dmono[:-1]
    pd = ctx.parity[delta]
    out = {}
    sign_full = (-1) ** (pd * sum(ctx.parity[g] for g in ymono))
    for (y1, d1), c in reference_push(ctx, rest, ymono).items():
        nd, s = reference_sort_mono(ctx, list(d1) + [delta])
        if nd is None:
            continue
        k = (y1, nd)
        out[k] = out.get(k, 0) + c * s * sign_full
    pref = 0
    for t, g in enumerate(ymono):
        c0 = ctx.pairing(delta, g)
        if c0:
            s = (-1) ** (pd * pref)
            reduced = ymono[:t] + ymono[t + 1:]
            for (y1, d1), c in reference_push(ctx, rest, reduced).items():
                k = (y1, d1)
                out[k] = out.get(k, 0) + c * s * c0
        pref += ctx.parity[g]
    return {k: v for k, v in out.items() if v != 0}


def reference_weyl_mul(a, b):
    ctx = weyl_context(a.ambient)
    terms = {}
    for (y1, d1), c1 in a.terms.items():
        for (y2, d2), c2 in b.terms.items():
            for (ym, dm), c in reference_push(ctx, d1, y2).items():
                ny, s1 = reference_sort_mono(ctx, y1 + ym)
                if ny is None:
                    continue
                nd, s2 = reference_sort_mono(ctx, dm + d2)
                if nd is None:
                    continue
                k = (ny, nd)
                terms[k] = terms.get(k, 0) + c1 * c2 * c * s1 * s2
    return WeylElement(a.ambient, terms)


def reference_t_sigma(ambient, sigma):
    two_d = len(sigma)
    d = two_d // 2
    ctx = weyl_context(ambient)
    amb = ambient
    inv_pairs = [(r, s) for r in range(two_d) for s in range(r + 1, two_d)
                 if sigma[r] > sigma[s]]
    terms = {}
    for tup in product(range(amb.dim), repeat=two_d):
        p = [amb.parity(i) for i in tup]
        sgn = sum(p) % 2
        for r, s in inv_pairs:
            sgn += p[sigma[r] - 1] * p[sigma[s] - 1]
        ylist = []
        ok = True
        sign = (-1) ** sgn
        for t in range(d, 0, -1):
            g, s2 = ctx.canon(tup[2 * t - 2], tup[2 * t - 1])
            if g is None:
                ok = False
                break
            sign *= s2
            ylist.append(g)
        if not ok:
            continue
        xlist = []
        for t in range(1, d + 1):
            g, s2 = ctx.canon(tup[sigma[2 * t - 2] - 1],
                              tup[sigma[2 * t - 1] - 1])
            if g is None:
                ok = False
                break
            sign *= s2
            xlist.append(g)
        if not ok:
            continue
        ny, s3 = reference_sort_mono(ctx, ylist)
        if ny is None:
            continue
        nd, s4 = reference_sort_mono(ctx, xlist)
        if nd is None:
            continue
        k = (ny, nd)
        terms[k] = terms.get(k, 0) + Fraction(sign * s3 * s4, 2 ** d)
    return WeylElement(ambient, terms)


# ---------------------------------------------------------------------------
# The sorted-tuple int kernels: merge by bisection, the memoized push, the
# product, the symbol product and the literal t_sigma walk with a sorted
# leaf, as they ran before monomials were packed.

def tuple_merge_mono(ctx, a, b):
    if not (a and b):
        return a or b, 1
    parity = ctx.parity
    if len(b) == 1:
        g = b[0]
        t = bisect_right(a, g)
        if not parity[g]:
            return a[:t] + b + a[t:], 1
        if t and a[t - 1] == g:
            return None, 0
        passed = a[t:]
        out = a[:t] + b + passed
    elif len(a) == 1:
        g = a[0]
        t = bisect_left(b, g)
        if not parity[g]:
            return b[:t] + a + b[t:], 1
        if t < len(b) and b[t] == g:
            return None, 0
        passed = b[:t]
        out = passed + a + b[t:]
    else:
        return ctx.sort_mono(a + b)
    if sum(map(parity.__getitem__, passed)) % 2:
        return out, -1
    return out, 1


def tuple_push(ctx, dmono, ymono, cache):
    if not dmono or not ymono:
        return {(ymono, dmono): 1}
    key = (dmono, ymono)
    if key in cache:
        return cache[key]
    delta = dmono[-1]
    rest = dmono[:-1]
    parity = ctx.parity
    pd = parity[delta]
    out = {}
    sign_full = -1 if pd and sum(parity[g] for g in ymono) % 2 else 1
    for (y1, d1), c in tuple_push(ctx, rest, ymono, cache).items():
        nd, s = tuple_merge_mono(ctx, d1, (delta,))
        if nd is None:
            continue
        k = (y1, nd)
        out[k] = out.get(k, 0) + c * s * sign_full
    pref = 0
    for t, g in enumerate(ymono):
        if g == delta:
            c0 = ctx.pairing(delta, g)
            if pd and pref % 2:
                c0 = -c0
            reduced = ymono[:t] + ymono[t + 1:]
            for k, c in tuple_push(ctx, rest, reduced, cache).items():
                out[k] = out.get(k, 0) + c * c0
        pref += parity[g]
    out = {k: v for k, v in out.items() if v}
    cache[key] = out
    return out


def tuple_canonical_ints(ctx, ints):
    out = {}
    for (y, d), c in ints.items():
        ny, sy = ctx.sort_mono(y)
        nd, sd = ctx.sort_mono(d)
        if sy and sd:
            k = (ny, nd)
            out[k] = out.get(k, 0) + sy * sd * c
    return out


def tuple_mul_ints(ctx, a, b, cache=None):
    cache = {} if cache is None else cache
    terms = {}
    for (y1, d1), c1 in a.items():
        for (y2, d2), c2 in b.items():
            for (ym, dm), c in tuple_push(ctx, d1, y2, cache).items():
                ny, s1 = tuple_merge_mono(ctx, y1, ym)
                if ny is None:
                    continue
                nd, s2 = tuple_merge_mono(ctx, dm, d2)
                if nd is None:
                    continue
                k = (ny, nd)
                terms[k] = terms.get(k, 0) + c1 * c2 * c * s1 * s2
    return terms


def tuple_weyl_mul(a, b):
    ctx = weyl_context(a.ambient)
    den_a, ints_a = a.cleared()
    den_b, ints_b = b.cleared()
    terms = tuple_mul_ints(ctx, tuple_canonical_ints(ctx, ints_a),
                           tuple_canonical_ints(ctx, ints_b))
    return WeylElement.from_cleared(a.ambient, den_a * den_b, terms)


def tuple_symbol_mul_ints(ctx, a, b):
    terms = {}
    for (y1, x1), c1 in a.items():
        for (y2, x2), c2 in b.items():
            ny, s1 = tuple_merge_mono(ctx, y2, y1)
            if ny is None:
                continue
            nx, s2 = tuple_merge_mono(ctx, x1, x2)
            if nx is None:
                continue
            k = (ny, nx)
            terms[k] = terms.get(k, 0) + c1 * c2 * s1 * s2
    return terms


def tuple_t_sigma(ambient, sigma):
    two_d = len(sigma)
    if not two_d:
        return WeylElement.one(ambient)
    d = two_d // 2
    ctx = weyl_context(ambient)
    dim = ambient.dim
    canon = ctx.canon_table
    canon_t = [list(col) for col in zip(*canon)]
    parity = [ambient.parity(i) for i in range(dim)]
    inv_pos = [(sigma[r] - 1, sigma[s] - 1) for r in range(two_d)
               for s in range(r + 1, two_d) if sigma[r] > sigma[s]]
    sign_of = []
    for mask in range(2 ** two_d):
        odd = mask.bit_count() + sum((mask >> r) & (mask >> s) & 1
                                     for r, s in inv_pos)
        sign_of.append(-1 if odd % 2 else 1)
    pair_pos = ([(2 * t - 2, 2 * t - 1) for t in range(d, 0, -1)]
                + [(sigma[2 * t - 2] - 1, sigma[2 * t - 1] - 1)
                   for t in range(1, d + 1)])
    ys, xs = [None] * d, [None] * d
    closing = [[] for _ in range(two_d)]
    for k, (r, s) in enumerate(pair_pos):
        gens, slot = (ys, k) if k < d else (xs, k - d)
        if r < s:
            closing[s].append((gens, slot, r, canon))
        else:
            closing[r].append((gens, slot, s, canon_t))
    bits = [[parity[i] << pos for i in range(dim)] for pos in range(two_d)]
    terms = {}
    env = (dim, bits, closing, two_d - 1, [0] * two_d, ys, xs, sign_of,
           ctx.sort_mono, {}, terms)
    tuple_t_sigma_walk(env, 0, 0, 1)
    return WeylElement.from_cleared(ambient, 2 ** d, terms)


def tuple_t_sigma_walk(env, pos, mask, sign):
    (dim, bits, closing, last, tup, ys, xs, sign_of, sort_mono, sorted_of,
     terms) = env
    rows = [(gens, slot, tab[tup[other]])
            for gens, slot, other, tab in closing[pos]]
    pos_bits = bits[pos]
    for i in range(dim):
        sg = sign
        for gens, slot, row in rows:
            g, s = row[i]
            if not s:
                break
            sg *= s
            gens[slot] = g
        else:
            if pos < last:
                tup[pos] = i
                tuple_t_sigma_walk(env, pos + 1, mask | pos_bits[i], sg)
                continue
            ky = tuple(ys)
            sy = sorted_of.get(ky)
            if sy is None:
                sy = sorted_of[ky] = sort_mono(ky)
            if not sy[1]:
                continue
            kx = tuple(xs)
            sx = sorted_of.get(kx)
            if sx is None:
                sx = sorted_of[kx] = sort_mono(kx)
            if sx[1]:
                key = (sy[0], sx[0])
                terms[key] = (terms.get(key, 0) + sign_of[mask | pos_bits[i]]
                              * sg * sy[1] * sx[1])


def tuple_rho_check(x):
    """Horner over the hash-consed trie as rho_check, with each child
    image times a generator image on the tuple product."""
    amb = x.ambient
    ctx = weyl_context(amb)
    den, words = x.cleared()
    if not words:
        return WeylElement.zero(amb)
    root = [0, {}]
    for w, c in words.items():
        node = root
        for g in reversed(w):
            node = node[1].setdefault(g, [0, {}])
        node[0] += c
    nodes = []
    root_id, content = _rho_intern(root, {}, nodes)
    cache, imgs = {}, []
    for end, edges in nodes:
        img = {((), ()): end} if end else {}
        for g, cid, s in edges:
            for k, v in tuple_mul_ints(ctx, imgs[cid], ctx.rho_gen[g],
                                       cache).items():
                img[k] = img.get(k, 0) + s * v
        imgs.append({k: v for k, v in img.items() if v})
    return WeylElement(amb, {k: Fraction(content * v, den)
                             for k, v in imgs[root_id].items()})


def reference_rho_check(x):
    """Word by word: each word multiplied out letter by letter on ints,
    nothing shared between words."""
    amb = x.ambient
    ctx = weyl_context(amb)
    den, words = x.cleared()
    gen_img = {}
    terms = {}
    for w, c in words.items():
        acc = {((), ()): c}
        for g in w:
            if g not in gen_img:
                gen_img[g] = rho_check_gen(amb, *g).cleared()[1]
            acc = tuple_mul_ints(ctx, acc, gen_img[g])
        for t, v in acc.items():
            terms[t] = terms.get(t, 0) + v
    return WeylElement(amb, {k: Fraction(v, den)
                             for k, v in terms.items() if v})


def reference_apply_weyl(op, poly):
    ctx = weyl_context(op.ambient)
    out = {}
    for (yop, dop), cop in op.terms.items():
        for mono, c in poly.items():
            pieces = {mono: c * cop}
            for delta in reversed(dop):
                pd = ctx.parity[delta]
                nxt = {}
                for mm, cc in pieces.items():
                    pref = 0
                    for t, g in enumerate(mm):
                        c0 = ctx.pairing(delta, g)
                        if c0:
                            s = (-1) ** (pd * pref)
                            rm = mm[:t] + mm[t + 1:]
                            nxt[rm] = nxt.get(rm, 0) + cc * s * c0
                        pref += ctx.parity[g]
                pieces = nxt
            for mm, cc in pieces.items():
                nm, s = ctx.sort_mono(yop + mm)
                if nm is None:
                    continue
                out[nm] = out.get(nm, 0) + cc * s
    return {k: v for k, v in out.items() if v != 0}


def vector(ambient, poly):
    """The order-0 WeylElement of a {y-mono: coeff} polynomial."""
    return WeylElement(ambient, {(mm, ()): c for mm, c in poly.items()})


def poly_of(vec):
    """The {y-mono: coeff} polynomial of an order-0 WeylElement, read from
    its terms."""
    return {mm: c for (mm, _), c in vec.terms.items()}


def assert_same(got, want):
    assert got == want
    assert str(got) == str(want)
    assert all(type(c) is Fraction for c in got.terms.values())


# ---------------------------------------------------------------------------
# Old route == new route.

def random_coeff(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 5))


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2), (2, 2), (0, 2),
                                (3, 0)])
@pytest.mark.parametrize('mirrored', [False, True])
def test_pbw_normalize_matches_reference(mn, mirrored):
    amb = Ambient(*mn)
    rng = random.Random('%s %s' % (mn, mirrored))
    gens = [(i, j) for i in range(amb.dim) for j in range(amb.dim)]
    for _ in range(12):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            w = tuple(rng.choice(gens) for _ in range(rng.randrange(6)))
            terms[w] = random_coeff(rng)
        a = UEAElement(amb, terms)
        assert_same(pbw_normalize(a, mirrored),
                    reference_pbw_normalize(a, mirrored))


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_sort_mono_matches_reference(mn):
    ctx = weyl_context(Ambient(*mn))
    npairs = len(ctx.pairs)
    odd = [g for g in range(npairs) if ctx.parity[g]]
    rng = random.Random(npairs)
    for _ in range(300):
        items = [rng.randrange(npairs) for _ in range(rng.randrange(7))]
        if odd and rng.random() < 0.3:
            # a repeated odd entry, anywhere in the list
            g = rng.choice(odd)
            for _ in range(2):
                items.insert(rng.randrange(len(items) + 1), g)
        assert ctx.sort_mono(items) == reference_sort_mono(ctx, items)
        assert ctx.sort_mono(tuple(items)) == reference_sort_mono(ctx, items)


def random_weyl(amb, rng):
    ctx = weyl_context(amb)
    npairs = len(ctx.pairs)
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        y = [rng.randrange(npairs) for _ in range(rng.randrange(3))]
        d = [rng.randrange(npairs) for _ in range(rng.randrange(3))]
        ny, _ = ctx.sort_mono(y)
        nd, _ = ctx.sort_mono(d)
        if ny is not None and nd is not None:
            terms[(ny, nd)] = random_coeff(rng)
    return WeylElement(amb, terms)


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_weyl_mul_matches_reference(mn):
    amb = Ambient(*mn)
    rng = random.Random(7 * mn[0] + mn[1])
    for _ in range(25):
        a, b = random_weyl(amb, rng), random_weyl(amb, rng)
        assert_same(weyl_mul(a, b), reference_weyl_mul(a, b))


def random_canonical(ctx, rng, maxlen):
    while True:
        mono, _ = ctx.sort_mono([rng.randrange(len(ctx.pairs))
                                 for _ in range(rng.randrange(maxlen + 1))])
        if mono is not None:
            return mono


def merge_pairs(ctx, rng):
    """Canonical (a, b): random pairs, pairs with an empty side or a single
    generator on either side, and pairs that share a generator of a (so
    equal even generators and odd generators on both sides)."""
    for _ in range(400):
        a, b = random_canonical(ctx, rng, 5), random_canonical(ctx, rng, 5)
        kind = rng.randrange(6)
        if kind == 0:
            a, b = rng.choice([((), b), (a, ()), ((), ())])
        elif kind == 1:
            b = b[:1]
        elif kind == 2:
            a = a[:1]
        elif kind in (3, 4) and a:
            shared = rng.choice(a)
            b, _ = ctx.sort_mono(b[:rng.randrange(3)] + (shared,))
            if b is None:
                continue
            if kind == 4:
                a, b = b, a
        yield a, b


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2), (2, 2), (0, 2),
                                (3, 0)])
def test_merge_mono_matches_reference_sort(mn):
    # the merge of the packed kernels: the sum of the packed ints, zero
    # when an odd pair is on both sides (an AND), and the sign of the
    # suffix parities of a against the odd pairs of b (a popcount)
    ctx = weyl_context(Ambient(*mn))
    odd = ctx.odd_mask
    rng = random.Random('merge %s %s' % mn)
    seen = set()
    for a, b in merge_pairs(ctx, rng):
        (pa, sa), (pb, sb) = ctx.pack(a), ctx.pack(b)
        assert sa == sb == 1
        if pa & pb & odd:
            got = None, 0
        else:
            sign = (ctx.suffix[pa & odd] & pb & odd).bit_count() & 1
            got = ctx.unpack(pa + pb), -1 if sign else 1
            assert ctx.pack(a + b) == (pa + pb, got[1])
        assert got == reference_sort_mono(ctx, a + b)
        assert tuple_merge_mono(ctx, a, b) == got
        assert got[0] is None or type(got[0]) is tuple
        seen.add((min(len(a), 2), min(len(b), 2), got[1]))
    # every insertion and merge shape; the zero for an odd generator on
    # both sides, and the sign -1 once two odd generators exist
    shapes = {(i, j) for i, j, _ in seen}
    assert shapes == {(i, j) for i in range(3) for j in range(3)}
    odd = sum(ctx.parity)
    want = {1} | ({0} if odd else set()) | ({-1} if odd > 1 else set())
    assert {s for _, _, s in seen} == want


def shuffled_weyl(amb, rng):
    """Terms with monomials in random order, as hand-written JSON may give
    them: repeated entries (odd repeats are zero), and two keys that
    differ only in order."""
    npairs = len(weyl_context(amb).pairs)
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        y = [rng.randrange(npairs) for _ in range(rng.randrange(4))]
        d = [rng.randrange(npairs) for _ in range(rng.randrange(4))]
        if y and rng.random() < 0.3:
            y.append(rng.choice(y))
        rng.shuffle(y)
        rng.shuffle(d)
        terms[(tuple(y), tuple(d))] = random_coeff(rng)
        terms[(tuple(reversed(y)), tuple(d))] = random_coeff(rng)
    return WeylElement(amb, terms)


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_weyl_mul_matches_reference_on_out_of_order_keys(mn):
    amb = Ambient(*mn)
    rng = random.Random('shuffled %s %s' % mn)
    for _ in range(25):
        a, b = shuffled_weyl(amb, rng), shuffled_weyl(amb, rng)
        assert_same(weyl_mul(a, b), reference_weyl_mul(a, b))
        assert_same(weyl_mul(b, a), reference_weyl_mul(b, a))


@pytest.mark.parametrize('mn', [(1, 2), (2, 2)])
def test_t_sigma_matches_reference_on_s4(mn):
    amb = Ambient(*mn)
    for sig in permutations(range(1, 5)):
        assert_same(t_sigma(amb, sig), reference_t_sigma(amb, sig))


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2)])
def test_t_sigma_matches_reference_on_cycles(mn):
    amb = Ambient(*mn)
    for d in range(1, 4):
        for part in partitions(d):
            sig = consecutive_cycles_perm(part)
            assert_same(t_sigma(amb, sig), reference_t_sigma(amb, sig))


@pytest.mark.parametrize('mn', [(1, 1), (2, 1)])
def test_centrality_normalise_once_matches_literal_route(mn):
    amb = Ambient(*mn)
    for d in range(1, 4):
        z = gelfand_element(amb, d)
        nz = pbw_normalize(z)
        for i in range(amb.dim):
            for j in range(amb.dim):
                g = UEAElement.gen(amb, i, j)
                assert_same(pbw_normalize(nz * g - g * nz),
                            reference_pbw_normalize(z * g - g * z))


@pytest.mark.parametrize('mn', [(1, 2), (2, 2)])
def test_t_sigma_matches_reference_on_partitions_of_4(mn):
    amb = Ambient(*mn)
    for part in partitions(4):
        sig = consecutive_cycles_perm(part)
        assert_same(t_sigma(amb, sig), reference_t_sigma(amb, sig))


def test_t_sigma_matches_reference_on_random_s8():
    amb = Ambient(1, 2)
    rng = random.Random(8)
    for _ in range(5):
        sig = tuple(rng.sample(range(1, 9), 8))
        assert_same(t_sigma(amb, sig), reference_t_sigma(amb, sig))


def test_kernels_leave_no_reference_cycle():
    amb = Ambient(1, 2)
    op = t_sigma(amb, consecutive_cycles_perm((2,)))
    vec = vector(amb, {mm: Fraction(1, 3) for mm in monomial_basis(amb, 2)})
    z = gelfand_product(amb, coset_type((2, 3, 1, 4)))
    ctx = weyl_context(amb)
    ints = op.cleared()[1]
    gc.collect()
    gc.disable()
    try:
        t_sigma(amb, consecutive_cycles_perm((1, 1)))
        weyl_mul(op, op)
        apply_weyl(op, vec)
        rho_check(z)
        _symbol_mul_ints(ctx, ints, ints)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# The packed kernels against the tuple kernels they replaced, on every
# ambient with m + n <= 4 (and gl(1|4)); gl(0|1) has no canonical pair.

PACKED_AMBIENTS = [(1, 0), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2),
                   (0, 3), (4, 0), (3, 1), (2, 2), (1, 3), (0, 4), (1, 4)]


def nonzero(ints):
    return {k: v for k, v in ints.items() if v}


@pytest.mark.parametrize('mn', PACKED_AMBIENTS)
def test_packed_weyl_mul_matches_the_tuple_kernels(mn):
    amb = Ambient(*mn)
    rng = random.Random('packed mul %s %s' % mn)
    for _ in range(12):
        for a, b in ((random_weyl(amb, rng), random_weyl(amb, rng)),
                     (shuffled_weyl(amb, rng), shuffled_weyl(amb, rng))):
            got = weyl_mul(a, b)
            assert_same(got, tuple_weyl_mul(a, b))
            assert_same(got, reference_weyl_mul(a, b))


@pytest.mark.parametrize('mn', PACKED_AMBIENTS)
def test_packed_rho_check_matches_the_tuple_kernels(mn):
    amb = Ambient(*mn)
    rng = random.Random('packed rho %s %s' % mn)
    elements = [gelfand_element(amb, d) for d in (1, 2, 3)]
    if amb.dim > 1:     # random_uea samples two distinct letters
        elements += [random_uea(amb, rng) for _ in range(8)]
    for x in elements:
        got = rho_check(x)
        assert_same(got, tuple_rho_check(x))
        assert_same(got, reference_rho_check(x))


@pytest.mark.parametrize('mn', PACKED_AMBIENTS)
def test_packed_symbol_product_matches_the_tuple_kernels(mn):
    amb = Ambient(*mn)
    ctx = weyl_context(amb)
    symbols = [t_sigma(amb, consecutive_cycles_perm(part)).cleared()[1]
               for part in ((1,), (2,), (1, 1), (3,))]
    for a in symbols:
        for b in symbols[:3]:
            assert _symbol_mul_ints(ctx, a, b) == \
                nonzero(tuple_symbol_mul_ints(ctx, a, b))


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2), (2, 2), (0, 3),
                                (1, 4)])
def test_symbol_product_is_the_top_part_of_the_weyl_product(mn):
    """On terms of any weight, where the sign of the d's of the first
    factor passing the y's of the second one matters."""
    amb = Ambient(*mn)
    ctx = weyl_context(amb)
    npairs = len(ctx.pairs)
    rng = random.Random('symbol %s %s' % mn)

    def homogeneous(ddeg):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            y, _ = ctx.sort_mono([rng.randrange(npairs)
                                  for _ in range(rng.randrange(3))])
            d, _ = ctx.sort_mono([rng.randrange(npairs)
                                  for _ in range(ddeg)])
            if y is not None and d is not None:
                terms[(y, d)] = random_coeff(rng)
        return WeylElement(amb, terms)

    for _ in range(25):
        p, q = rng.randrange(3), rng.randrange(3)
        a, b = homogeneous(p), homogeneous(q)
        (den_a, ints_a), (den_b, ints_b) = a.cleared(), b.cleared()
        got = WeylElement.from_cleared(amb, den_a * den_b,
                                       _symbol_mul_ints(ctx, ints_a, ints_b))
        assert got == symbol(weyl_mul(a, b), p + q)


@pytest.mark.parametrize('mn', PACKED_AMBIENTS)
def test_packed_t_sigma_matches_the_tuple_kernels(mn):
    amb = Ambient(*mn)
    rng = random.Random('packed t_sigma %s %s' % mn)
    sigmas = list(permutations(range(1, 5)))
    sigmas += [tuple(rng.sample(range(1, 7), 6)) for _ in range(4)]
    for sig in sigmas:
        assert_same(t_sigma(amb, sig), tuple_t_sigma(amb, sig))


def test_packed_kernels_widen_their_fields(monkeypatch):
    """Exponents of 16 and more, beyond the fields a context starts with:
    the fields widen, the push memo starts afresh, and products of low
    degree come out the same before and after."""
    monkeypatch.setattr(weyl, '_ctx_cache', {})
    amb = Ambient(1, 1)                 # y_0 even, y_1 odd
    ctx = weyl_context(amb)
    small = random_weyl(amb, random.Random(16)), \
        random_weyl(amb, random.Random(17))
    before = weyl_mul(*small)
    width = ctx.width
    assert 2 ** width <= 16
    a = WeylElement(amb, {((0,) * 8, (0,) * 8): Fraction(1),
                          ((0,) * 7 + (1,), (0,) * 8): Fraction(-2, 3)})
    got = weyl_mul(a, a)
    assert ctx.width > width
    assert ((0,) * 16, (0,) * 16) in got.terms
    assert_same(got, tuple_weyl_mul(a, a))
    assert_same(weyl_mul(*small), before)
    x = UEAElement(amb, {((0, 0),) * 17: Fraction(1, 2),
                         ((0, 1), (1, 0)) * 9: Fraction(3)})
    got = rho_check(x)
    assert any(len(y) == 17 for y, _ in got.terms)
    assert_same(got, tuple_rho_check(x))
    sym = {((0,) * 9, (0,) * 9): 1, ((0,) * 8 + (1,), (0,) * 8 + (1,)): -2}
    got = _symbol_mul_ints(ctx, sym, sym)
    assert ((0,) * 18, (0,) * 18) in got
    assert got == nonzero(tuple_symbol_mul_ints(ctx, sym, sym))
    assert ctx.sort_mono((0,) * 40) == ((0,) * 40, 1)
    assert_same(weyl_mul(*small), before)


def test_packing_sorts_out_of_order_keys():
    amb = Ambient(1, 2)     # pairs (1,1) (1,1b) (1,2b) (1b,2b); 1 and 2 odd
    ctx = weyl_context(amb)
    assert [ctx.parity[g] for g in range(4)] == [0, 1, 1, 0]
    assert ctx.pack((2, 1)) == (ctx.pack((1, 2))[0], -1)
    assert ctx.pack((3, 0, 3, 2, 0)) == (ctx.pack((0, 0, 2, 3, 3))[0], 1)
    assert ctx.pack((2, 3, 1)) == (ctx.pack((1, 2, 3))[0], -1)
    assert ctx.pack((1, 0, 1))[1] == 0 and ctx.pack((2, 2))[1] == 0
    one = WeylElement.one(amb)

    def element(y, d):
        return WeylElement(amb, {(y, d): Fraction(1)})

    assert weyl_mul(element((2, 1), ()), one) == -element((1, 2), ())
    assert weyl_mul(one, element((), (2, 0, 1))) == -element((), (0, 1, 2))
    assert weyl_mul(element((2, 1), (2, 1)), one) == element((1, 2), (1, 2))
    assert weyl_mul(element((1, 0, 1), ()), one).is_zero()
    assert weyl_mul(one, element((0,), (2, 3, 2))).is_zero()
    # a JSON key with its labels out of order reads back the same way
    data = {'m': 1, 'n': 2, 'terms': [
        {'y': ['1,2b', '1,1b'], 'd': ['1b,2b', '1,1'], 'coef': '2/3'},
        {'y': ['1,1b', '1,1', '1,1b'], 'd': [], 'coef': '5'}]}
    x = WeylElement.from_json(data)
    assert weyl_mul(x, one) == element((1, 2), (0, 3)).scale(Fraction(-2, 3))


# ---------------------------------------------------------------------------
# rho_check: Horner over the hash-consed word trie == word by word.

@pytest.mark.parametrize('mn,dmax', [((1, 1), 4), ((2, 1), 4), ((1, 2), 4),
                                     ((2, 2), 4), ((0, 2), 4), ((3, 0), 4),
                                     ((1, 4), 3)])
def test_rho_check_matches_reference_on_gelfand_elements(mn, dmax):
    amb = Ambient(*mn)
    for d in range(1, dmax + 1):
        c = gelfand_element(amb, d)
        assert_same(rho_check(c), reference_rho_check(c))


@pytest.mark.parametrize('mn', [(1, 2), (2, 2)])
def test_rho_check_matches_reference_on_symbol_preimages(mn):
    amb = Ambient(*mn)
    sigmas = list(permutations(range(1, 5)))
    sigmas += random.Random(0).sample(list(permutations(range(1, 7))), 20)
    for sig in sigmas:
        z = gelfand_product(amb, coset_type(sig))
        assert_same(rho_check(z), reference_rho_check(z))


def test_rho_check_matches_reference_on_full_preimages():
    # the round trips of the abstract-capelli suite, at its pair ranks
    for (m, n), d in _CONFIGS['abstract-capelli'].items():
        params = HookParams(m, n // 2, 'half')
        for b in enumerate_hooks(params, d, upto=True):
            D = capelli_operator(params, b)
            z = full_preimage(D, check_invariant=False)
            got = rho_check(z)
            assert_same(got, reference_rho_check(z))
            assert got == D


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2)])
def test_rho_check_matches_reference_on_osp_spanning_set(mn):
    for k in osp_spanning_set(HookParams(mn[0], mn[1], 'half')):
        assert_same(rho_check(k), reference_rho_check(k))


def random_uea(amb, rng):
    """Mixed word lengths, now and then the empty word or a repeated
    letter, and a block P*g*c + P*h*(-k*c) + g*P*c' + h*P*(-k'*c') whose
    subtrees (under the last or the first letter) are equal up to a
    negative scalar."""
    gens = [(i, j) for i in range(amb.dim) for j in range(amb.dim)]

    def words(count, maxlen):
        terms = {}
        for _ in range(count):
            w = [rng.choice(gens) for _ in range(rng.randrange(maxlen + 1))]
            if w and rng.random() < 0.3:
                w.insert(rng.randrange(len(w) + 1), rng.choice(w))
            terms[tuple(w)] = random_coeff(rng)
        if rng.random() < 0.3:
            terms[()] = random_coeff(rng)
        return UEAElement(amb, terms)

    x = words(rng.randrange(1, 5), 4)
    if rng.random() < 0.7:
        p = words(rng.randrange(1, 4), 3)
        g, h = (UEAElement.gen(amb, *e) for e in rng.sample(gens, 2))
        for left, right, k in ((p * g, p * h, rng.randrange(1, 4)),
                               (g * p, h * p, rng.randrange(1, 4))):
            c = random_coeff(rng)
            x = x + left.scale(c) + right.scale(-k * c)
    return x


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2), (0, 2), (2, 0)])
def test_rho_check_matches_reference_on_random_input(mn):
    amb = Ambient(*mn)
    rng = random.Random('rho %s %s' % mn)
    for _ in range(40):
        x = random_uea(amb, rng)
        assert_same(rho_check(x), reference_rho_check(x))


def test_rho_check_of_zero():
    amb = Ambient(1, 2)
    zero = UEAElement.zero(amb)
    assert_same(rho_check(zero), WeylElement.zero(amb))
    assert_same(rho_check(zero), reference_rho_check(zero))


# ---------------------------------------------------------------------------
# apply_weyl, at (m, n) taken as Ambient(m, 2n).

APPLY_AMBIENTS = [(1, 1), (2, 1), (1, 2)]


def assert_same_poly(got, want):
    assert got == want
    assert all(type(c) is Fraction for c in got.values())


@pytest.mark.parametrize('mn', APPLY_AMBIENTS)
def test_apply_weyl_matches_reference_on_polarizations(mn):
    amb = Ambient(mn[0], 2 * mn[1])
    monos = [mm for k in range(4) for mm in monomial_basis(amb, k)]
    for i in range(amb.dim):
        for j in range(amb.dim):
            if i == j:
                continue
            op = rho_check_gen(amb, i, j)
            for mm in monos:
                poly = {mm: Fraction(1)}
                assert_same_poly(poly_of(apply_weyl(op, vector(amb, poly))),
                                 reference_apply_weyl(op, poly))


@pytest.mark.parametrize('mn', APPLY_AMBIENTS)
def test_apply_weyl_matches_reference_on_invariant_symbols(mn):
    amb = Ambient(mn[0], 2 * mn[1])
    for d in range(1, 4):
        basis = invariant_symbol_space(amb, d, verify=False)
        for _, vecs in all_highest_weight_vectors(amb, d):
            for vec in vecs:
                for op in basis:
                    assert_same_poly(poly_of(apply_weyl(op, vec)),
                                     reference_apply_weyl(op, poly_of(vec)))


# apply_weyl is the order-0 part of the packed product op * vec, an
# independent route: the packed normal ordering of weyl_mul.

def order_zero_part(op, vec):
    den, ints = weyl_mul(op, vec).cleared()
    return WeylElement.from_cleared(op.ambient, den, _order_part(ints, 0))


@pytest.mark.parametrize('mn,dmax', [((1, 1), 4), ((2, 1), 3), ((1, 2), 3)])
def test_apply_weyl_is_the_order_zero_part_of_the_product_on_hooks(mn, dmax):
    params = HookParams(*mn, 'half')
    amb = params.ambient
    vectors = [v for k in range(dmax + 1)
               for v in hook_vectors(params, k).values()]
    for d in range(dmax + 1):
        for op in invariant_symbol_space(amb, d, verify=False):
            for vec in vectors:
                assert_same(apply_weyl(op, vec), order_zero_part(op, vec))


def random_poly(ctx, rng):
    """Canonical monomials of degree <= 4, now and then one with an odd
    generator repeated (a zero of P(W))."""
    npairs = len(ctx.pairs)
    odd = [g for g in range(npairs) if ctx.parity[g]]
    poly = {}
    for _ in range(rng.randrange(1, 5)):
        items = [rng.randrange(npairs) for _ in range(rng.randrange(5))]
        if odd and rng.random() < 0.2:
            items += [rng.choice(odd)] * 2
            mono = tuple(sorted(items))
        else:
            mono, _ = ctx.sort_mono(items)
        if mono is not None:
            poly[mono] = random_coeff(rng)
    return poly


def random_operator(amb, ctx, rng, poly):
    """Mixed-order terms; some d-parts are drawn from inside a monomial of
    poly, some y-parts reuse one of its odd generators."""
    npairs = len(ctx.pairs)
    monos = list(poly)
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        y = [rng.randrange(npairs) for _ in range(rng.randrange(3))]
        if monos and rng.random() < 0.5:
            mono = rng.choice(monos)
            d = rng.sample(mono, rng.randrange(len(mono) + 1))
            y += [g for g in mono if ctx.parity[g]][:1]
        else:
            d = [rng.randrange(npairs) for _ in range(rng.randrange(4))]
        ny, _ = ctx.sort_mono(y)
        nd, _ = ctx.sort_mono(d)
        if ny is not None and nd is not None:
            terms[(ny, nd)] = random_coeff(rng)
    return WeylElement(amb, terms)


@pytest.mark.parametrize('mn', APPLY_AMBIENTS)
def test_apply_weyl_matches_reference_on_random_input(mn):
    amb = Ambient(mn[0], 2 * mn[1])
    ctx = weyl_context(amb)
    rng = random.Random('apply %s %s' % mn)
    for _ in range(200):
        poly = random_poly(ctx, rng)
        op = random_operator(amb, ctx, rng, poly)
        assert_same_poly(poly_of(apply_weyl(op, vector(amb, poly))),
                         reference_apply_weyl(op, poly))


@pytest.mark.parametrize('mn', APPLY_AMBIENTS)
def test_apply_weyl_is_the_order_zero_part_of_the_product_on_random_input(mn):
    amb = Ambient(mn[0], 2 * mn[1])
    ctx = weyl_context(amb)
    rng = random.Random('order zero %s %s' % mn)
    for _ in range(200):
        poly = random_poly(ctx, rng)
        op = random_operator(amb, ctx, rng, poly)
        vec = vector(amb, poly)
        assert_same(apply_weyl(op, vec), order_zero_part(op, vec))


@pytest.mark.parametrize('mn', APPLY_AMBIENTS)
def test_apply_weyl_matches_reference_on_spherical_vectors(mn):
    params = HookParams(mn[0], mn[1], 'half')
    images = [rho_check(k) for k in osp_spanning_set(params)]
    for b in enumerate_hooks(params, 2, upto=True):
        if not b.size:
            continue
        vec = spherical_vector(params, b)
        for op in images:
            assert_same_poly(poly_of(apply_weyl(op, vec)),
                             reference_apply_weyl(op, poly_of(vec)))


# ---------------------------------------------------------------------------
# The spherical restriction: the route through beta, beta* = iota's
# source, the x-polarization action and a Gram matrix, against the
# closed-form table of Cartan generators.

def reference_beta_value(ambient, i, j):
    """The fixed even supersymmetric form: identity on the even block,
    symplectic 2x2 blocks on the odd block."""
    m = ambient.m
    if i < m or j < m:
        return Fraction(1) if i == j else Fraction(0)
    a, bb = i - m, j - m
    if a // 2 == bb // 2:
        if a % 2 == 0 and bb % 2 == 1:
            return Fraction(1)
        if a % 2 == 1 and bb % 2 == 0:
            return Fraction(-1)
    return Fraction(0)


def reference_h_beta_gen(ambient, g):
    i, j = weyl_context(ambient).pairs[g]
    return reference_beta_value(ambient, i, j)


def reference_beta_star(ambient):
    """-1/4 sum x_{kk} + 1/2 sum x_{(2l-1)b,(2l)b}, as {x-monomial: coeff}."""
    ctx = weyl_context(ambient)
    m = ambient.m
    out = {}
    for k in range(m):
        out[(ctx.index[(k, k)],)] = Fraction(-1, 4)
    for l in range(ambient.n // 2):
        g = ctx.index[(m + 2 * l, m + 2 * l + 1)]
        out[(g,)] = Fraction(1, 2)
    return out


def reference_rho_gen_action(ambient, i, j, xpoly):
    """Action of E_{ij} on S(W) via x-polarization:
    rho(E_ij) = sum_r x_{ir} D_{jr}, with D the polarized derivative."""
    ctx = weyl_context(ambient)
    pj = ambient.parity(j)
    out = {}
    for r in range(ambient.dim):
        pr = ambient.parity(r)
        xg, xs = ctx.canon(i, r)
        if xg is None:
            continue
        pD = (pj + pr) % 2
        for mono, c in xpoly.items():
            pref = 0
            for t, g in enumerate(mono):
                k, l = ctx.pairs[g]
                # D_{jr}(x_{kl}) = d_jk d_rl + (-1)^{|j||r|} d_jl d_rk
                val = 0
                if j == k and r == l:
                    val += 1
                if j == l and r == k:
                    val += (-1) ** (pj * pr)
                if val:
                    s = (-1) ** (pD * pref)
                    reduced = mono[:t] + mono[t + 1:]
                    nm, s2 = ctx.sort_mono((xg,) + reduced)
                    if nm is not None:
                        out[nm] = out.get(nm, 0) + c * val * s * s2 * xs
                pref += ctx.parity[g]
    return {k: v for k, v in out.items() if v != 0}


def reference_iota_a_images(params):
    """Images of the y-generators under iota(h) = rho(h) beta* and the
    supertrace identification, one MultiPoly per canonical generator."""
    m, n = params.m, params.n
    amb = Ambient(m, 2 * n)
    ctx = weyl_context(amb)
    avars = a_context(m, n)
    h_basis = []
    for k in range(m):
        v = [Fraction(0)] * amb.dim
        v[k] = Fraction(1)
        h_basis.append(v)
    for l in range(n):
        v = [Fraction(0)] * amb.dim
        v[m + 2 * l] = Fraction(1)
        v[m + 2 * l + 1] = Fraction(1)
        h_basis.append(v)
    bstar = reference_beta_star(amb)
    iota = []
    for v in h_basis:
        img = {}
        for i, coeff in enumerate(v):
            if not coeff:
                continue
            part = reference_rho_gen_action(amb, i, i, bstar)
            for mm, c in part.items():
                img[mm] = img.get(mm, 0) + coeff * c
        iota.append({k: c for k, c in img.items() if c})
    gram = [Fraction(sum(((-1) ** amb.parity(i)) * c * c
                         for i, c in enumerate(v))) for v in h_basis]
    images = {}
    for g in range(len(ctx.pairs)):
        poly = MultiPoly.zero(avars)
        for idx in range(m + n):
            for mm, c in iota[idx].items():
                if len(mm) == 1 and mm[0] == g:
                    i, j = ctx.pairs[g]
                    pair_val = 2 if i == j else 1
                    coeff = c * pair_val / gram[idx]
                    poly = poly + MultiPoly.variable(
                        avars, avars[idx]).scale(coeff)
        images[g] = poly
    return images


def reference_spherical_vector(params, capelli):
    amb = Ambient(params.m, 2 * params.n)
    out = {}
    for (y, dd), c in capelli.terms.items():
        val = c
        for g in dd:
            val *= reference_h_beta_gen(amb, g)
            if not val:
                break
        if val:
            out[y] = out.get(y, 0) + val
    return {k: v for k, v in out.items() if v != 0}


def reference_spherical_poly(params, capelli):
    vec = reference_spherical_vector(params, capelli)
    images = reference_iota_a_images(params)
    avars = a_context(params.m, params.n)
    out = MultiPoly.zero(avars)
    for mono, c in vec.items():
        term = MultiPoly.const(avars, c)
        for g in mono:
            term = term * images[g]
            if term.is_zero():
                break
        out = out + term
    return out


@pytest.mark.parametrize('mn', list(product(range(4), repeat=2)))
def test_cartan_generators_match_beta_and_iota(mn):
    params = HookParams(*mn, 'half')
    amb = Ambient(mn[0], 2 * mn[1])
    avars = a_context(*mn)
    table = _cartan_generators(params)
    images = reference_iota_a_images(params)
    assert set(images) == set(range(len(weyl_context(amb).pairs)))
    for g, img in images.items():
        if g in table:
            idx, val = table[g]
            want = MultiPoly.variable(avars, avars[idx]).scale(val)
        else:
            want = MultiPoly.zero(avars)
        assert_same(want, img)
        assert reference_h_beta_gen(amb, g) == (1 if g in table else 0)


@pytest.mark.parametrize('mn,dmax', [((1, 1), 3), ((2, 1), 3), ((1, 0), 3),
                                     ((0, 1), 3), ((1, 2), 2), ((0, 2), 2),
                                     ((2, 2), 2)])
def test_spherical_restriction_matches_reference(mn, dmax):
    params = HookParams(*mn, 'half')
    for b in enumerate_hooks(params, dmax, upto=True):
        if not b.size:
            continue
        D = capelli_operator(params, b)
        vec = poly_of(spherical_vector(params, b, capelli=D))
        want = reference_spherical_vector(params, D)
        assert vec == want and str(vec) == str(want)
        assert all(type(c) is Fraction for c in vec.values())
        assert_same(spherical_poly(params, b, capelli=D),
                    reference_spherical_poly(params, D))


# ---------------------------------------------------------------------------
# cyclic_span_dim: one growing Span == re-ranking the whole kept family.

def reference_cyclic_span_dim(ambient, vec):
    lowering = [rho_check_gen(ambient, i, j)
                for i in range(ambient.dim) for j in range(ambient.dim) if i > j]
    basis = [vec]
    rank = reference_rank(basis)
    frontier = [vec]
    while frontier:
        new_frontier = []
        for v in frontier:
            for op in lowering:
                w = poly_of(apply_weyl(op, vector(ambient, v)))
                if not w:
                    continue
                r = reference_rank(basis + [w])
                if r > rank:
                    basis.append(w)
                    rank = r
                    new_frontier.append(w)
        frontier = new_frontier
    return rank


@pytest.mark.parametrize('mn,kmax', [((1, 2), 3), ((2, 2), 3), ((1, 4), 2)])
def test_cyclic_span_dim_matches_reference(mn, kmax):
    amb = Ambient(*mn)
    for k in range(kmax + 1):
        total = 0
        for _, basis in all_highest_weight_vectors(amb, k):
            for vec in basis:
                dim = cyclic_span_dim(vec)
                assert dim == reference_cyclic_span_dim(amb, poly_of(vec))
                total += dim
        assert total == len(monomial_basis(amb, k))
    assert cyclic_span_dim(WeylElement.zero(amb)) == \
        reference_cyclic_span_dim(amb, {}) == 0


# ---------------------------------------------------------------------------
# The integer polynomial product and node rows, against the Fraction loops
# they replaced.

def reference_mul(p, q):
    """MultiPoly product as the Fraction loop over term pairs."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return MultiPoly(p.vars, terms)


def reference_values_at(basis, point):
    """Each basis product at point, as a Fraction product from 1."""
    vals = {k: g.evaluate(point) for k, g in basis.gens.items()}
    return [prod((vals[k] for k in rec), start=Fraction(1))
            for rec in basis.records]


def random_multipoly(ctx, rng):
    """Zero to five terms of degree <= 3, integer and fractional, of both
    signs; a repeated exponent sums its coefficients, sometimes to 0."""
    terms = {}
    for _ in range(rng.randrange(6)):
        e = tuple(rng.randrange(4) for _ in ctx)
        c = rng.choice([Fraction(rng.randrange(-4, 5)), random_coeff(rng)])
        terms[e] = terms.get(e, 0) + c
    return MultiPoly(ctx, terms)


@pytest.mark.parametrize('nvars', range(5))
def test_multipoly_mul_matches_reference(nvars):
    rng = random.Random(100 + nvars)
    ctx = tuple('x%d' % i for i in range(nvars))
    fixed = [MultiPoly.zero(ctx), MultiPoly.const(ctx, 1),
             MultiPoly.const(ctx, Fraction(-3, 4)),
             MultiPoly.const(ctx, 7)]
    polys = fixed + [random_multipoly(ctx, rng) for _ in range(40)]
    for p in polys:
        for q in polys[:4] + rng.sample(polys, 8):
            got, want = p * q, reference_mul(p, q)
            assert got == want
            assert str(got) == str(want)
            assert all(type(c) is Fraction for c in got.terms.values())
        assert p ** 0 == MultiPoly.const(ctx, 1)
        assert p ** 3 == reference_mul(reference_mul(p, p), p)
        assert 3 * p == p * 3 == reference_mul(p, MultiPoly.const(ctx, 3))
        c = Fraction(-5, 6)
        assert p * c == reference_mul(p, MultiPoly.const(ctx, c))


def test_multipoly_mul_rejects_a_context_mismatch():
    p = MultiPoly.variable(('x', 'y'), 'x')
    for q in (MultiPoly.variable(('y', 'x'), 'x'),
              MultiPoly.const(('x',), 2)):
        with pytest.raises(ValueError, match='context mismatch'):
            p * q


def test_values_at_matches_reference_at_every_node():
    from supercapelli.solver import ia_star_basis, sp_basis
    half, one = HookParams(2, 1, 'half'), HookParams(2, 1, 'one')
    for basis in (ia_star_basis(half, 6), sp_basis(half, 6),
                  sp_basis(one, 6)):
        assert len(basis.nodes) == 29
        for b in basis.nodes:
            got = basis.values_at(basis.point(b))
            want = reference_values_at(basis, basis.point(b))
            assert got == want
            assert [str(x) for x in got] == [str(x) for x in want]
            assert all(type(x) is Fraction for x in got)


# ---------------------------------------------------------------------------
# Rules written once, against the second copies they replaced: the word
# product (UEAElement.__mul__ and the products table), the weight spaces
# of P^k(W), the Frobenius shifts, the hook-product box walk and omega.

def reference_uea_mul(a, b):
    """UEAElement product as the Fraction loop over word pairs."""
    terms = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            w = w1 + w2
            terms[w] = terms.get(w, 0) + c1 * c2
    return UEAElement(a.ambient, terms)


def reference_concat_ints(a, b):
    """The products-table rule: two cleared entries, words concatenated."""
    terms = {}
    for w1, c1 in a[1].items():
        for w2, c2 in b[1].items():
            w = w1 + w2
            terms[w] = terms.get(w, 0) + c1 * c2
    return a[0] * b[0], terms


def reference_products_entry(ambient, part):
    if len(part) == 1:
        return gelfand_element(ambient, part[0]).scale(
            Fraction(-1, 2) ** part[0]).cleared()
    return reference_concat_ints(reference_products_entry(ambient, part[:-1]),
                                 reference_products_entry(ambient, part[-1:]))


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2), (0, 2), (3, 0)])
def test_uea_mul_matches_reference(mn):
    amb = Ambient(*mn)
    rng = random.Random('mul %s %s' % mn)
    odd = [UEAElement.gen(amb, i, j).scale(random_coeff(rng))
           for i in range(amb.dim) for j in range(amb.dim)
           if amb.gen_parity((i, j))]
    fixed = [UEAElement.zero(amb), UEAElement.one(amb),
             UEAElement.one(amb).scale(Fraction(-3, 4))] + odd[:3]
    elems = fixed + [random_uea(amb, rng) for _ in range(24)]
    for a in elems:
        for b in fixed + rng.sample(elems, 6):
            assert_same(a * b, reference_uea_mul(a, b))
        c = Fraction(-5, 6)
        assert_same(a * c, reference_uea_mul(a, UEAElement.one(amb).scale(c)))


@pytest.mark.parametrize('mn,dmax', [((1, 1), 4), ((2, 1), 4), ((1, 2), 3),
                                     ((0, 2), 4), ((2, 2), 3)])
def test_products_table_matches_reference(monkeypatch, mn, dmax):
    monkeypatch.setattr(weyl, '_ctx_cache', {})
    amb = Ambient(*mn)
    ctx = weyl_context(amb)
    for d in range(1, dmax + 1):
        for part in partitions(d):
            want = reference_products_entry(amb, part)
            assert _entry(ctx, 'products', part) == want, part
            fold = UEAElement.one(amb)
            for b in part:
                fold = reference_uea_mul(fold, gelfand_element(amb, b).scale(
                    Fraction(-1, 2) ** b))
            assert_same(gelfand_product(amb, part), fold)


def reference_monomial_basis(ambient, k):
    """monomial_basis as the recursion over the next generator."""
    ctx = weyl_context(ambient)
    out = []

    def rec(start, left, prefix):
        if left == 0:
            out.append(tuple(prefix))
            return
        for g in range(start, len(ctx.pairs)):
            if ctx.parity[g] and prefix and prefix[-1] == g:
                continue
            prefix.append(g)
            rec(g + (1 if ctx.parity[g] else 0), left - 1, prefix)
            prefix.pop()

    rec(0, k, [])
    return out


def test_monomial_basis_matches_the_recursion():
    ambients = [(m, n) for m in range(5) for n in range(5 - m)] + [(1, 4)]
    for mn in ambients:
        amb = Ambient(*mn)
        for k in range(5):
            assert monomial_basis(amb, k) == \
                reference_monomial_basis(amb, k), (mn, k)


def reference_invariant_kernel(ambient, d):
    """invariant_kernel with its candidates grouped by the occurrences of
    each basis index across the pairs of a monomial."""
    ctx = weyl_context(ambient)
    by_counts = {}
    for mm in reference_monomial_basis(ambient, d):
        counts = [0] * ambient.dim
        for g in mm:
            i, j = ctx.pairs[g]
            counts[i] += 1
            counts[j] += 1
        by_counts.setdefault(tuple(counts), []).append(mm)
    cands = []
    for counts, group in sorted(by_counts.items()):
        for y in group:
            for dd in group:
                cands.append((y, dd))
    gens = [(i, j) for i in range(ambient.dim) for j in range(ambient.dim)
            if i != j]
    columns = []
    for (y, dd) in cands:
        elem = WeylElement(ambient, {(y, dd): Fraction(1)})
        vec = {}
        for gi, g in enumerate(gens):
            com = _commutator(rho_check_gen(ambient, *g), elem)
            for t, c in com.terms.items():
                vec[(gi, t)] = c
        columns.append(_clear(vec.items()))
    return [WeylElement(ambient, {yd: c for yd, c in zip(cands, vec) if c})
            for vec in dict_columns_kernel(columns)]


@pytest.mark.parametrize('mn', [(2, 1), (1, 2)])
def test_invariant_kernel_matches_the_counts_grouping(mn):
    amb = Ambient(*mn)
    for d in range(3):
        got, want = invariant_kernel(amb, d), reference_invariant_kernel(amb, d)
        assert got == want
        assert [str(x) for x in got] == [str(x) for x in want]


def reference_frobenius_point(b):
    params = b.params
    m, n = params.m, params.n
    star = b.star_parts()
    if params.theta == 'half':
        x = [b.part(k) - Fraction(2 * k - 1, 4) - Fraction(4 * n - m, 4)
             for k in range(1, m + 1)]
        y = [star[l - 1] - (2 * l - 1) + Fraction(4 * n + m, 2)
             for l in range(1, n + 1)]
    else:
        x = [b.part(k) - k + Fraction(1 - n + m, 2) for k in range(1, m + 1)]
        y = [star[l - 1] - l + Fraction(m + n + 1, 2) for l in range(1, n + 1)]
    return FrobeniusPoint(x, y)


def reference_frobenius_affine_map(params):
    m, n = params.m, params.n
    target = xy_context(m, n)
    images = {}
    if params.theta == 'half':
        source = a_context(m, n)
        for k in range(1, m + 1):
            lin = [Fraction(0)] * (m + n)
            lin[k - 1] = Fraction(2)
            images[source[k - 1]] = (lin, Fraction(2 * k - 1, 2)
                                     + 2 * n - Fraction(m, 2))
        for l in range(1, n + 1):
            lin = [Fraction(0)] * (m + n)
            lin[m + l - 1] = Fraction(2)
            images[source[m + l - 1]] = (lin, 4 * l - 2 - (4 * n + m))
    else:
        source = eps_context(m, n)
        for k in range(1, m + 1):
            lin = [Fraction(0)] * (m + n)
            lin[k - 1] = Fraction(1)
            images[source[k - 1]] = (lin, k - Fraction(1 - n + m, 2))
        for l in range(1, n + 1):
            lin = [Fraction(0)] * (m + n)
            lin[m + l - 1] = Fraction(1)
            images[source[m + l - 1]] = (lin, l - Fraction(m + n + 1, 2))
    return AffineSubstitution(source, target, images)


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2), (3, 0), (0, 2),
                                (2, 2)])
@pytest.mark.parametrize('theta', ['half', 'one'])
def test_frobenius_shifts_match_reference(mn, theta):
    params = HookParams(*mn, theta)
    sub, want = frobenius_affine_map(params), reference_frobenius_affine_map(
        params)
    assert (sub.source, sub.target) == (want.source, want.target)
    assert sub.images == want.images
    for b in enumerate_hooks(params, 5, upto=True):
        pt = frobenius_point(b)
        assert pt == reference_frobenius_point(b), b
        assert repr(pt) == repr(reference_frobenius_point(b))


def reference_hook_product_H(b):
    t = b.transpose()
    total = Fraction(1)
    for k, row in enumerate(b.parts, start=1):
        for l in range(1, row + 1):
            total *= row - l + 1 + Fraction(t[l - 1] - k, 2)
    return total


def reference_classical_hook_product(b):
    t = b.transpose()
    total = 1
    for k, row in enumerate(b.parts, start=1):
        for l in range(1, row + 1):
            total *= row - l + t[l - 1] - k + 1
    return total


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2), (3, 0), (0, 2)])
def test_hook_products_match_reference(mn):
    for b in enumerate_hooks(HookParams(*mn, 'half'), 6, upto=True):
        h, c = hook_product_H(b), classical_hook_product(b)
        assert h == reference_hook_product_H(b) and type(h) is Fraction, b
        assert c == reference_classical_hook_product(b), b
        assert type(c) is int, b


def reference_omega(a):
    """omega with the sign read pair by pair of odd letters."""
    amb = a.ambient
    terms = {}
    for w, c in a.terms.items():
        ps = [amb.gen_parity(g) for g in w]
        cross = 0
        for r in range(len(ps)):
            for s in range(r + 1, len(ps)):
                cross += ps[r] * ps[s]
        sgn = (-1) ** (len(w) + cross)
        nw = tuple(reversed(w))
        terms[nw] = terms.get(nw, 0) + sgn * c
    return UEAElement(amb, terms)


@pytest.mark.parametrize('mn', [(1, 1), (2, 1), (1, 2), (0, 2), (3, 0)])
def test_omega_matches_reference(mn):
    amb = Ambient(*mn)
    rng = random.Random('omega %s %s' % mn)
    elems = [UEAElement.zero(amb), UEAElement.one(amb)]
    elems += [gelfand_element(amb, d) for d in range(1, 4)]
    elems += [random_uea(amb, rng) for _ in range(30)]
    for x in elems:
        assert_same(omega(x), reference_omega(x))
