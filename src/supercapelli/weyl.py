"""The super Weyl algebra on the symmetric square of the natural module.

W = S^2(C^{m|N}) has coordinates x_{ij} = x_{ji} (up to the sign
(-1)^{|i||j|}) and dual generators y_{ij}; differential operators are
spanned by normal-ordered products (y-monomial) * (d-monomial), where d_g
differentiates with respect to x_g.  The defining pairing is

    <y_{ij}, x_{pq}> = d_ip d_jq + (-1)^{|i||j|} d_iq d_jp,
    d_w(w*) = (-1)^{|w|} <w*, w>,

so on canonical generators d_g(y_g) is 2 for an even diagonal pair, +1
for even or odd-odd off-diagonal pairs and -1 for mixed-parity pairs.

Monomials are tuples of canonical pair indices in nondecreasing order;
odd pairs are squarefree; swapping two odd generators costs a sign.
Elements of the polynomial algebra P(W) are plain dicts
{y-monomial: Fraction}.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import factorial, gcd, lcm

from .hooks import (a_context, enumerate_hooks, eps_extension,
                    gamma_star_map, partitions)
from .linalg import Span, dict_columns_kernel, dict_vectors_basis, lin_solve
from .multipoly import Combination, MultiPoly, lincomb
from .superlie import Ambient, UEAElement, gelfand_element

_ctx_cache = {}


class WeylContext:
    """Per-(m,N) tables: canonical pairs, their indices and parities, the
    canonical (pair index, sign) of every ordered index pair, and the
    per-partition tables filled by _entry: the cycle-product symbols,
    the Gelfand products (the only place they are built, read through
    gelfand_product) and their images under rho_check."""

    def __init__(self, ambient):
        self.ambient = ambient
        dim = ambient.dim
        self.pairs = [(i, j) for i in range(dim) for j in range(i, dim)
                      if not (i == j and ambient.parity(i))]
        self.index = {p: k for k, p in enumerate(self.pairs)}
        self.parity = [ambient.gen_parity(p) for p in self.pairs]
        self.canon_table = [[self._canon(i, j) for j in range(dim)]
                            for i in range(dim)]
        self.rho_gen = {(i, j): self._rho_gen(i, j)
                        for i in range(dim) for j in range(dim)}
        self._push_cache = {}
        # partition -> cleared (den, ints) of its cycle-product symbol, of
        # rho_check of its Gelfand product and of that product (_entry)
        unit = (1, {((), ()): 1})
        self.symbols = {(): unit}
        self.images = {(): unit}
        self.products = {(): (1, {(): 1})}

    def _canon(self, i, j):
        if i == j and self.ambient.parity(i):
            return None, 0
        if i <= j:
            return self.index[(i, j)], 1
        sgn = (-1) ** (self.ambient.parity(i) * self.ambient.parity(j))
        return self.index[(j, i)], sgn

    def _rho_gen(self, i, j):
        """The int terms of rho_check(E_ij) (see rho_check_gen)."""
        amb = self.ambient
        sij = -1 if amb.parity(i) and amb.parity(j) else 1
        terms = {}
        for r in range(amb.dim):
            yg, ys = self.canon_table[r][j]
            dg, ds = self.canon_table[r][i]
            if yg is not None and dg is not None:
                # r fixes both pairs, so no two r share a term
                terms[((yg,), (dg,))] = \
                    -sij * (-1 if amb.parity(r) else 1) * ys * ds
        return terms

    def canon(self, i, j):
        """Canonical (pair index, sign); (None, 0) for a vanishing pair."""
        return self.canon_table[i][j]

    def pairing(self, d_gen, y_gen):
        """d_{d_gen} applied to the generator y_{y_gen} (canonical indices)."""
        if d_gen != y_gen:
            return 0
        i, j = self.pairs[d_gen]
        if i == j:
            return 2
        return -1 if self.parity[d_gen] else 1

    def sort_mono(self, items):
        """Sort generator indices into canonical order with the super sign:
        the parity of the inversions among the odd entries.  Returns
        (tuple, sign) or (None, 0) when an odd generator repeats."""
        parity = self.parity
        odd = [g for g in items if parity[g]]
        if len(odd) < 2:
            return tuple(sorted(items)), 1
        sign = 1
        for t in range(1, len(odd)):
            g = odd[t]
            for h in odd[:t]:
                if h > g:
                    sign = -sign
                elif h == g:
                    return None, 0
        return tuple(sorted(items)), sign

    def merge_mono(self, a, b):
        """sort_mono(a + b) for canonical monomials a and b.  A
        one-generator side is inserted by bisection, with the sign of the
        odd entries it passes, and an empty side returns the other; only
        two longer sides go through sort_mono.  (None, 0) when an odd
        generator occurs on both sides."""
        if not (a and b):
            return a or b, 1
        parity = self.parity
        if len(b) == 1:
            g = b[0]
            t = bisect_right(a, g)
            if not parity[g]:
                return a[:t] + b + a[t:], 1
            if t and a[t - 1] == g:
                return None, 0
            passed = a[t:]          # g moves left past these
            out = a[:t] + b + passed
        elif len(a) == 1:
            g = a[0]
            t = bisect_left(b, g)
            if not parity[g]:
                return b[:t] + a + b[t:], 1
            if t < len(b) and b[t] == g:
                return None, 0
            passed = b[:t]          # g moves right past these
            out = passed + a + b[t:]
        else:
            return self.sort_mono(a + b)
        if sum(map(parity.__getitem__, passed)) % 2:
            return out, -1
        return out, 1

    def mono_parity(self, mono):
        return sum(self.parity[g] for g in mono) % 2

    def mono_counts(self, mono):
        """Occurrences of each basis index across the pairs of a monomial."""
        counts = [0] * self.ambient.dim
        for g in mono:
            i, j = self.pairs[g]
            counts[i] += 1
            counts[j] += 1
        return tuple(counts)

    def gen_label(self, g):
        i, j = self.pairs[g]
        return '%s,%s' % (self.ambient.label(i), self.ambient.label(j))


def weyl_context(ambient):
    key = (ambient.m, ambient.n)
    if key not in _ctx_cache:
        _ctx_cache[key] = WeylContext(Ambient(*key))
    return _ctx_cache[key]


class WeylElement(Combination):
    """Normal-ordered differential operator: map from (y-monomial,
    d-monomial) pairs to rational coefficients."""

    __slots__ = ('ambient',)

    def __init__(self, ambient, terms=None):
        self.ambient = ambient
        super().__init__(terms)

    @property
    def context(self):
        return self.ambient

    @classmethod
    def one(cls, ambient):
        return cls(ambient, {((), ()): Fraction(1)})

    def order(self):
        """Maximal d-degree across terms."""
        return max((len(d) for _, d in self.terms), default=0)

    def __mul__(self, other):
        if not isinstance(other, WeylElement):
            return self.scale(other)
        return weyl_mul(self, other)

    def parity(self):
        ctx = weyl_context(self.ambient)
        ps = {(ctx.mono_parity(y) + ctx.mono_parity(d)) % 2
              for y, d in self.terms}
        if len(ps) > 1:
            raise ValueError('element is not homogeneous in parity')
        return ps.pop() if ps else 0

    def ddeg_part(self, ddeg):
        return WeylElement(self.ambient,
                           {(y, d): c for (y, d), c in self.terms.items()
                            if len(d) == ddeg})

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda t: (len(t[0][0]) + len(t[0][1]), t[0]))

    def _format_monomial(self, key):
        ctx = weyl_context(self.ambient)
        y, d = key
        return (''.join('y(%s)' % ctx.gen_label(g) for g in y)
                + ''.join('D(%s)' % ctx.gen_label(g) for g in d))

    def to_json(self):
        ctx = weyl_context(self.ambient)
        return {
            'm': self.ambient.m, 'n': self.ambient.n,
            'terms': [{'y': [ctx.gen_label(g) for g in y],
                       'd': [ctx.gen_label(g) for g in d],
                       'coef': str(c)}
                      for (y, d), c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, data):
        amb = Ambient(int(data['m']), int(data['n']))
        ctx = weyl_context(amb)

        def mono(labels):
            out = []
            for lab in labels:
                i, j = (amb.parse_label(p) for p in lab.split(','))
                out.append(ctx.index[(i, j)])
            return tuple(out)

        terms = {}
        for rec in data['terms']:
            key = (mono(rec['y']), mono(rec['d']))
            terms[key] = terms.get(key, 0) + Fraction(rec['coef'])
        return cls(amb, terms)


def y_gen(ambient, i, j):
    ctx = weyl_context(ambient)
    g, s = ctx.canon(i, j)
    if g is None:
        return WeylElement.zero(ambient)
    return WeylElement(ambient, {((g,), ()): Fraction(s)})


def d_gen(ambient, i, j):
    ctx = weyl_context(ambient)
    g, s = ctx.canon(i, j)
    if g is None:
        return WeylElement.zero(ambient)
    return WeylElement(ambient, {((), (g,)): Fraction(s)})


def _push(ctx, dmono, ymono):
    """Normal order the product (d-monomial) * (y-monomial).

    Returns {(y', d'): int coeff}.  Recursive on the last derivative with
    memoization; contraction terms come from the defining pairing.
    """
    if not dmono or not ymono:
        return {(ymono, dmono): 1}
    key = (dmono, ymono)
    cached = ctx._push_cache.get(key)
    if cached is not None:
        return cached
    delta = dmono[-1]
    rest = dmono[:-1]
    parity = ctx.parity
    pd = parity[delta]
    out = {}
    # the derivative passes through the whole y-monomial
    sign_full = -1 if pd and sum(parity[g] for g in ymono) % 2 else 1
    last = (delta,)
    for (y1, d1), c in _push(ctx, rest, ymono).items():
        nd, s = ctx.merge_mono(d1, last)
        if nd is None:
            continue
        k = (y1, nd)
        out[k] = out.get(k, 0) + c * s * sign_full
    # contraction at each matching generator
    pref = 0
    for t, g in enumerate(ymono):
        if g == delta:
            c0 = ctx.pairing(delta, g)
            if pd and pref % 2:
                c0 = -c0
            reduced = ymono[:t] + ymono[t + 1:]
            for k, c in _push(ctx, rest, reduced).items():
                out[k] = out.get(k, 0) + c * c0
        pref += parity[g]
    out = {k: v for k, v in out.items() if v}
    ctx._push_cache[key] = out
    return out


def _mul_ints(ctx, a, b):
    """The normal-ordered product of two {(y-mono, d-mono): int} maps with
    canonical keys."""
    merge = ctx.merge_mono
    terms = {}
    for (y1, d1), c1 in a.items():
        for (y2, d2), c2 in b.items():
            c12 = c1 * c2
            for (ym, dm), c in _push(ctx, d1, y2).items():
                ny, s1 = merge(y1, ym)
                if ny is None:
                    continue
                nd, s2 = merge(dm, d2)
                if nd is None:
                    continue
                k = (ny, nd)
                terms[k] = terms.get(k, 0) + c12 * c * s1 * s2
    return terms


def _symbol_mul_ints(ctx, a, b):
    """The supercommutative symbol product of two {(y-mono, x-mono): int}
    maps with canonical keys: symbol(weyl_mul(a, b), |a| + |b|) with no
    contraction terms.  The y-monomials are merged second factor first
    and the x-monomials first factor first; moving the x-monomial of a
    past the y-monomial of b would cost the same sign, since every term
    of an invariant symbol has weight zero, so its y- and x-monomials
    have the same parity."""
    merge = ctx.merge_mono
    terms = {}
    for (y1, x1), c1 in a.items():
        for (y2, x2), c2 in b.items():
            ny, s1 = merge(y2, y1)
            if ny is None:
                continue
            nx, s2 = merge(x1, x2)
            if nx is None:
                continue
            k = (ny, nx)
            terms[k] = terms.get(k, 0) + c1 * c2 * s1 * s2
    return terms


def _canonical_ints(ctx, ints):
    """An {(y-mono, d-mono): int} map with each monomial sorted by
    sort_mono, its sign applied and the vanishing ones dropped."""
    out = {}
    for (y, d), c in ints.items():
        ny, sy = ctx.sort_mono(y)
        nd, sd = ctx.sort_mono(d)
        if sy and sd:
            k = (ny, nd)
            out[k] = out.get(k, 0) + sy * sd * c
    return out


def weyl_mul(a, b):
    """The normal-ordered product, on the operands' terms cleared to
    Python ints; divided back once per output term.  The operand keys are
    sorted once on entry (an element read from JSON may list a monomial
    in any order), so the product merges sorted monomials."""
    a._check(b)
    ctx = weyl_context(a.ambient)
    den_a, ints_a = a.cleared()
    den_b, ints_b = b.cleared()
    terms = _mul_ints(ctx, _canonical_ints(ctx, ints_a),
                      _canonical_ints(ctx, ints_b))
    return WeylElement.from_cleared(a.ambient, den_a * den_b, terms)


# ---------------------------------------------------------------------------
# P(W) and the action of operators on it.  A polynomial is {y-mono: coeff}.

def monomial_basis(ambient, k):
    """All degree-k monomials (odd generators squarefree), sorted."""
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


def _contract(ctx, dop, mono):
    """d^dop applied to y^mono: (rest, coeff) with rest the monomial mono
    less the entries of dop and coeff an integer, or (None, 0) when the
    multiset dop is not contained in mono.  On canonical generators
    d_g(y_h) = 0 for g != h, so no other pair contributes."""
    if len(dop) >= len(mono) and dop != mono:
        return None, 0
    parity = ctx.parity
    rest = list(mono)
    coeff = 1
    for delta in reversed(dop):
        if delta not in rest:
            return None, 0
        t = rest.index(delta)
        c0 = ctx.pairing(delta, delta)
        if parity[delta]:
            if rest.count(delta) > 1:
                return None, 0      # a repeated odd generator: y^mono = 0
            if sum(parity[g] for g in rest[:t]) % 2:
                c0 = -c0
        else:
            c0 *= rest.count(delta)
        coeff *= c0
        del rest[t]
    return tuple(rest), coeff


def apply_weyl(op, poly):
    """Apply a WeylElement to an element of P(W) (dict {y-mono: coeff}).

    Runs on Python ints: the operator is cleared with Combination.cleared()
    and the polynomial by the lcm of its denominators.  The operator terms
    are grouped by d-monomial, and d^dop(y^mono) is computed once per
    (dop, mono) pair, only when dop is contained in mono (see _contract);
    for a bidegree-(d,d) operator on a degree-d vector only dop == mono
    survives.  Each output term is divided back into a Fraction once."""
    ctx = weyl_context(op.ambient)
    sort_mono = ctx.sort_mono
    den_op, op_ints = op.cleared()
    den_p = lcm(*(c.denominator for c in poly.values()))
    poly_ints = [(mono, c.numerator * (den_p // c.denominator))
                 for mono, c in poly.items()]
    by_dop = {}
    for (yop, dop), c in op_ints.items():
        by_dop.setdefault(dop, []).append((yop, c))
    out = {}
    for dop, yterms in by_dop.items():
        for mono, c in poly_ints:
            rest, cc = _contract(ctx, dop, mono)
            if not cc:
                continue
            cc *= c
            for yop, cop in yterms:
                nm, s = sort_mono(yop + rest)
                if s:
                    out[nm] = out.get(nm, 0) + cc * cop * s
    den = den_op * den_p
    return {k: Fraction(v, den) for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# Polarization actions.

def rho_check_gen(ambient, i, j):
    """First-order operator realizing E_{ij} on P(W):
    -(-1)^{|i||j|} sum_r (-1)^{|r|} y_{rj} d_{ri}."""
    return WeylElement(ambient, weyl_context(ambient).rho_gen[(i, j)])


def rho_check(x):
    """Multiplicative extension of the polarization action to enveloping
    algebra elements, by Horner evaluation over the words.

    The input is cleared to Python ints.  Its words, read right to left,
    form a trie; a node stands for the sum of c_w * (prefix) over the
    words w that end in the node's path, so a node's image is its end
    coefficient plus, for each letter g, the image of the child times
    rho_check(E_g) (right multiplication by a generator image from the
    context's int table).  Subtrees equal up to an integer scalar are
    stored once (_rho_intern), and each distinct subtree is multiplied
    out once, children first (_rho_eval): a Gelfand element C_d has
    dim^d words but only about d * dim^2 distinct subtrees, the entries
    of the powers of the generator matrix T, so its image costs about as
    much as the supertrace of rho_check(T)^d.  Divided back once per
    output term."""
    amb = x.ambient
    ctx = weyl_context(amb)
    den, words = x.cleared()
    if not words:
        return WeylElement.zero(amb)
    root = [0, {}]
    for w, c in words.items():
        node = root
        for g in reversed(w):
            kids = node[1]
            node = kids.get(g)
            if node is None:
                node = kids[g] = [0, {}]
        node[0] += c
    nodes = []
    root_id, content = _rho_intern(root, {}, nodes)
    img = _rho_eval(ctx, nodes, root_id)
    return WeylElement(amb, {k: Fraction(content * v, den)
                             for k, v in img.items()})


def _rho_intern(node, table, nodes):
    """Hash-cons the trie node [end coefficient, {letter: child}] and its
    subtree: returns (id, content) with the node equal to content times
    the canonical node nodes[id] = (end, ((letter, child id, scale),
    ...)).  The content is the gcd of the end coefficient and the child
    scales, signed like the first nonzero of them, so subtrees equal up
    to a nonzero integer share one id.  Children get their ids first."""
    end, kids = node
    edges = sorted((g,) + _rho_intern(child, table, nodes)
                   for g, child in kids.items())
    content = gcd(end, *(s for _, _, s in edges))
    if (end or edges[0][2]) < 0:
        content = -content
    key = (end // content,
           tuple((g, cid, s // content) for g, cid, s in edges))
    nid = table.get(key)
    if nid is None:
        nid = table[key] = len(nodes)
        nodes.append(key)
    return nid, content


def _rho_eval(ctx, nodes, root_id):
    """The int image of every canonical node, children first (a child's
    id is smaller than its parent's): end + sum scale * img(child) *
    rho_check(E_letter)."""
    gens = ctx.rho_gen
    imgs = []
    for end, edges in nodes:
        img = {((), ()): end} if end else {}
        for g, cid, s in edges:
            for k, v in _mul_ints(ctx, imgs[cid], gens[g]).items():
                img[k] = img.get(k, 0) + s * v
        imgs.append({k: v for k, v in img.items() if v})
    return imgs[root_id]


# ---------------------------------------------------------------------------
# Invariant symbols.

def t_sigma(ambient, sigma):
    """The invariant bidegree-(d,d) operator attached to a permutation of
    {1..2d}, computed literally from its defining signed sum (with the
    1/2^d prefactor), presented in normal-ordered form.

    The sum runs over all index tuples, depth first on Python ints: the
    tuple is fixed one position at a time with its odd-position mask
    carried down, each pair's canonical generator and sign are read once
    its second position is fixed, and a branch is cut at the first odd
    diagonal pair (sign 0).  A leaf reads the parity sign from a table
    over the masks, sorts the y- and x-monomials through a per-call memo
    of sort_mono and adds one term; the 1/2^d is applied once per output
    term."""
    two_d = len(sigma)
    if two_d % 2:
        raise ValueError('permutation must have even size')
    if sorted(sigma) != list(range(1, two_d + 1)):
        raise ValueError('not a permutation of 1..%d' % two_d)
    if not two_d:
        return WeylElement.one(ambient)     # the empty tuple alone
    d = two_d // 2
    ctx = weyl_context(ambient)
    dim = ambient.dim
    canon = ctx.canon_table
    canon_t = [list(col) for col in zip(*canon)]
    parity = [ambient.parity(i) for i in range(dim)]
    # 0-based tuple positions of the inverted pairs of sigma
    inv_pos = [(sigma[r] - 1, sigma[s] - 1) for r in range(two_d)
               for s in range(r + 1, two_d) if sigma[r] > sigma[s]]
    # (-1)^(sum_k p_k + sum_{inverted (r, s)} p_r p_s) for every mask of
    # odd positions
    sign_of = []
    for mask in range(2 ** two_d):
        odd = mask.bit_count() + sum((mask >> r) & (mask >> s) & 1
                                     for r, s in inv_pos)
        sign_of.append(-1 if odd % 2 else 1)
    # index pairs of the y-factors (last first), then of the x-factors
    pair_pos = ([(2 * t - 2, 2 * t - 1) for t in range(d, 0, -1)]
                + [(sigma[2 * t - 2] - 1, sigma[2 * t - 1] - 1)
                   for t in range(1, d + 1)])
    ys, xs = [None] * d, [None] * d
    # the pairs closed by each position: (generator list, slot, the
    # pair's other position, the canon table read with that index first)
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
    _t_sigma_walk(env, 0, 0, 1)
    return WeylElement.from_cleared(ambient, 2 ** d, terms)


def _t_sigma_walk(env, pos, mask, sign):
    """Fix position pos of the index tuple in every way and descend; at
    the last position add the leaf terms.  A plain function of its
    arguments, so a t_sigma call leaves no reference cycle behind."""
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
                break               # an odd diagonal pair
            sg *= s
            gens[slot] = g
        else:
            if pos < last:
                tup[pos] = i
                _t_sigma_walk(env, pos + 1, mask | pos_bits[i], sg)
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


def consecutive_cycles_perm(blocks):
    """Product of the consecutive even-entry cycles determined by block
    sizes: for boundaries d_s the factor is the cycle through the even
    numbers 2d_s+2, 2d_s+4, ..., 2d_{s+1}.  Returned as a 1-based image
    tuple on {1..2d}."""
    d = sum(blocks)
    img = list(range(1, 2 * d + 1))
    pos = 0
    for b in blocks:
        evens = [2 * pos + 2 * t for t in range(1, b + 1)]
        for a, nxt in zip(evens, evens[1:] + evens[:1]):
            img[a - 1] = nxt
        pos += b
    return tuple(img)


def _concat_ints(ctx, a, b):
    """The product of two cleared enveloping algebra entries: the words
    concatenated."""
    terms = {}
    for w1, c1 in a[1].items():
        for w2, c2 in b[1].items():
            w = w1 + w2
            terms[w] = terms.get(w, 0) + c1 * c2
    return a[0] * b[0], terms


# table -> (the entry of a one-part partition (b,), the product of two
# entries); the products hold because t_sigma of consecutive cycles
# factorises block by block and rho_check is an algebra homomorphism.  A
# one-part product is the scaled Gelfand element (-1/2)^b C_b, and a
# one-part image is rho_check of it.
_TABLE_RULES = {
    'symbols': (
        lambda ctx, b: t_sigma(ctx.ambient,
                               consecutive_cycles_perm((b,))).cleared(),
        lambda ctx, a, b: (a[0] * b[0], _symbol_mul_ints(ctx, a[1], b[1]))),
    'images': (
        lambda ctx, b: rho_check(gelfand_product(ctx.ambient, (b,))).cleared(),
        lambda ctx, a, b: weyl_mul(*(WeylElement.from_cleared(
            ctx.ambient, *entry) for entry in (a, b))).cleared()),
    'products': (
        lambda ctx, b: gelfand_element(ctx.ambient, b).scale(
            Fraction(-1, 2) ** b).cleared(),
        _concat_ints),
}


def _entry(ctx, table, part):
    """The cleared (den, ints) entry of a partition in the context table
    'symbols', 'images' or 'products', filled on first request: a
    one-part entry from the table's base function, a longer one as the
    table's product of the entries of its leading parts and of its last
    part, so a request also fills those.  The entry is shared: callers
    read it and never change it."""
    entries = getattr(ctx, table)
    entry = entries.get(part)
    if entry is None:
        base, mul = _TABLE_RULES[table]
        if len(part) == 1:
            entry = base(ctx, part[0])
        else:
            entry = mul(ctx, _entry(ctx, table, part[:-1]),
                        _entry(ctx, table, part[-1:]))
        entries[part] = entry
    return entry


def gelfand_product(ambient, part):
    """The product over the blocks b of part, in order, of the scaled
    Gelfand elements (-1/2)^b C_b; the unit for the empty partition.
    Its polarized image has top symbol the invariant t_sigma of every
    sigma of coset type part.  A fresh element of the entry in the
    products table of the ambient's Weyl context."""
    return UEAElement.from_cleared(
        ambient, *_entry(weyl_context(ambient), 'products', tuple(part)))


def invariant_spanning_set(ambient, d):
    """Representative invariant symbols, one per partition of d: the
    t_sigma of the product of consecutive cycles of the part sizes.  That
    sigma maps each block of positions onto itself, so the literal sum
    factorises block by block, and its t_sigma is the symbol product of
    the single-cycle symbols of the parts (the context's symbols table).
    Every t_sigma lies in their span."""
    ctx = weyl_context(ambient)
    return [(part, WeylElement.from_cleared(ambient,
                                            *_entry(ctx, 'symbols', part)))
            for part in partitions(d)]


def _commutator(a, b):
    """Supercommutator with b of even parity: ab - (-1)^{|a||b|} ba."""
    sgn = (-1) ** (a.parity() * b.parity())
    return weyl_mul(a, b) - weyl_mul(b, a).scale(sgn)


def invariant_kernel(ambient, d):
    """Basis (as WeylElements) of the bidegree-(d,d) operators commuting
    with the whole polarized action, computed by direct linear algebra:
    weight-zero filtering by the diagonal action, then the kernel of the
    off-diagonal commutators."""
    ctx = weyl_context(ambient)
    monos = monomial_basis(ambient, d)
    by_counts = {}
    for mm in monos:
        by_counts.setdefault(ctx.mono_counts(mm), []).append(mm)
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
        columns.append(vec)
    return [WeylElement(ambient, {yd: c for yd, c in zip(cands, vec) if c})
            for vec in dict_columns_kernel(columns)]


def invariant_symbol_space(ambient, d, verify=True):
    """Row-reduced spanning set of the invariant symbols in bidegree (d,d).

    When verify is set, checks that each spanning symbol equals the
    literal t_sigma of its product of consecutive cycles, and that the
    span coincides with the kernel of the polarized action, a route to
    the invariants that does not go through t_sigma; a mismatch raises,
    since it would contradict the structure theory the solvers rely on.
    """
    span = invariant_spanning_set(ambient, d)
    vecs = [t.terms for _, t in span]
    basis_vecs = dict_vectors_basis(vecs)
    basis = [WeylElement(ambient, v) for v in basis_vecs]
    if verify:
        for part, t in span:
            if t != t_sigma(ambient, consecutive_cycles_perm(part)):
                raise AssertionError('symbol product differs from the '
                                     'literal t_sigma at %s' % (part,))
        kernel = Span()
        for k in invariant_kernel(ambient, d):
            kernel.add(k.terms)
        if kernel.rank != len(basis):
            raise AssertionError('invariant span does not match the kernel '
                                 'of the polarized action at degree %d' % d)
        for _, t in span:
            if kernel.add(t.terms):
                raise AssertionError('symbol outside the invariant kernel')
    return basis


# ---------------------------------------------------------------------------
# Highest weight vectors and module bookkeeping.

def mono_weight(ctx, mono):
    """Weight of a y-monomial in the epsilon frame (negative counts)."""
    return tuple(-c for c in ctx.mono_counts(mono))


def highest_weight_vectors(ambient, k, eps_coords):
    """Basis of the space of vectors in the degree-k piece of P(W) of the
    given epsilon-frame weight killed by the simple raising operators."""
    ctx = weyl_context(ambient)
    eps = tuple(Fraction(c) for c in eps_coords)
    # int weights compare equal to Fraction ones, so none is converted
    return _highest_in(ambient, [mm for mm in monomial_basis(ambient, k)
                                 if mono_weight(ctx, mm) == eps])


def _highest_in(ambient, cands):
    """highest_weight_vectors among the monomials cands of one weight."""
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


def all_highest_weight_vectors(ambient, k):
    """All (weight, basis) pairs with nonzero highest-weight space in the
    degree-k graded piece."""
    ctx = weyl_context(ambient)
    groups = {}
    for mm in monomial_basis(ambient, k):
        groups.setdefault(mono_weight(ctx, mm), []).append(mm)
    return [(w, basis) for w in sorted(groups, reverse=True)
            if (basis := _highest_in(ambient, groups[w]))]


def cyclic_span_dim(ambient, vec):
    """Dimension of the span of a vector under repeated application of the
    lowering operators: one Span grown breadth first, each image of a
    newly kept vector added to it once."""
    lowering = [rho_check_gen(ambient, i, j)
                for i in range(ambient.dim) for j in range(ambient.dim) if i > j]
    span = Span()
    span.add(vec)
    frontier = [vec]
    while frontier:
        new_frontier = []
        for v in frontier:
            for op in lowering:
                w = apply_weyl(op, v)
                if w and span.add(w):
                    new_frontier.append(w)
        frontier = new_frontier
    return span.rank


# ---------------------------------------------------------------------------
# Capelli operators.

def eigenvalue_on(op, vec):
    """Scalar by which an invariant operator acts on a vector spanning a
    one-dimensional isotypic slot; asserts proportionality."""
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


def capelli_operator(params, b, inv_basis=None):
    """The invariant operator of bidegree (d,d) acting as d! on the module
    indexed by b and as zero on the other modules of the same degree, one
    lincomb of the invariant basis; b must be a hook partition of params."""
    if params.theta != 'half':
        raise ValueError('capelli operators live in the half regime')
    d = b.size
    hooks = enumerate_hooks(params, d)
    if b not in hooks:
        raise ValueError('partition %s of %r is not a hook partition of %r'
                         % (b, b.params, params))
    amb = Ambient(params.m, 2 * params.n)
    if inv_basis is None:
        inv_basis = invariant_symbol_space(amb, d, verify=False)
    rows = []
    for bp in hooks:
        mu = gamma_star_map(bp)
        hw = highest_weight_vectors(amb, d, eps_extension(mu))
        if len(hw) != 1:
            raise AssertionError('highest weight space at %s has dimension %d'
                                 % (mu, len(hw)))
        v = hw[0]
        rows.append([eigenvalue_on(t, v) for t in inv_basis])
    rhs = [Fraction(factorial(d)) if bp == b else Fraction(0) for bp in hooks]
    res = lin_solve(rows, rhs, len(inv_basis))
    if not res.unique:
        raise AssertionError('capelli operator system is singular')
    return WeylElement.from_cleared(amb, *lincomb(
        (c, t.cleared()) for c, t in zip(res.solution, inv_basis) if c))


# ---------------------------------------------------------------------------
# Spherical machinery.

def _cartan_generators(params):
    """The canonical y-generators that restrict to the even Cartan a, as
    {generator: (a-coordinate index, value)}.

    The form beta is 1 on the canonical pairs x_kk and x_{(2l-1)b,(2l)b}
    and 0 on every other pair.  Restriction runs through iota(h) =
    rho(h) beta*, with beta* = -1/4 sum x_kk + 1/2 sum x_{(2l-1)b,(2l)b}:
    rho(E_kk) beta* = -1/2 x_kk and rho(E_(2l-1)b,(2l-1)b +
    E_(2l)b,(2l)b) beta* = x_{(2l-1)b,(2l)b}.  With the supertrace Gram
    entries 1 and -2 of these Cartan elements and the pairings
    <y_kk, x_kk> = 2 and <y_{(2l-1)b,(2l)b}, x_{(2l-1)b,(2l)b}> = 1, y_kk
    restricts to -a_k, y_{(2l-1)b,(2l)b} to -ab_l / 2, and every other
    y-generator to 0."""
    m, n = params.m, params.n
    ctx = weyl_context(Ambient(m, 2 * n))
    table = {ctx.index[(k, k)]: (k, Fraction(-1)) for k in range(m)}
    for l in range(n):
        table[ctx.index[(m + 2 * l, m + 2 * l + 1)]] = (m + l, Fraction(-1, 2))
    return table


def spherical_vector(params, b, capelli=None):
    """The invariant vector: contract the x-side of the Capelli operator
    with the form beta.  beta is 1 on the Cartan generators and 0 on every
    other pair (see _cartan_generators), so a term keeps its y-monomial
    and coefficient exactly when all its derivatives are Cartan
    generators.  Returns {y-monomial: coeff}."""
    if capelli is None:
        capelli = capelli_operator(params, b)
    cartan = _cartan_generators(params)
    out = {}
    for (y, dd), c in capelli.terms.items():
        if all(g in cartan for g in dd):
            out[y] = out.get(y, 0) + c
    return {k: v for k, v in out.items() if v != 0}


def spherical_poly(params, b, capelli=None):
    """Polynomial on the weight coordinates obtained by restricting the
    spherical vector to the even Cartan: a y-monomial that lies wholly in
    the Cartan table becomes the product of its generators' coordinates
    and values, and any other y-monomial restricts to 0."""
    cartan = _cartan_generators(params)
    avars = a_context(params.m, params.n)
    terms = {}
    for mono, c in spherical_vector(params, b, capelli=capelli).items():
        exp = [0] * len(avars)
        for g in mono:
            if g not in cartan:
                break
            idx, val = cartan[g]
            exp[idx] += 1
            c *= val
        else:
            exp = tuple(exp)
            terms[exp] = terms.get(exp, 0) + c
    return MultiPoly(avars, terms)


def osp_spanning_set(params):
    """Spanning set of the fixed orthosymplectic subalgebra inside the
    ambient gl(m|2n), as degree-1 enveloping algebra elements."""
    m, n = params.m, params.n
    amb = Ambient(m, 2 * n)

    def E(i, j):
        return UEAElement.gen(amb, i, j)

    out = []
    for k in range(m):
        for l in range(m):
            if k != l:
                out.append(E(k, l) - E(l, k))
    for k in range(n):
        for l in range(n):
            a1, a2 = m + 2 * l, m + 2 * l + 1      # (2l-1)b, (2l)b
            b1, b2 = m + 2 * k, m + 2 * k + 1
            out.append(E(a1, b1) - E(b2, a2))
            out.append(E(a1, b2) + E(b1, a2))
            out.append(E(a2, b1) + E(b2, a1))
    for k in range(m):
        for l in range(n):
            o1, o2 = m + 2 * l, m + 2 * l + 1
            out.append(E(k, o1) + E(o2, k))
            out.append(E(k, o2) - E(o1, k))
    return out


def symbol(a, d):
    """The order-d symbol: the part of pure derivative degree d.  Errors
    when the operator has order above d."""
    if a.order() > d:
        raise ValueError('operator order exceeds %d' % d)
    return a.ddeg_part(d)
