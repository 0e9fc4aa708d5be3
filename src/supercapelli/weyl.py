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

Inside the kernels (weyl_mul, rho_check, t_sigma, the symbol product) a
monomial is one packed int, a (y, d) key too (see WeylContext): a merge
is an add, an odd pair on both sides an AND, a super sign the parity of
a popcount.  Keys are packed on entry, which sorts an out-of-order key
with its sign, and unpacked on exit: every WeylElement key is a tuple.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, gcd

from .hooks import enumerate_hooks, eps_extension, gamma_star_map, partitions
from .linalg import Span, dict_columns_kernel, dict_vectors_basis, lin_solve
from .multipoly import Combination, MultiPoly, lincomb, _clear
from .superlie import Ambient, UEAElement, a_context, gelfand_element, _concat

_ctx_cache = {}


class _Suffix(dict):
    """Odd bitset x -> the bits h with an odd number of bits of x above h,
    so (suffix[x] & z).bit_count() has the parity of the swaps that sort
    the odd pairs of x followed by those of z."""

    def __missing__(self, x):
        s = self[x] = x and x >> 1 ^ self[x >> 1]
        return s


class WeylContext:
    """Per-(m,N) tables: canonical pairs, their indices and parities, the
    canonical (pair index, sign) of every ordered index pair, and the
    per-partition tables filled by _entry: the cycle-product symbols,
    the Gelfand products (the only place they are built, read through
    gelfand_product) and their images under rho_check.

    The packed layout (fit): pair g has an exponent field of `width` bits
    at bit width * g, unit[g] = 1 << width * g, odd_unit[g] is unit[g]
    for an odd g, odd_mask their sum, and above[g] / below[g] the odd
    units after / before an odd g (0 for an even g); y | d << span packs
    a key.  Odd fields hold 0 or 1, so odd_mask reads the odd pairs."""

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
        self.suffix = _Suffix()
        self.width = 0
        self.fit(15)            # 4-bit fields until a kernel needs more
        # partition -> cleared (den, ints) of its cycle-product symbol, of
        # rho_check of its Gelfand product and of that product (_entry)
        unit = (1, {((), ()): 1})
        self.symbols = {(): unit}
        self.images = {(): unit}
        self.products = {(): (1, {(): 1})}
        # (family, HookParams, d) -> interpolation basis (solver._basis)
        self.bases = {}

    def fit(self, degree):
        """Widen the exponent fields to hold `degree`, clearing the memos
        keyed by packed ints."""
        if degree >> self.width:
            width = self.width = degree.bit_length()
            self.field = (1 << width) - 1
            self.span = width * len(self.parity)
            self.ymask = (1 << self.span) - 1
            self.unit = [1 << width * g for g in range(len(self.parity))]
            self.odd_unit = [u * p for u, p in zip(self.unit, self.parity)]
            odd = self.odd_mask = sum(self.odd_unit)
            self.above = [odd & -(u << 1) for u in self.odd_unit]
            self.below = [odd & max(u - 1, 0) for u in self.odd_unit]
            self._push_cache, self._tuples = {}, {}

    def pack(self, mono):
        """(packed int, sign) of a sequence of pair indices in any order: the
        sign of sorting it, 0 when an odd pair repeats."""
        p, sign = 0, 1
        for g in mono:      # g passes the odd pairs after it
            sign *= 0 if p & self.odd_unit[g] else \
                -1 if (p & self.above[g]).bit_count() & 1 else 1
            p += self.unit[g]
        return p, sign

    def unpack(self, p):
        """The sorted tuple of pair indices of a packed monomial."""
        mono = self._tuples.get(p)
        if mono is None:
            mono = self._tuples[p] = tuple(
                g for g in range(len(self.parity))
                for _ in range(p >> self.width * g & self.field))
        return mono

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
        self.fit(len(items))
        p, sign = self.pack(items)
        return self.unpack(p) if sign else None, sign

    def mono_parity(self, mono):
        return sum(self.parity[g] for g in mono) % 2

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
    """Normal order d^dmono y^ymono (packed): {packed key: int coeff}.
    Memoized recursion on the top pair delta of dmono: it moves right past
    y^ymono (signed by its odd y's for an odd delta) and contracts with
    y_delta (the pairing times the exponent, or the sign of the odd y's
    before an odd delta)."""
    span = ctx.span
    if not dmono or not ymono:
        return {ymono | dmono << span: 1}
    key = ymono | dmono << span
    cached = ctx._push_cache.get(key)
    if cached is not None:
        return cached
    delta = (dmono.bit_length() - 1) // ctx.width
    unit = ctx.unit[delta]
    rest = dmono - unit
    step = unit << span
    sign = -1 if (ymono & ctx.odd_mask).bit_count() & ctx.parity[delta] else 1
    out = {}
    for k, c in _push(ctx, rest, ymono).items():
        out[k + step] = out.get(k + step, 0) + sign * c
    e = ymono >> ctx.width * delta & ctx.field
    if e:
        c0 = ctx.pairing(delta, delta) * e
        if (ymono & ctx.below[delta]).bit_count() & 1:
            c0 = -c0
        for k, c in _push(ctx, rest, ymono - unit).items():
            out[k] = out.get(k, 0) + c * c0
    out = {k: v for k, v in out.items() if v}
    ctx._push_cache[key] = out
    return out


def _mul_ints(ctx, a, b):
    """The normal-ordered product of two {packed key: int} maps: d1 y2 is
    normal ordered once per d1 of a and y2 of b (_push), and each of its
    terms joins the y's of a with that d1 and the d's of b with that y2."""
    span, ymask, odd, suffix = ctx.span, ctx.ymask, ctx.odd_mask, ctx.suffix
    left, right = {}, {}
    for k, c in a.items():
        y = k & ymask
        left.setdefault(k >> span, []).append((y, y & odd, c))
    for k, c in b.items():
        d = k >> span
        right.setdefault(k & ymask, []).append((d << span, d & odd, c))
    terms = {}
    for d1, ys in left.items():
        for y2, ds in right.items():
            for k, c in _push(ctx, d1, y2).items():
                ym, dm = k & ymask, k >> span
                dmo, ymo = dm & odd, ym & odd
                tail = suffix[dmo]
                ends = [(k - ym + d2, -c2 if (tail & d2o).bit_count() & 1
                         else c2) for d2, d2o, c2 in ds if not dmo & d2o]
                for y1, y1o, c1 in ys:
                    if y1o & ymo:
                        continue
                    cy = -c * c1 if (suffix[y1o] & ymo).bit_count() & 1 \
                        else c * c1
                    for nd, cd in ends:
                        nk = y1 + ym + nd
                        terms[nk] = terms.get(nk, 0) + cy * cd
    return terms


def _symbol_mul_ints(ctx, a, b):
    """The supercommutative symbol product of two {(y-mono, x-mono): int}
    maps: symbol(weyl_mul(a, b), |a| + |b|), the product with no
    contraction terms, y1 x1 y2 x2 = +-y1 y2 x1 x2 on packed keys, a
    merge of two keys being their sum.  The sign of the odd pairs that
    pass is one popcount: the suffix parities of y1 and x1, and the
    parity of x1 at a spare bit, against the odd pairs of y2 and x2 and
    the parity of y2 there."""
    a, b = _pack_ints(ctx, a, b)
    span, odd, suffix = ctx.span, ctx.odd_mask, ctx.suffix
    both, spare = odd | odd << span, 1 << 2 * span
    left = [(k, k & both, suffix[k & odd] | suffix[k >> span & odd] << span
             | spare * ((k >> span & odd).bit_count() & 1), c)
            for k, c in a.items()]
    terms = {}
    for k2, c2 in b.items():
        o2 = k2 & both
        s2 = o2 | spare * ((k2 & odd).bit_count() & 1)
        for k1, o1, s1, c1 in left:
            if not o1 & o2:
                c = -c1 * c2 if (s1 & s2).bit_count() & 1 else c1 * c2
                terms[k1 + k2] = terms.get(k1 + k2, 0) + c
    return _unpack_ints(ctx, terms)


def _pack_ints(ctx, *maps):
    """The {(y-mono, d-mono): int} maps on packed keys, each monomial
    sorted with its sign (WeylContext.pack) and the vanishing ones
    dropped, once the fields hold the degree of the maps' product."""
    ctx.fit(sum(max((len(y) + len(d) for y, d in ints), default=0)
                for ints in maps))
    out = [{} for _ in maps]
    for ints, terms in zip(maps, out):
        for (y, d), c in ints.items():
            (py, sy), (pd, sd) = ctx.pack(y), ctx.pack(d)
            if sy and sd:
                k = py | pd << ctx.span
                terms[k] = terms.get(k, 0) + sy * sd * c
    return out


def _unpack_ints(ctx, terms):
    """The nonzero terms of a {packed key: int} map on sorted tuples."""
    span, ymask, mono = ctx.span, ctx.ymask, ctx.unpack
    return {(mono(k & ymask), mono(k >> span)): c
            for k, c in terms.items() if c}


def weyl_mul(a, b):
    """The normal-ordered product, on the operands' terms cleared to
    Python ints and packed (an element read from JSON may list a monomial
    in any order; packing sorts it); divided back once per output term."""
    a._check(b)
    ctx = weyl_context(a.ambient)
    (den_a, ints_a), (den_b, ints_b) = a.cleared(), b.cleared()
    terms = _mul_ints(ctx, *_pack_ints(ctx, ints_a, ints_b))
    return WeylElement.from_cleared(a.ambient, den_a * den_b,
                                    _unpack_ints(ctx, terms))


# ---------------------------------------------------------------------------
# P(W) and the action of operators on it.  A polynomial is {y-mono: coeff}.

def monomial_basis(ambient, k):
    """All degree-k monomials (odd generators squarefree), sorted."""
    parity = weyl_context(ambient).parity
    squares = {(g, g) for g, odd in enumerate(parity) if odd}
    return [mono
            for mono in combinations_with_replacement(range(len(parity)), k)
            if squares.isdisjoint(zip(mono, mono[1:]))]


def _weight_spaces(ambient, k):
    """The weight spaces of P^k(W): {epsilon-frame weight: its monomials,
    in monomial_basis order}."""
    ctx = weyl_context(ambient)
    spaces = {}
    for mm in monomial_basis(ambient, k):
        spaces.setdefault(mono_weight(ctx, mm), []).append(mm)
    return spaces


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

    Runs on Python ints: the operator is read as its kept cleared pair
    (Combination.cleared) and the polynomial is cleared by
    multipoly._clear.  The operator terms are grouped by d-monomial,
    and d^dop(y^mono) is computed once per (dop, mono) pair, only when
    dop is contained in mono (see _contract); for a bidegree-(d,d)
    operator on a degree-d vector only dop == mono survives.  Each output
    term is divided back into a Fraction once."""
    ctx = weyl_context(op.ambient)
    sort_mono = ctx.sort_mono
    den_op, op_ints = op.cleared()
    den_p, poly_ints = _clear(poly.items())
    by_dop = {}
    for (yop, dop), c in op_ints.items():
        by_dop.setdefault(dop, []).append((yop, c))
    out = {}
    for dop, yterms in by_dop.items():
        for mono, c in poly_ints.items():
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
    much as the supertrace of rho_check(T)^d.  The images are kept on
    packed keys, with fields that hold the longest word's degree, and
    divided back once per output term."""
    amb = x.ambient
    ctx = weyl_context(amb)
    den, words = x.cleared()
    if not words:
        return WeylElement.zero(amb)
    ctx.fit(max(map(len, words)))
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
    img = _unpack_ints(ctx, _rho_eval(ctx, nodes, root_id))
    return WeylElement.from_cleared(amb, den, {k: content * v
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
    """The packed int image of every canonical node, children first (a
    child's id is smaller than its parent's): end + sum scale *
    img(child) * rho_check(E_letter), with the letter's terms from
    _first_order."""
    gens, imgs = {}, []
    for end, edges in nodes:
        out = {0: end} if end else {}
        for g, cid, scale in edges:
            if g not in gens:
                gens[g] = _first_order(ctx, ctx.rho_gen[g])
            for k, c in imgs[cid].items():
                c *= scale
                for zero, sign, step, at, field, drop, zero2, sign2, step2, \
                        coef, pair in gens[g]:
                    if not k & zero:
                        v = -c * coef if (k & sign).bit_count() & 1 \
                            else c * coef
                        out[k + step] = out.get(k + step, 0) + v
                    e = k >> at & field
                    if e and not (k - drop) & zero2:
                        k2 = k - drop
                        v = -c * pair * e if (k2 & sign2).bit_count() & 1 \
                            else c * pair * e
                        out[k2 + step2] = out.get(k2 + step2, 0) + v
        imgs.append({k: v for k, v in out.items() if v})
    return imgs[root_id]


def _first_order(ctx, gen):
    """The terms coef y_a d_b of a first-order operator as packed masks
    and steps that multiply a key y^Y d^D on the right: d^D y_a is y_a d^D
    (signed by the odd d's for an odd a) plus the pairing times the
    exponent of a in D (signed by the odd d's after an odd a) times d^D
    less a; y_a and d_b join signed by the odd pairs after them."""
    span, above, odd_unit, unit = ctx.span, ctx.above, ctx.odd_unit, ctx.unit
    out = []
    for ((a,), (b,)), coef in gen.items():
        odd_d = ctx.odd_mask if odd_unit[a] else 0
        out.append((odd_unit[a] | odd_unit[b] << span,
                    above[a] | (odd_d ^ above[b]) << span,
                    unit[a] + (unit[b] << span), span + ctx.width * a,
                    ctx.field, unit[a] << span, odd_unit[b] << span,
                    (above[a] ^ above[b]) << span, unit[b] << span,
                    coef, coef * ctx.pairing(a, a)))
    return out


# ---------------------------------------------------------------------------
# Invariant symbols.

def _check_permutation(sigma):
    """The input check of every sigma indexing an invariant symbol:
    ValueError unless sigma is a permutation of 1..2d as an image tuple."""
    if len(sigma) % 2 or sorted(sigma) != list(range(1, len(sigma) + 1)):
        raise ValueError('sigma must be a permutation of 1..2d, got %s'
                         % ','.join(map(str, sigma)))


def t_sigma(ambient, sigma):
    """The invariant bidegree-(d,d) operator attached to a permutation of
    {1..2d}, computed literally from its defining signed sum (with the
    1/2^d prefactor), presented in normal-ordered form.

    The sum runs over all index tuples, depth first on Python ints: the
    tuple is fixed one position at a time with its odd-position mask and
    its packed key (y low, x high) carried down.  Once a pair's second
    position is fixed, its canonical generator joins the key with its
    sign and that of the odd pairs it passes (as in WeylContext.pack),
    and a branch is cut at an odd diagonal or repeated odd pair.  Pairs
    join in the order their positions close; the sign from there to
    factor order depends only on the mask, so the mask table holds it
    with the parity sign, and a leaf adds one term.  The 1/2^d is applied
    once per output term."""
    _check_permutation(sigma)
    two_d = len(sigma)
    if not two_d:
        return WeylElement.one(ambient)     # the empty tuple alone
    d = two_d // 2
    ctx = weyl_context(ambient)
    ctx.fit(d)
    dim = ambient.dim
    # index pairs of the y-factors (last first), then of the x-factors
    pair_pos = ([(2 * t - 2, 2 * t - 1) for t in range(d, 0, -1)]
                + [(sigma[2 * t - 2] - 1, sigma[2 * t - 1] - 1)
                   for t in range(1, d + 1)])
    # pairs of position sets whose parities multiply into the sign: the
    # inverted pairs of sigma, and the factors of one side that join in
    # the opposite order to their factor order
    cross = [(1 << sigma[r] - 1, 1 << sigma[s] - 1) for r in range(two_d)
             for s in range(r + 1, two_d) if sigma[r] > sigma[s]]
    for side in (pair_pos[:d], pair_pos[d:]):
        cross += [(1 << side[k][0] | 1 << side[k][1],
                   1 << side[l][0] | 1 << side[l][1]) for k in range(d)
                  for l in range(k) if max(side[k]) < max(side[l])]
    sign_of = [-1 if (mask.bit_count() + sum(
        (mask & a).bit_count() & (mask & b).bit_count() & 1
        for a, b in cross)) % 2 else 1 for mask in range(2 ** two_d)]
    # per shift (y, x) and index order, the packed step of every canonical
    # pair: (unit, odd unit, odd pairs after it, sign), None if it vanishes
    steps = [[[None if g is None else
               (ctx.unit[g] << sh, ctx.odd_unit[g] << sh,
                ctx.above[g] << sh, s) for g, s in row] for row in table]
             for sh in (0, ctx.span)
             for table in (ctx.canon_table, list(zip(*ctx.canon_table)))]
    # the pairs closed by each position: (the pair's other position, the
    # steps read with that index first)
    closing = [[] for _ in range(two_d)]
    for k, (r, s) in enumerate(pair_pos):
        half = 0 if k < d else 2
        closing[max(r, s)].append((min(r, s), steps[half + (r > s)]))
    bits = [[ambient.parity(i) << pos for i in range(dim)]
            for pos in range(two_d)]
    terms = {}
    _t_sigma_walk((dim, bits, closing, two_d - 1, [0] * two_d, sign_of,
                   terms), 0, 0, 1, 0)
    return WeylElement.from_cleared(ambient, 2 ** d, _unpack_ints(ctx, terms))


def _t_sigma_walk(env, pos, mask, sign, key):
    """Fix position pos of the index tuple in every way and descend; at
    the last position add the leaf terms.  A plain function of its
    arguments, so a t_sigma call leaves no reference cycle behind."""
    dim, bits, closing, last, tup, sign_of, terms = env
    rows = [steps[tup[other]] for other, steps in closing[pos]]
    pos_bits = bits[pos]
    for i in range(dim):
        sg, k = sign, key
        for row in rows:
            step = row[i]
            if step is None or k & step[1]:
                break               # an odd diagonal or repeated odd pair
            unit, _, above, s = step
            sg = -s * sg if (k & above).bit_count() & 1 else s * sg
            k += unit
        else:
            if pos < last:
                tup[pos] = i
                _t_sigma_walk(env, pos + 1, mask | pos_bits[i], sg, k)
            else:
                terms[k] = terms.get(k, 0) + sign_of[mask | pos_bits[i]] * sg


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
        lambda ctx, a, b: _concat(a, b)),
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
    spaces = _weight_spaces(ambient, d)
    cands = [(y, dd) for w in sorted(spaces, reverse=True)
             for y in spaces[w] for dd in spaces[w]]
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
    # the basis is made of the spanning elements themselves, which keep
    # the cleared pairs they were built from
    kept = {id(v) for v in dict_vectors_basis([t.terms for _, t in span])}
    basis = [t for _, t in span if id(t.terms) in kept]
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
    """Weight of a y-monomial in the epsilon frame: minus the occurrences
    of each basis index across its pairs."""
    weight = [0] * ctx.ambient.dim
    for g in mono:
        for i in ctx.pairs[g]:
            weight[i] -= 1
    return tuple(weight)


def highest_weight_vectors(ambient, k, eps_coords):
    """Basis of the space of vectors in the degree-k piece of P(W) of the
    given epsilon-frame weight killed by the simple raising operators."""
    eps = tuple(Fraction(c) for c in eps_coords)
    # int weights hash and compare equal to Fraction ones
    return _highest_in(ambient, _weight_spaces(ambient, k).get(eps, []))


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


def hook_vectors(params, k):
    """{hook mu of size k: the highest weight vector of the summand of
    P^k(W) indexed by mu}, from one weight grouping of P^k(W).  P(W) is
    multiplicity free, so an AssertionError naming the weight is raised
    when a highest weight space is not one-dimensional."""
    amb = params.ambient
    spaces = _weight_spaces(amb, k)
    out = {}
    for mu in enumerate_hooks(params, k):
        w = gamma_star_map(mu)
        hw = _highest_in(amb, spaces.get(eps_extension(w), []))
        if len(hw) != 1:
            raise AssertionError('highest weight space at %s has dimension %d'
                                 % (w, len(hw)))
        out[mu] = hw[0]
    return out


def all_highest_weight_vectors(ambient, k):
    """All (weight, basis) pairs with nonzero highest-weight space in the
    degree-k graded piece."""
    spaces = _weight_spaces(ambient, k)
    return [(w, basis) for w in sorted(spaces, reverse=True)
            if (basis := _highest_in(ambient, spaces[w]))]


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
    s = img.get(min(vec), 0) / vec[min(vec)] if img else Fraction(0)
    if img != {kk: s * c for kk, c in vec.items() if s}:
        raise AssertionError('image not proportional to the vector')
    return s


def capelli_operator(params, b, inv_basis=None):
    """The invariant operator of bidegree (d,d) acting as d! on the module
    indexed by b and as zero on the other modules of the same degree, one
    lincomb of the invariant basis; b must be a hook partition of params.
    An inv_basis of another ambient, bidegree or size raises ValueError."""
    params._require('half', 'capelli_operator')
    d = b.size
    vectors = hook_vectors(params, d)
    if b not in vectors:
        raise ValueError('partition %s of %r is not a hook partition of %r'
                         % (b, b.params, params))
    amb = params.ambient
    if inv_basis is None:
        inv_basis = invariant_symbol_space(amb, d, verify=False)
    if any(t.ambient != amb for t in inv_basis):
        raise ValueError('inv_basis has an element outside %r' % amb)
    if any(len(y) != d or len(x) != d for t in inv_basis for y, x in t.terms):
        raise ValueError('inv_basis has an element not of bidegree (%d,%d)'
                         % (d, d))
    if len(inv_basis) != len(vectors):
        raise ValueError('inv_basis has %d elements, not %d'
                         % (len(inv_basis), len(vectors)))
    rows = [[eigenvalue_on(t, v) for t in inv_basis] for v in vectors.values()]
    rhs = [Fraction(factorial(d) if bp == b else 0) for bp in vectors]
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
    params._require('half', 'the spherical vector')
    m, n = params.m, params.n
    ctx = weyl_context(params.ambient)
    table = {ctx.index[(k, k)]: (k, Fraction(-1)) for k in range(m)}
    for l in range(n):
        table[ctx.index[(m + 2 * l, m + 2 * l + 1)]] = (m + l, Fraction(-1, 2))
    return table


def spherical_vector(params, b, capelli=None):
    """The invariant vector: contract the x-side of the Capelli operator
    with the form beta.  beta is 1 on the Cartan generators and 0 on every
    other pair (see _cartan_generators), so a term keeps its y-monomial
    and coefficient exactly when all its derivatives are Cartan
    generators.  Returns {y-monomial: coeff}.  A capelli of another
    ambient or not of bidegree (|b|,|b|) raises ValueError."""
    if capelli is None:
        capelli = capelli_operator(params, b)
    cartan = _cartan_generators(params)
    if capelli.ambient != params.ambient:
        raise ValueError('capelli operator in %r, not in %r'
                         % (capelli.ambient, params.ambient))
    if any(len(y) != b.size or len(x) != b.size for y, x in capelli.terms):
        raise ValueError('capelli operator not of bidegree (%d,%d)'
                         % (b.size, b.size))
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
    params._require('half', 'osp_spanning_set')
    m, n = params.m, params.n
    amb = params.ambient

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


def _order_part(terms, d):
    """The terms of derivative degree d of a {(y-mono, d-mono): c} map."""
    return {k: c for k, c in terms.items() if len(k[1]) == d}


def symbol(a, d):
    """The order-d symbol: the part of pure derivative degree d.  Errors
    when the operator has order above d."""
    if a.order() > d:
        raise ValueError('operator order exceeds %d' % d)
    return WeylElement(a.ambient, _order_part(a.terms, d))
