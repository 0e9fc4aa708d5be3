"""The general linear Lie superalgebra, its enveloping algebra, normal
ordering, central Gelfand elements and Harish-Chandra projections.

Basis indices for gl(m|N) are integers 0..m+N-1: the first m are even,
the rest odd.  Printed labels are 1..m for the even block and 1b..Nb for
the odd block.  A generator is a pair (i, j) standing for the elementary
matrix E_{ij}; words in the enveloping algebra are tuples of such pairs.

Structure constants:
    [E_ij, E_kl] = d_jk E_il - (-1)^((|i|+|j|)(|k|+|l|)) d_li E_kj
with the bracket understood as the supercommutator.
"""

from fractions import Fraction
from itertools import product

from .multipoly import Combination, MultiPoly


class Ambient:
    """Fixed (m, N): N is the odd dimension of the natural module."""

    __slots__ = ('m', 'n')

    def __init__(self, m, n):
        if m < 0 or n < 0:
            raise ValueError('dimensions must be nonnegative')
        self.m = m
        self.n = n

    @property
    def dim(self):
        return self.m + self.n

    def parity(self, i):
        return 0 if i < self.m else 1

    def gen_parity(self, g):
        return (self.parity(g[0]) + self.parity(g[1])) % 2

    def label(self, i):
        return str(i + 1) if i < self.m else '%db' % (i - self.m + 1)

    def parse_label(self, s):
        s = s.strip()
        if s.endswith('b'):
            i = self.m + int(s[:-1]) - 1
        else:
            i = int(s) - 1
        if not 0 <= i < self.dim:
            raise ValueError('index %r out of range' % (s,))
        return i

    def cartan_context(self):
        return tuple('E(%s,%s)' % (self.label(i), self.label(i))
                     for i in range(self.dim))

    def __eq__(self, other):
        return isinstance(other, Ambient) and (self.m, self.n) == (other.m, other.n)

    def __hash__(self):
        return hash((self.m, self.n))

    def __repr__(self):
        return 'Ambient(%d|%d)' % (self.m, self.n)


class UEAElement(Combination):
    """Rational combination of words in the generators E_{ij}."""

    __slots__ = ('ambient',)

    def __init__(self, ambient, terms=None):
        self.ambient = ambient
        super().__init__(terms)

    @property
    def context(self):
        return self.ambient

    @classmethod
    def one(cls, ambient):
        return cls(ambient, {(): Fraction(1)})

    @classmethod
    def gen(cls, ambient, i, j):
        return cls(ambient, {((i, j),): Fraction(1)})

    def order(self):
        """Filtration degree: maximal word length."""
        return max((len(w) for w in self.terms), default=0)

    def __mul__(self, other):
        if not isinstance(other, UEAElement):
            return self.scale(other)
        self._check(other)
        return UEAElement.from_cleared(
            self.ambient, *_concat(self.cleared(), other.cleared()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))

    def _format_monomial(self, w):
        amb = self.ambient
        return ''.join('E(%s,%s)' % (amb.label(i), amb.label(j)) for i, j in w)

    def to_json(self):
        amb = self.ambient
        return {
            'm': amb.m, 'n': amb.n,
            'terms': [{'word': [[amb.label(i), amb.label(j)] for i, j in w],
                       'coef': str(c)}
                      for w, c in self.sorted_terms()],
        }


def _concat(a, b):
    """The product of two cleared (den, ints) enveloping algebra entries:
    the words concatenated, the coefficients multiplied on ints."""
    terms = {}
    for w1, c1 in a[1].items():
        for w2, c2 in b[1].items():
            w = w1 + w2
            terms[w] = terms.get(w, 0) + c1 * c2
    return a[0] * b[0], terms


def bracket_gen(ambient, g1, g2):
    """Supercommutator [E_g1, E_g2] as a degree <= 1 element."""
    i, j = g1
    k, l = g2
    terms = {}
    if j == k:
        terms[((i, l),)] = terms.get(((i, l),), 0) + 1
    if l == i:
        sgn = (-1) ** (ambient.gen_parity(g1) * ambient.gen_parity(g2))
        terms[((k, j),)] = terms.get(((k, j),), 0) - sgn
    return UEAElement(ambient, terms)


def bracket(a, b):
    """Supercommutator of two degree-1 elements (extended bilinearly)."""
    a._check(b)
    if any(len(w) != 1 for w in (*a.terms, *b.terms)):
        raise ValueError('bracket expects degree-1 elements')
    out = UEAElement.zero(a.ambient)
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            out = out + bracket_gen(a.ambient, w1[0], w2[0]).scale(c1 * c2)
    return out


def _gen_key(ambient, g, mirrored):
    i, j = g
    if i > j:
        block = 2 if mirrored else 0     # lowering
    elif i == j:
        block = 1
    else:
        block = 0 if mirrored else 2     # raising
    return (block, i, j)


def _pbw_table(ambient, mirrored):
    """Normal-ordering rules on generator codes g = i*dim + j, built once
    per (m, N, mirrored): (gens, rules), with gens[g] the pair (i, j) and
    rules[g1][g2] None for an adjacent pair already in order, else
    (swap sign, ((bracket code, int coefficient), ...)) for rewriting
    x y = sign y x + [x, y].  An odd letter E_ij has i != j, so [x, x] = 0
    and its square rewrites to nothing: rule (0, ())."""
    key = (ambient.m, ambient.n, mirrored)
    table = _pbw_tables.get(key)
    if table is not None:
        return table
    dim = ambient.dim
    gens = [(i, j) for i in range(dim) for j in range(dim)]
    order = [_gen_key(ambient, g, mirrored) for g in gens]
    parity = [ambient.gen_parity(g) for g in gens]
    rules = []
    for a, g1 in enumerate(gens):
        row = []
        for b, g2 in enumerate(gens):
            if a == b and parity[a]:
                row.append((0, ()))
            elif order[a] > order[b]:
                br = bracket_gen(ambient, g1, g2)
                row.append(((-1) ** (parity[a] * parity[b]),
                            tuple((i * dim + j, int(c))
                                  for ((i, j),), c in br.terms.items())))
            else:
                row.append(None)
        rules.append(row)
    table = _pbw_tables[key] = (gens, rules)
    return table


_pbw_tables = {}


def pbw_normalize(a, mirrored=False):
    """Rewrite every word into normal order.

    The generator order is: lowering letters, then diagonal, then raising
    (mirrored swaps the off-diagonal blocks), each block ordered by
    (row, column).  The first out-of-order adjacent pair of a word is
    rewritten by the rule of `_pbw_table`; repeated equal odd letters
    vanish.  Words are tuples of generator codes and coefficients are
    Python ints (the input times the lcm of its denominators), divided
    back once per output word.  The frontier is kept as a map so
    duplicate intermediate words merge.
    """
    amb = a.ambient
    dim = amb.dim
    gens, rules = _pbw_table(amb, mirrored)
    den, ints = a.cleared()
    frontier = {tuple(i * dim + j for i, j in w): c for w, c in ints.items()}
    done = {}
    while frontier:
        word, coeff = frontier.popitem()
        if not coeff:
            continue
        for pos in range(len(word) - 1):
            rule = rules[word[pos]][word[pos + 1]]
            if rule is not None:
                break
        else:
            done[word] = done.get(word, 0) + coeff
            continue
        sign, brackets = rule
        head, tail = word[:pos], word[pos + 2:]
        if sign:
            nw = head + (word[pos + 1], word[pos]) + tail
            frontier[nw] = frontier.get(nw, 0) + sign * coeff
        for g, c in brackets:
            nw = head + (g,) + tail
            frontier[nw] = frontier.get(nw, 0) + c * coeff
    return UEAElement(amb, {tuple(gens[g] for g in w): Fraction(c, den)
                            for w, c in done.items() if c})


def gelfand_element(ambient, d):
    """Supertrace of the d-th power of the twisted generator matrix, whose
    (a, b) entry is (-1)^{|a||b|} E_{ba}: a central element of the
    enveloping algebra for every d >= 1, built afresh on every call.
    Each closed index path i_1, ..., i_d, i_1 gives one word, with the
    sign (-1)^|i_1| times the entry signs along the path."""
    if d < 1:
        raise ValueError('d must be >= 1')
    parity = [ambient.parity(i) for i in range(ambient.dim)]
    terms = {}
    for cycle in product(range(ambient.dim), repeat=d):
        steps = tuple(zip(cycle, cycle[1:] + cycle[:1]))
        sgn = parity[cycle[0]] + sum(parity[a] * parity[b] for a, b in steps)
        terms[tuple((b, a) for a, b in steps)] = (-1) ** sgn
    return UEAElement(ambient, terms)


def omega(a):
    """The antiautomorphism with omega(x) = -x on the superalgebra and
    omega(xy) = (-1)^{|x||y|} omega(y) omega(x): a word of length l with
    o odd letters reverses with the sign (-1)^(l + C(o, 2))."""
    amb = a.ambient
    terms = {}
    for w, c in a.terms.items():
        o = sum(amb.gen_parity(g) for g in w)
        sgn = (-1) ** (len(w) + o * (o - 1) // 2)
        nw = tuple(reversed(w))
        terms[nw] = terms.get(nw, 0) + sgn * c
    return UEAElement(amb, terms)


def hc_project(a, sign='plus'):
    """Harish-Chandra projection onto the Cartan polynomial algebra.

    Normal order (mirrored for the minus variant), keep the purely
    diagonal words, and read them as a commutative polynomial in the
    diagonal generators.  The projection is along n-U + Un+ (n- and n+
    the blocks 0 and 2 of the sign's order, _gen_key), so words that
    start in block 0 or end in block 2 are dropped first.  A sign other
    than 'plus' or 'minus' raises.
    """
    if sign not in ('plus', 'minus'):
        raise ValueError("sign must be 'plus' or 'minus', got %r" % (sign,))
    amb = a.ambient
    mir = sign == 'minus'
    block = {g: _gen_key(amb, g, mir)[0]
             for g in product(range(amb.dim), repeat=2)}
    normal = pbw_normalize(UEAElement(amb, {
        w: c for w, c in a.terms.items()
        if not w or (block[w[0]] != 0 and block[w[-1]] != 2)}), mirrored=mir)
    ctx = amb.cartan_context()
    terms = {}
    for w, c in normal.terms.items():
        if any(i != j for i, j in w):
            continue
        exp = [0] * amb.dim
        for i, _ in w:
            exp[i] += 1
        exp = tuple(exp)
        terms[exp] = terms.get(exp, 0) + c
    return MultiPoly(ctx, terms)


def omega_cartan(p):
    """The antiautomorphism on a Cartan polynomial: each variable is
    negated (words reverse trivially there)."""
    terms = {}
    for e, c in p.terms.items():
        terms[e] = terms.get(e, 0) + c * (-1) ** sum(e)
    return MultiPoly(p.vars, terms)


def a_context(m, n):
    """Variable names for the gamma-basis dual coordinates."""
    return tuple('a%d' % k for k in range(1, m + 1)) + \
        tuple('ab%d' % l for l in range(1, n + 1))


def q_projection(c, ambient):
    """Restrict a Cartan polynomial of gl(m|2n) to the even Cartan a of
    the symmetric pair, in the a-coordinates: E_kk -> a_k and both odd
    diagonal entries of the l-th pair -> ab_l / 2."""
    m, nn = ambient.m, ambient.n
    if nn % 2:
        raise ValueError('odd dimension must be even for the q projection')
    n = nn // 2
    ctx = a_context(m, n)
    terms = {}
    for e, coef in c.terms.items():
        exp = list(e[:m])
        odd_total = 0
        for l in range(n):
            pair = e[m + 2 * l] + e[m + 2 * l + 1]
            exp.append(pair)
            odd_total += pair
        exp = tuple(exp)
        coef = coef * Fraction(1, 2 ** odd_total)
        terms[exp] = terms.get(exp, 0) + coef
    return MultiPoly(ctx, terms)


def gd_element(ambient, d):
    """The shifted power-sum generator of the image of the center under
    the plus projection, for the gl(m|2n) pair."""
    m, nn = ambient.m, ambient.n
    if nn % 2:
        raise ValueError('ambient odd dimension must be even')
    n = nn // 2
    ctx = ambient.cartan_context()
    out = MultiPoly.zero(ctx)
    for k in range(1, m + 1):
        shift = Fraction(m + 1, 2) - n - k
        base = MultiPoly.variable(ctx, ctx[k - 1]) + MultiPoly.const(ctx, shift)
        out = out + base ** d
    for l in range(1, nn + 1):
        shift = Fraction(m + 1, 2) + n - l
        base = MultiPoly.variable(ctx, ctx[m + l - 1]) + MultiPoly.const(ctx, shift)
        out = out + (base ** d).scale((-1) ** (d - 1))
    return out
