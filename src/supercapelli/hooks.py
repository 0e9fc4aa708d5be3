"""Hook partitions, weight maps, hook products and Frobenius coordinates.

Two parameter regimes are supported.  In the "half" regime the relevant
symmetric pair lives inside gl(m|2n) and weights are written in the gamma
basis of the even Cartan subalgebra a.  In the "one" regime the natural
home is gl(m|n) itself and weights are written in the epsilon basis.
"""

from fractions import Fraction

from .multipoly import AffineSubstitution
from .superlie import Ambient, a_context, _integer


class HookParams:

    __slots__ = ('m', 'n', 'theta')

    def __init__(self, m, n, theta='half'):
        m, n = _integer(m, 'm'), _integer(n, 'n')
        if m < 0 or n < 0:
            raise ValueError('m, n must be nonnegative')
        if theta not in ('half', 'one'):
            raise ValueError("theta must be 'half' or 'one'")
        self.m = m
        self.n = n
        self.theta = theta

    @property
    def ambient(self):
        """The ambient of the pair ranks: gl(m|2n), whose pair with
        osp(m|2n) acts on S^2(C^{m|2n}), at theta = 1/2; gl(m|n), home of
        the shifted Schur family, at theta = 1."""
        return Ambient(self.m, 2 * self.n if self.theta == 'half' else self.n)

    def _require(self, theta, caller):
        """The regime check of every entry point that exists at one theta
        only: ValueError naming caller unless self.theta is theta."""
        if self.theta != theta:
            raise ValueError('%s requires theta = %s'
                             % (caller, '1/2' if theta == 'half' else '1'))

    def __eq__(self, other):
        return (isinstance(other, HookParams)
                and (self.m, self.n, self.theta) == (other.m, other.n, other.theta))

    def __hash__(self):
        return hash((self.m, self.n, self.theta))

    def __repr__(self):
        return 'HookParams(%d, %d, %r)' % (self.m, self.n, self.theta)


def transpose_parts(parts):
    parts = tuple(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= k) for k in range(1, parts[0] + 1))


class HookPartition:
    """A partition constrained to the (m|n) hook: parts beyond row m are
    at most n."""

    __slots__ = ('parts', 'params')

    def __init__(self, parts, params):
        parts = tuple(_integer(p, 'a partition part') for p in parts)
        if any(p < 0 for p in parts):
            raise ValueError('parts must be nonnegative')
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError('parts must be nonincreasing')
        parts = tuple(p for p in parts if p)    # trailing zeros only
        if len(parts) > params.m and parts[params.m] > params.n:
            raise ValueError('not an (m|n)-hook partition: row %d has %d > %d'
                             % (params.m + 1, parts[params.m], params.n))
        self.parts = parts
        self.params = params

    @property
    def size(self):
        return sum(self.parts)

    def transpose(self):
        return transpose_parts(self.parts)

    def part(self, k):
        """Row length, 1-based, zero beyond the last row."""
        return self.parts[k - 1] if 1 <= k <= len(self.parts) else 0

    def star_parts(self):
        """The sequence b*_l = max(b'_l - m, 0) for l = 1..n."""
        t = self.transpose()
        m, n = self.params.m, self.params.n
        return tuple(max((t[l - 1] if l <= len(t) else 0) - m, 0)
                     for l in range(1, n + 1))

    def __eq__(self, other):
        return (isinstance(other, HookPartition)
                and self.parts == other.parts and self.params == other.params)

    def __hash__(self):
        return hash((self.parts, self.params))

    def __repr__(self):
        return 'HookPartition(%r)' % (self.parts,)

    def __str__(self):
        return ','.join(str(p) for p in self.parts) if self.parts else '()'


def parse_partition(text, params):
    text = text.strip()
    if text in ('', '()', '0'):
        return HookPartition((), params)
    try:
        parts = [int(p) for p in text.split(',')]
    except ValueError:
        raise ValueError('--partition must be comma-separated integers '
                         '(e.g. 2,1,1), got %r' % text) from None
    return HookPartition(parts, params)


def partitions(d):
    """All partitions of d as tuples, largest part first, in
    reverse-lexicographic order; the empty partition for d = 0."""
    out = []

    def rec(left, maxp, prefix):
        if left == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(left, maxp), 0, -1):
            prefix.append(p)
            rec(left - p, p, prefix)
            prefix.pop()

    rec(d, d, [])
    return out


def enumerate_hooks(params, d, upto=False):
    """All (m|n)-hook partitions of size d (or of size <= d when upto),
    graded then reverse-lexicographic within each size: the partitions
    whose part m + 1, if any, is at most n."""
    if d < 0:
        raise ValueError('size must be nonnegative, got %d' % d)
    m, n = params.m, params.n
    return [HookPartition(p, params)
            for size in (range(d + 1) if upto else (d,))
            for p in partitions(size) if len(p) <= m or p[m] <= n]


class Weight:
    """A weight with an explicit frame tag and even/odd coordinate blocks."""

    __slots__ = ('frame', 'coords', 'm', 'n')

    FRAMES = ('a_star_gamma', 'h_star_eps')

    def __init__(self, frame, coords, m, n):
        if frame not in Weight.FRAMES:
            raise ValueError('unknown frame %r' % (frame,))
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != m + n:
            raise ValueError('coordinate length does not match blocks')
        self.frame = frame
        self.coords = coords
        self.m = m
        self.n = n

    @property
    def even(self):
        return self.coords[:self.m]

    @property
    def odd(self):
        return self.coords[self.m:]

    def __eq__(self, other):
        return (isinstance(other, Weight) and self.frame == other.frame
                and self.coords == other.coords
                and (self.m, self.n) == (other.m, other.n))

    def __hash__(self):
        return hash((self.frame, self.coords, self.m, self.n))

    def __str__(self):
        ev = ','.join(str(c) for c in self.even)
        od = ','.join(str(c) for c in self.odd)
        return '(%s ; %s)' % (ev, od)

    __repr__ = __str__


def gamma_map(b):
    """Highest weight of the module indexed by b in the polynomial model."""
    params = b.params
    m, n = params.m, params.n
    star = b.star_parts()
    if params.theta == 'half':
        coords = [2 * b.part(k) for k in range(1, m + 1)]
        coords += [2 * s for s in star]
        return Weight('a_star_gamma', coords, m, n)
    coords = [b.part(k) for k in range(1, m + 1)]
    coords += list(star)
    return Weight('h_star_eps', coords, m, n)


def gamma_star_map(b):
    """Highest weight of the degree-|b| summand of the polynomial space,
    half regime only."""
    b.params._require('half', 'gamma_star_map')
    m, n = b.params.m, b.params.n
    t = b.transpose()
    coords = [-2 * max(b.part(m + 1 - i) - n, 0) for i in range(1, m + 1)]
    coords += [-2 * (t[n - j] if n - j < len(t) else 0) for j in range(1, n + 1)]
    return Weight('a_star_gamma', coords, m, n)


def dual_weight(mu, params):
    """The weight mu* with V_mu^* isomorphic to V_{mu*}.

    gamma_star_map(b) records the excess over n of rows 1..m of b (even
    coordinates, last row first) and the lengths of columns 1..n (odd
    coordinates, last column first); together they fix b, and mu* is
    gamma_map(b)."""
    m, n = params.m, params.n
    if (mu.m, mu.n) != (m, n):
        raise ValueError('weight %s does not have (m, n) = (%d, %d)'
                         % (mu, m, n))
    halves = [int(-c / 2) for c in reversed(mu.coords)]
    cols, excess = halves[:n], halves[n:]
    rows = max(cols + [m])
    parts = [sum(1 for c in cols if c >= k) + (excess[k - 1] if k <= m else 0)
             for k in range(1, rows + 1)]
    try:
        b = HookPartition(parts, params)
    except ValueError:      # negative, increasing or outside the hook
        b = None
    if b is None or gamma_star_map(b) != mu:
        raise ValueError('weight %s is not in the image of gamma_star_map'
                         % (mu,))
    return gamma_map(b)


def _hook_product(b, leg_weight):
    """The product over the boxes of b of arm + 1 + leg_weight * leg."""
    t = b.transpose()
    total = 1
    for k, row in enumerate(b.parts, start=1):
        for l in range(1, row + 1):
            total *= row - l + 1 + leg_weight * (t[l - 1] - k)
    return total


def hook_product_H(b):
    """Theta-deformed hook product, one factor per box."""
    return Fraction(_hook_product(b, Fraction(1, 2)))


def classical_hook_product(b):
    return _hook_product(b, 1)


class FrobeniusPoint:

    __slots__ = ('x', 'y')

    def __init__(self, x, y):
        self.x = tuple(Fraction(v) for v in x)
        self.y = tuple(Fraction(v) for v in y)

    def coords(self):
        return self.x + self.y

    def __eq__(self, other):
        return (isinstance(other, FrobeniusPoint)
                and self.x == other.x and self.y == other.y)

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return 'FrobeniusPoint(%s, %s)' % (self.x, self.y)


def _frobenius_shifts(params):
    """(scale, shifts): the Frobenius point of a hook b is its parts
    b_1..b_m and its star parts plus the shifts, and gamma_map(b) is
    scale * (frobenius_point(b) - shifts), the scale being the factor
    2 (theta = 1/2) or 1 (theta = 1) that gamma_map puts on the parts."""
    m, n = params.m, params.n
    if params.theta == 'half':
        return 2, ([Fraction(m - 4 * n + 1 - 2 * k, 4)
                    for k in range(1, m + 1)]
                   + [Fraction(4 * n + m + 2 - 4 * l, 2)
                      for l in range(1, n + 1)])
    return 1, ([Fraction(m - n + 1 - 2 * k, 2) for k in range(1, m + 1)]
               + [Fraction(m + n + 1 - 2 * l, 2) for l in range(1, n + 1)])


def frobenius_point(b):
    m = b.params.m
    _, shifts = _frobenius_shifts(b.params)
    parts = [b.part(k) for k in range(1, m + 1)] + list(b.star_parts())
    v = [p + s for p, s in zip(parts, shifts)]
    return FrobeniusPoint(v[:m], v[m:])


def eps_context(m, n):
    return tuple('e%d' % k for k in range(1, m + 1)) + \
        tuple('eb%d' % l for l in range(1, n + 1))


def xy_context(m, n):
    return tuple('x%d' % k for k in range(1, m + 1)) + \
        tuple('y%d' % l for l in range(1, n + 1))


def frobenius_affine_map(params):
    """The affine map Psi with Psi(frobenius_point(b)) = gamma_map(b) for
    every hook partition b; source is the weight context, target the
    Frobenius (x, y) context."""
    m, n = params.m, params.n
    scale, shifts = _frobenius_shifts(params)
    source = (a_context if params.theta == 'half' else eps_context)(m, n)
    images = {}
    for i, shift in enumerate(shifts):
        lin = [0] * (m + n)
        lin[i] = scale
        images[source[i]] = (lin, -scale * shift)
    return AffineSubstitution(source, xy_context(m, n), images)


def eps_extension(w):
    """Extend a gamma-frame weight on a to the full Cartan of gl(m|2n),
    trivially on the complement: each odd coordinate splits into an equal
    pair of halves."""
    if w.frame != 'a_star_gamma':
        raise ValueError('eps_extension expects a gamma-frame weight')
    coords = list(w.even)
    for c in w.odd:
        coords += [c / 2, c / 2]
    return tuple(coords)
