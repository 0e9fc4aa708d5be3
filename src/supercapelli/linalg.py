"""Exact dense linear algebra over the rationals.

Matrices are lists of rows of Fraction-coercible values.  Dimensions here
are desk scale (at most a few thousand), so plain Gauss-Jordan elimination
is fast enough and trivially correct.  It runs fraction-free: each row is
scaled by the lcm of its denominators to a row of integers, eliminations
cross-multiply, and every updated row is divided by its content (the gcd
of its entries), which keeps the integers small without any gcd work per
entry.  Each integer row is a nonzero multiple of the row the Fraction
elimination would hold, so pivots, rank, reduced row echelon form and
kernel are exactly those of elimination over Fractions.  lin_solve
verifies its own answer by back-substitution on every call.

Span grows an echelon one dict vector at a time: each kept row is a
primitive integer dict whose pivot is its smallest key, and a new vector
is reduced against the kept rows, pivot by pivot, by the same
cross-multiply-and-divide-by-content step.  A vector that survives is
outside the span and is kept; so a greedy basis or a growing span costs
one reduction per candidate instead of an elimination of the whole
family, and dict_vectors_rank is the rank of a Span grown by its vectors.
"""

from fractions import Fraction
from math import gcd, lcm


class ReducedMatrix:
    """Result bundle of mat_reduce: rank, pivot columns, RREF, kernel basis."""

    def __init__(self, rank, pivots, rref, kernel):
        self.rank = rank
        self.pivots = pivots
        self.rref = rref
        self.kernel = kernel


def _primitive(row):
    """Row divided by the gcd of its entries (unchanged when zero)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _cleared(row):
    """(den, ints): the lcm of the denominators of a row of
    Fraction-coercible values, and the row times it."""
    fr = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in fr))
    return den, [x.numerator * (den // x.denominator) for x in fr]


def _integer_row(row):
    """Row of Fraction-coercible values scaled to a primitive integer row."""
    return _primitive(_cleared(row)[1])


def _eliminate(m, ncols):
    """Fraction-free Gauss-Jordan elimination of the integer rows m in
    place; returns the pivot columns.  The pivot of each column is the
    first row at or below the current rank with a nonzero entry there,
    and it clears its column in every other row."""
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        p = prow[col]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = _primitive([p * a - f * b for a, b in zip(m[r], prow)])
        pivots.append(col)
    return pivots


def mat_reduce(rows, ncols=None):
    """Reduced row echelon form with pivot bookkeeping and kernel basis.

    rows: list of rows (lists of Fraction-coercible values).  ncols must be
    given when rows is empty.
    """
    m = [_integer_row(row) for row in rows]
    if ncols is None:
        if not m:
            raise ValueError('ncols required for an empty matrix')
        ncols = len(m[0])
    for row in m:
        if len(row) != ncols:
            raise ValueError('ragged matrix')
    pivots = _eliminate(m, ncols)
    rank = len(pivots)
    zero = Fraction(0)
    rref = []
    for row, pc in zip(m, pivots):
        p = row[pc]
        rref.append([Fraction(x, p) if x else zero for x in row])
    free = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        kernel.append(vec)
    return ReducedMatrix(rank, pivots, rref, kernel)


class SolveResult:

    def __init__(self, solution, kernel):
        self.solution = solution      # None when inconsistent
        self.kernel = kernel

    @property
    def consistent(self):
        return self.solution is not None

    @property
    def unique(self):
        return self.solution is not None and not self.kernel


def lin_solve(rows, rhs, ncols=None):
    """Solve m x = rhs exactly.

    Returns a SolveResult with one solution (or None if inconsistent) and a
    kernel basis.  The solution is verified by exact back-substitution,
    run on the rows and the solution cleared of denominators.
    """
    rows = [list(row) for row in rows]
    rhs = [Fraction(x) for x in rhs]
    if len(rhs) != len(rows):
        raise ValueError('rhs length does not match row count')
    if ncols is None:
        if not rows:
            raise ValueError('ncols required for an empty matrix')
        ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red = mat_reduce(aug, ncols + 1)
    if ncols in red.pivots:
        return SolveResult(None, mat_reduce(rows, ncols).kernel)
    sol = [Fraction(0)] * ncols
    for r, pc in enumerate(red.pivots):
        sol[pc] = red.rref[r][ncols]
    # On ints: row . sol == b  iff  (rden row) . (sden sol) == b rden sden.
    sden, snum = _cleared(sol)
    for row, b in zip(rows, rhs):
        rden, rnum = _cleared(row)
        if sum(a * s for a, s in zip(rnum, snum)) != b * (rden * sden):
            raise AssertionError('back-substitution check failed')
    kernel = [vec[:ncols] for vec in red.kernel if vec[ncols] == 0]
    return SolveResult(sol, kernel)


# ---------------------------------------------------------------------------
# Dict-keyed vectors.  Much of the library works with sparse vectors keyed by
# monomials or operator terms; these helpers translate to dense matrices.

def _key_index(vectors):
    keys = sorted({k for v in vectors for k in v})
    return keys, {k: i for i, k in enumerate(keys)}


def dict_vectors_rank(vectors):
    """Rank of the span, read from a Span grown by the vectors."""
    span = Span()
    for v in vectors:
        span.add(v)
    return span.rank


class Span:
    """The span of the dict vectors added so far, as an echelon of
    primitive integer dict rows keyed by their pivot, the smallest key of
    the row.  Keys must be mutually comparable."""

    def __init__(self):
        self._rows = {}

    @property
    def rank(self):
        return len(self._rows)

    def add(self, v):
        """Reduce the dict vector v against the kept rows; keep what is
        left and return True when v is outside the span, else False."""
        row = {k: c for k, c in zip(v, _cleared(v.values())[1]) if c}
        if not row:
            return False
        rows = self._rows
        while True:
            g = gcd(*row.values())
            if g > 1:
                for k in row:
                    row[k] //= g
            p = min(row)
            prow = rows.get(p)
            if prow is None:
                rows[p] = row
                return True
            a, b = prow[p], row[p]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, c in prow.items():
                x = row.get(k, 0) - b * c
                if x:
                    row[k] = x
                else:
                    del row[k]
            if not row:
                return False


def dict_vectors_basis(vectors):
    """Subset of the input vectors forming a basis of their span
    (greedy, in input order)."""
    span = Span()
    return [v for v in vectors if v and span.add(v)]


def _column_rows(columns):
    """Dense rows of the matrix whose j-th column is the dict vector
    columns[j]: one row per key, in sorted key order."""
    keys, idx = _key_index(columns)
    rows = [[0] * len(columns) for _ in keys]
    for j, v in enumerate(columns):
        for k, c in v.items():
            rows[idx[k]][j] = c
    return rows


def dict_columns_kernel(columns):
    """Kernel basis of the matrix whose columns are the dict vectors, as
    dense coefficient lists: every unit vector when no key occurs."""
    rows = _column_rows(columns)
    if not rows:
        return [[Fraction(int(t == s)) for t in range(len(columns))]
                for s in range(len(columns))]
    return mat_reduce(rows, len(columns)).kernel


def solve_in_span(vectors, target):
    """Coefficients c with sum c_i vectors_i = target, or None."""
    n = len(vectors)
    rows = _column_rows(list(vectors) + [target])
    if not rows:
        return [Fraction(0)] * n
    return lin_solve([row[:n] for row in rows], [row[n] for row in rows],
                     n).solution
