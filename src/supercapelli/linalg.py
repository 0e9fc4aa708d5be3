"""Exact linear algebra over the rationals, on one elimination engine.

Span grows an echelon one dict vector at a time.  Each kept row is a
primitive integer dict (cleared of denominators, divided by the gcd of
its entries) pivoted on its smallest key.  A new vector is reduced
against the kept rows pivot by pivot by cross-multiplication, so no
Fraction is formed; a vector that survives is outside the span and is
kept.  Span.reduce clears each pivot column in the other rows by the
same step, which leaves each row a multiple of a row of the reduced row
echelon form (RREF).

mat_reduce and dict_columns_kernel add the rows of a matrix to a Span as
dicts of their nonzero entries and read rank, pivots, RREF and kernel
from the back-reduced rows.  The RREF is unique, so these equal
Gauss-Jordan elimination over Fractions whatever the order of the rows.
lin_solve reduces [m | b] the same way (through mat_reduce), or
[m | b_1 ... b_k] for several right-hand sides at once, and reads one
solution per column from the one RREF.
solve_in_span reduces its few vectors as rows instead, each marked by a
unit tag key that sorts after every real key, so the tags of a reduced
row record its combination; its answer is the RREF solution with free
coefficients 0.  Both check the answer by back-substitution on every
call.
"""

from fractions import Fraction
from math import gcd, lcm


def _cleared(row):
    """(den, ints): the lcm of the denominators of a row of
    Fraction-coercible values, and the row times it."""
    fr = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in fr))
    return den, [x.numerator * (den // x.denominator) for x in fr]


def _divide_content(row):
    """Divide the integer dict row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def _cancel(row, prow, p):
    """Cancel the entry of the integer dict row at the pivot p of the kept
    row prow, in place: row <- (a/g) row - (b/g) prow, with a, b the two
    entries at p and g their gcd."""
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


class Span:
    """The span of the dict vectors added so far, as an echelon of
    primitive integer dict rows keyed by their pivot, the smallest key of
    the row.  Keys must be mutually comparable."""

    def __init__(self):
        self._rows = {}

    @property
    def rank(self):
        return len(self._rows)

    def _residue(self, row):
        """Reduce the integer dict row in place until no kept row is
        pivoted at its smallest key, and return that key (None when the
        row reduces to zero, that is, lies in the span)."""
        rows = self._rows
        while row:
            p = min(row)
            prow = rows.get(p)
            if prow is None:
                return p
            _cancel(row, prow, p)
        return None

    def _keep(self, row, p):
        """Keep the reduced integer dict row, divided by its content, at
        its pivot p."""
        _divide_content(row)
        self._rows[p] = row

    def add(self, v):
        """Reduce the dict vector v against the kept rows; keep what is
        left and return True when v is outside the span, else False."""
        row = {k: c for k, c in zip(v, _cleared(v.values())[1]) if c}
        p = self._residue(row)
        if p is None:
            return False
        self._keep(row, p)
        return True

    def reduce(self):
        """Back-reduce the kept rows in place, from the largest pivot
        down: each row is cleared at the pivots of the rows after it,
        which are reduced already, and divided by its content.  Every
        pivot column is then zero in every other row.  Return the
        (pivot, row) pairs in pivot order."""
        rows = self._rows
        pivots = sorted(rows)
        for i in range(len(pivots) - 2, -1, -1):
            row = rows[pivots[i]]
            for p in pivots[i + 1:]:
                if p in row:
                    _cancel(row, rows[p], p)
            _divide_content(row)
        return [(p, rows[p]) for p in pivots]


class ReducedMatrix:
    """Result bundle of mat_reduce: rank, pivot columns, RREF, kernel basis."""

    def __init__(self, rank, pivots, rref, kernel):
        self.rank = rank
        self.pivots = pivots
        self.rref = rref
        self.kernel = kernel


def _reduce_rows(rows, ncols):
    """ReducedMatrix (RREF and kernel as dense Fraction lists) of the dict
    rows keyed by the columns 0..ncols-1, read from a Span grown by them
    and back-reduced: the RREF entry f at a free column k of the row
    pivoted at p puts -f at p in the kernel vector of k."""
    span = Span()
    for row in rows:
        span.add(row)
    zero = Fraction(0)
    reduced = span.reduce()
    pivots = [p for p, _ in reduced]
    kernel = {}
    for c in sorted(set(range(ncols)).difference(pivots)):
        kernel[c] = vec = [zero] * ncols
        vec[c] = Fraction(1)
    rref = []
    for p, row in reduced:
        a = row[p]
        dense = [zero] * ncols
        for k, x in row.items():
            dense[k] = f = Fraction(x, a)
            if k != p:
                kernel[k][p] = -f
        rref.append(dense)
    return ReducedMatrix(len(pivots), pivots, rref, list(kernel.values()))


def _row_dict(row):
    """The nonzero entries of a row, keyed by column."""
    return {j: x for j, x in enumerate(row) if x}


def _width(rows, ncols):
    """ncols, or the first row's length if None; every row must have it."""
    if ncols is None:
        if not rows:
            raise ValueError('ncols required for an empty matrix')
        ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError('ragged matrix')
    return ncols


def mat_reduce(rows, ncols=None):
    """Reduced row echelon form with pivot bookkeeping and kernel basis.

    rows: iterable of rows (lists of Fraction-coercible values).  ncols
    must be given when rows is empty.
    """
    rows = list(rows)
    return _reduce_rows(map(_row_dict, rows), _width(rows, ncols))


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


def _solutions(red, rows, ncols, nrhs):
    """The x_j with m x_j = b_j read from the ReducedMatrix red of
    [m | b_1 ... b_k], or None for each b_j outside the column span of m.

    Row operations keep the relations between columns, so b_j is the sum
    over the RREF rows of its entry times the row's pivot column: it lies
    in the span of m exactly when it is zero in every row pivoted at a
    column of b, and then x_j holds its entries at the pivots of m.  Each
    x_j is checked by back-substitution on rows, the rows of
    [m | b_1 ... b_k] as dicts, cleared of denominators."""
    inner = [(p, row) for p, row in zip(red.pivots, red.rref) if p < ncols]
    outer = [row for p, row in zip(red.pivots, red.rref) if p >= ncols]
    cleared = []
    for row in rows:
        ints = dict(zip(row, _cleared(row.values())[1]))
        cleared.append(([(k, a) for k, a in ints.items() if k < ncols],
                        ints))
    out = []
    for c in range(ncols, ncols + nrhs):
        if any(row[c] for row in outer):
            out.append(None)
            continue
        sol = [Fraction(0)] * ncols
        for p, row in inner:
            sol[p] = row[c]
        # On ints: row . sol == b_j  iff  (rden row) . (sden sol)
        # == sden (rden b_j).
        sden, snum = _cleared(sol)
        for mpart, ints in cleared:
            if sum(a * snum[k] for k, a in mpart) != sden * ints.get(c, 0):
                raise AssertionError('back-substitution check failed')
        out.append(sol)
    return out


def lin_solve(rows, rhs, ncols=None):
    """Solve m x = b exactly, for one right-hand side b or for each of a
    list of columns b_1 ... b_k at once, from one reduction of
    [m | b_1 ... b_k].

    rhs is one column (a list of len(rows) values) or a list of such
    columns.  For one column the answer is a SolveResult with one
    solution (None if inconsistent) and a kernel basis of m; for a list
    of columns it is a list of SolveResults, one per column, sharing that
    kernel.  Every solution is checked by back-substitution."""
    rows, rhs = list(rows), list(rhs)
    single = not (rhs and isinstance(rhs[0], (list, tuple)))
    columns = [rhs] if single else [list(b) for b in rhs]
    if any(len(b) != len(rows) for b in columns):
        raise ValueError('rhs length does not match row count')
    ncols = _width(rows, ncols)
    aug = [[*row, *bs] for row, bs in zip(rows, zip(*columns))]
    red = mat_reduce(aug, ncols + len(columns))
    sols = _solutions(red, map(_row_dict, aug), ncols, len(columns))
    # The kernel of m: the vectors of the free columns of m, which are
    # zero on every column of b.
    kernel = [vec[:ncols] for vec in red.kernel if not any(vec[ncols:])]
    if single:
        return SolveResult(sols[0], kernel)
    return [SolveResult(sol, kernel) for sol in sols]


# ---------------------------------------------------------------------------
# Dict-keyed vectors.  Much of the library works with sparse vectors keyed by
# monomials or operator terms; these helpers reduce them on a Span.

def dict_vectors_rank(vectors):
    """Rank of the span, read from a Span grown by the vectors."""
    span = Span()
    for v in vectors:
        span.add(v)
    return span.rank


def dict_vectors_basis(vectors):
    """Subset of the input vectors forming a basis of their span
    (greedy, in input order)."""
    span = Span()
    return [v for v in vectors if v and span.add(v)]


def _column_rows(columns):
    """The rows of the matrix whose j-th column is the dict vector
    columns[j], as {j: value} dicts, one per key in no fixed order (the
    order changes no reduced row echelon form)."""
    rows = {}
    for j, v in enumerate(columns):
        for k, c in v.items():
            rows.setdefault(k, {})[j] = c
    return list(rows.values())


def dict_columns_kernel(columns):
    """Kernel basis of the matrix whose columns are the dict vectors, as
    dense coefficient lists."""
    return _reduce_rows(_column_rows(columns), len(columns)).kernel


class _Tag:
    """A key that sorts after every key that is not a _Tag, and after
    the tags of lower index: solve_in_span marks each of its rows with
    one, so the tags of a reduced row record its combination."""

    __slots__ = ('index',)

    def __init__(self, index):
        self.index = index

    def __lt__(self, other):
        return isinstance(other, _Tag) and self.index < other.index

    def __gt__(self, other):
        return not isinstance(other, _Tag) or self.index > other.index


def _tagged(v, tag):
    """(den, ints, row): the dict vector v cleared of denominators, and
    the row of v plus the unit tag, times den."""
    den, ints = _cleared(v.values())
    ints = {k: c for k, c in zip(v, ints) if c}
    row = dict(ints)
    row[tag] = den
    return den, ints, row


def solve_in_span(vectors, target):
    """Coefficients c with sum c_i vectors_i = target, or None.

    The vectors, each with its tag, are reduced in order on a Span and
    kept when they leave a real key: a vector that reduces to tags only
    lies in the span of those before it and gets coefficient 0.  The
    target, with the last tag, then reduces to tags only exactly when it
    lies in the span, and its tags give the coefficients.  The answer is
    the reduced row echelon solution of [vectors | target] with free
    coefficients 0, checked by back-substitution on ints."""
    n = len(vectors)
    tags = [_Tag(i) for i in range(n + 1)]
    span = Span()
    cleared = []
    for v, tag in zip(vectors, tags):
        den, ints, row = _tagged(v, tag)
        cleared.append((den, ints))
        p = span._residue(row)
        if type(p) is not _Tag:
            span._keep(row, p)
    tden, tints, row = _tagged(target, tags[n])
    if type(span._residue(row)) is not _Tag:
        return None
    s = row[tags[n]]
    sol = [Fraction(-row.get(tag, 0), s) for tag in tags[:n]]
    # On ints: sum_i sol_i ints_i / den_i == tints / tden, times
    # sden * lcm(den_i, tden), with sol = snum / sden.
    sden, snum = _cleared(sol)
    dens = lcm(tden, *(den for den, _ in cleared))
    total = {k: -sden * (dens // tden) * c for k, c in tints.items()}
    for x, (den, ints) in zip(snum, cleared):
        if x:
            x *= dens // den
            for k, c in ints.items():
                total[k] = total.get(k, 0) + x * c
    if any(total.values()):
        raise AssertionError('back-substitution check failed')
    return sol
