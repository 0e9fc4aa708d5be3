"""Exact linear algebra over the rationals, on one elimination engine.

Span grows an echelon one dict vector at a time.  Each kept row is a
primitive integer dict (cleared of denominators, divided by the gcd of
its entries) pivoted on its smallest key.  A new vector is reduced
against the kept rows pivot by pivot by cross-multiplication, so no
Fraction is formed; a vector that survives is outside the span and is
kept.  dict_vectors_rank, dict_vectors_basis and the Span users in
weyl grow a plain Span by Span.add, the only entry point whose keys
must be mutually comparable.

Every solve, kernel and reduced row echelon form (RREF) is read from one
tagged column reduction, _relations.  It reduces the columns of a matrix
in order on one Span, each with a unit tag key of its own that sorts
after every real key.  A column that keeps a real key is a pivot: it is
outside the span of the columns before it.  Any other column reduces to
tags only, and its tags give its coefficients over the earlier pivot
columns: its RREF column and, with the signs flipped, its kernel vector.
The RREF is unique, so mat_reduce and dict_columns_kernel equal
Gauss-Jordan elimination over Fractions.  solve_in_span appends its
target as a last column and reads the target's relation; lin_solve
reads one solution per right-hand side from the RREF of
[m | b_1 ... b_k] (through mat_reduce).  Both check every solution by
one back-substitution on ints, _check, a lincomb of the columns.
"""

from fractions import Fraction
from math import gcd

from .multipoly import _clear, lincomb


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
    the row.  Only Span.add needs mutually comparable keys: _relations
    renumbers its keys as ints."""

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
        row = _clear(v.items())[1]
        p = self._residue(row)
        if p is None:
            return False
        self._keep(row, p)
        return True


def _relations(cleared):
    """The relations among the columns v_j = ints_j / den_j of a matrix,
    given cleared as (den_j, ints_j) with ints_j keyed by row: None for a
    pivot column, outside the span of the columns before it, and for
    every other column the dict {i: c_i} with v_j = sum c_i v_i over the
    earlier pivot columns i, which is its column of the RREF.

    The keys are renumbered 0 ... n-1 on entry, and column j is reduced
    as ints_j plus den_j at its tag key n + j.  A reduced row is then a
    combination sum_i t_i (v_i + e_(n+i)) of the columns with the tags
    t_i as coefficients, so a column that reduces to tags only gives
    sum_i t_i v_i = 0.  Only pivot columns are kept, so those tags lie
    on the pivot columns before it and its own."""
    index = {}
    for _, ints in cleared:
        for k in ints:
            index.setdefault(k, len(index))
    n = len(index)
    span = Span()
    out = []
    for j, (den, ints) in enumerate(cleared):
        row = {index[k]: c for k, c in ints.items()}
        row[n + j] = den
        p = span._residue(row)
        if p < n:
            span._keep(row, p)
            out.append(None)
        else:
            s = row.pop(n + j)
            out.append({t - n: Fraction(-x, s) for t, x in row.items()})
    return out


def _kernel(relations):
    """Kernel basis of the matrix of the column relations, one dense
    vector per non-pivot column j: 1 at j, minus its coefficients at the
    pivot columns."""
    kernel = []
    for j, rel in enumerate(relations):
        if rel is not None:
            vec = [Fraction(0)] * len(relations)
            vec[j] = Fraction(1)
            for i, c in rel.items():
                vec[i] = -c
            kernel.append(vec)
    return kernel


def _check(cleared, coeffs, target):
    """Raise AssertionError unless sum_i coeffs_i v_i - t, for the columns
    v_i and the target t given cleared as (den, ints), is zero: one
    lincomb on ints."""
    if lincomb([*zip(coeffs, cleared), (-1, target)])[1]:
        raise AssertionError('back-substitution check failed')


class ReducedMatrix:
    """Result bundle of mat_reduce: rank, pivot columns, RREF, kernel
    basis and the cleared (den, ints) columns it reduced."""

    def __init__(self, rank, pivots, rref, kernel, columns):
        self.rank = rank
        self.pivots = pivots
        self.rref = rref
        self.kernel = kernel
        self.columns = columns


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
    ncols = _width(rows, ncols)
    # the columns, cleared and keyed by row
    columns = ([_clear(enumerate(col)) for col in zip(*rows)] if rows
               else [(1, {})] * ncols)
    relations = _relations(columns)
    pivots = [j for j, rel in enumerate(relations) if rel is None]
    at = {p: r for r, p in enumerate(pivots)}
    rref = [[Fraction(0)] * ncols for _ in pivots]
    for j, rel in enumerate(relations):
        if rel is None:
            rref[at[j]][j] = Fraction(1)
        else:
            for i, c in rel.items():
                rref[at[i]][j] = c
    return ReducedMatrix(len(pivots), pivots, rref, _kernel(relations),
                         columns)


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
    """Solve m x = b exactly, for one right-hand side b or for each of a
    list of columns b_1 ... b_k at once, from one reduction of
    [m | b_1 ... b_k].

    rhs is one column (a list of len(rows) values) or a list of such
    columns; an empty rhs is an empty list of columns, answered by [].
    For one column the answer is a SolveResult with one solution (None if
    inconsistent) and a kernel basis of m; for a list of columns it is a
    list of SolveResults, one per column, sharing that kernel.

    Row operations keep the relations between columns, so b_j lies in the
    column span of m exactly when it is zero in every RREF row pivoted at
    a column of b, and then its solution holds its entries at the pivots
    of m.  Every solution is checked by back-substitution on the cleared
    columns that mat_reduce reduced."""
    rows, rhs = list(rows), list(rhs)
    single = bool(rhs) and not isinstance(rhs[0], (list, tuple))
    columns = [rhs] if single else [list(b) for b in rhs]
    if any(len(b) != len(rows) for b in columns):
        raise ValueError('rhs length does not match row count')
    ncols = _width(rows, ncols)
    if not columns:
        return []
    aug = [[*row, *bs] for row, bs in zip(rows, zip(*columns))]
    red = mat_reduce(aug, ncols + len(columns))
    inner = [(p, row) for p, row in zip(red.pivots, red.rref) if p < ncols]
    outer = [row for p, row in zip(red.pivots, red.rref) if p >= ncols]
    # The kernel of m: the vectors of the free columns of m, which are
    # zero on every column of b.
    kernel = [vec[:ncols] for vec in red.kernel if not any(vec[ncols:])]
    cleared = red.columns[:ncols]
    results = []
    for c in range(ncols, len(red.columns)):
        sol = None
        if not any(row[c] for row in outer):
            sol = [Fraction(0)] * ncols
            for p, row in inner:
                sol[p] = row[c]
            _check(cleared, sol, red.columns[c])
        results.append(SolveResult(sol, kernel))
    return results[0] if single else results


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


def _stacked(blocks):
    """The cleared (den, ints) column stacking cleared blocks, the keys of
    the i-th block tagged (i, key): one lincomb of the blocks."""
    return lincomb((1, (den, {(i, k): v for k, v in ints.items()}))
                   for i, (den, ints) in enumerate(blocks))


def dict_columns_kernel(columns):
    """Kernel basis of the matrix whose columns are the dict vectors given
    cleared as (den, ints), as dense coefficient lists."""
    return _kernel(_relations(columns))


def solve_in_span(vectors, target):
    """Coefficients c with sum c_i vectors_i = target, or None.

    The target is the last column after the vectors: it is in their span
    exactly when it is not a pivot column, and its relation gives the
    coefficients, 0 at every non-pivot vector.  The answer is the reduced
    row echelon solution of [vectors | target] with free coefficients 0,
    checked by back-substitution on ints."""
    cleared = [_clear(v.items()) for v in vectors]
    tcleared = _clear(target.items())
    rel = _relations(cleared + [tcleared])[-1]
    if rel is None:
        return None
    sol = [rel.get(i, Fraction(0)) for i in range(len(vectors))]
    _check(cleared, sol, tcleared)
    return sol
