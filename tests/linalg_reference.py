"""Gauss-Jordan elimination over Fractions, written out in the tests: the
references that the linalg results are compared with.  Nothing here
calls supercapelli.linalg, so the comparison does not share its engine."""

from fractions import Fraction


def _kernel(pivots, rref, ncols):
    kernel = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        kernel.append(vec)
    return kernel


def reference_reduce(rows, ncols):
    """(rank, pivots, rref, kernel) by Gauss-Jordan elimination on dense
    Fraction rows, pivoting on the first nonzero entry."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    pivots = []
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    rref = m[:rank]
    return rank, pivots, rref, _kernel(pivots, rref, ncols)


def sparse_reference_reduce(rows, ncols):
    """reference_reduce on rows given as {column: value} dicts over the
    columns 0..ncols-1: the same Gauss-Jordan elimination over Fractions,
    pivoting on the first remaining row with a nonzero entry, for systems
    too large for dense Fraction rows."""
    m = [{j: Fraction(x) for j, x in row.items() if x} for row in rows]
    pivots, prows = [], []
    for col in range(ncols):
        piv = next((r for r, row in enumerate(m) if col in row), None)
        if piv is None:
            continue
        inv = 1 / m[piv][col]
        prow = {j: x * inv for j, x in m.pop(piv).items()}
        for row in m + prows:
            f = row.get(col)
            if f:
                for j, x in prow.items():
                    y = row.get(j, 0) - f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
        pivots.append(col)
        prows.append(prow)
    zero = Fraction(0)
    rref = [[row.get(j, zero) for j in range(ncols)] for row in prows]
    return len(pivots), pivots, rref, _kernel(pivots, rref, ncols)


def reference_rank(vectors):
    """Rank of dict vectors with any hashable keys: sparse_reference_reduce
    of the vectors as rows, each key a column in first-seen order."""
    column = {k: j for j, k in
              enumerate(dict.fromkeys(k for v in vectors for k in v))}
    rows = [{column[k]: x for k, x in v.items()} for v in vectors]
    return sparse_reference_reduce(rows, len(column))[0]


def dense_transposition(columns):
    """The matrix whose j-th column is the dict vector columns[j], as
    dense rows over the sorted keys."""
    keys = sorted({k for v in columns for k in v})
    return [[v.get(k, 0) for v in columns] for k in keys]


def reference_solve_in_span(vectors, target):
    """The coefficients c with sum c_i vectors_i = target read from the
    reduced row echelon form of the dense transposition of the vectors
    with the target as last column (free coefficients 0), or None."""
    n = len(vectors)
    _, pivots, rref, _ = reference_reduce(
        dense_transposition(list(vectors) + [target]), n + 1)
    if n in pivots:
        return None
    sol = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        sol[pc] = rref[r][n]
    return sol
