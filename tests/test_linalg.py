import random
from fractions import Fraction

import pytest

from supercapelli import hooks, linalg, solver, weyl
from supercapelli.linalg import (Span, mat_reduce, lin_solve,
                                 dict_vectors_rank, dict_vectors_basis,
                                 dict_columns_kernel, solve_in_span)
from supercapelli.multipoly import _clear
from supercapelli.superlie import Ambient
from supercapelli.weyl import (capelli_operator, invariant_kernel,
                               invariant_spanning_set, invariant_symbol_space)

from linalg_reference import (dense_transposition, reference_rank,
                              reference_reduce, reference_solve_in_span,
                              sparse_reference_reduce)


def matvec(rows, vec):
    return [sum((Fraction(a) * x for a, x in zip(row, vec)), Fraction(0))
            for row in rows]


def assert_matches_reference(rows, ncols):
    red = mat_reduce(rows, ncols)
    assert (red.rank, red.pivots, red.rref, red.kernel) \
        == reference_reduce(rows, ncols)
    for row in red.rref + red.kernel:
        assert all(type(x) is Fraction for x in row)


def random_entry(rng):
    num = rng.randrange(-6, 7)
    den = rng.randrange(1, 5)
    return Fraction(num, den) if den > 1 or rng.random() < 0.5 else num


def random_matrices():
    """2 400 seeded random (rows, ncols), with zero rows and rows that
    combine two earlier ones."""
    rng = random.Random(2024)
    for _ in range(2400):
        nr, nc = rng.randrange(0, 10), rng.randrange(1, 10)
        rows = [[random_entry(rng) if rng.random() < 0.7 else 0
                 for _ in range(nc)] for _ in range(nr)]
        for r in range(nr):
            kind = rng.random()
            if kind < 0.1:
                rows[r] = [0] * nc
            elif kind < 0.3 and r >= 2:
                # A combination of two earlier rows.
                a, b = rng.sample(range(r), 2)
                fa, fb = random_entry(rng), random_entry(rng)
                rows[r] = [fa * x + fb * y for x, y in zip(rows[a], rows[b])]
        yield rows, nc


def test_mat_reduce_equals_fraction_gauss_jordan():
    for rows, nc in random_matrices():
        assert_matches_reference(rows, nc)


def test_dict_vectors_rank_equals_mat_reduce_rank():
    count = 0
    for rows, nc in random_matrices():
        vectors = [{j: x for j, x in enumerate(row) if x} for row in rows]
        assert dict_vectors_rank(vectors) == reference_rank(vectors) \
            == mat_reduce(rows, nc).rank
        count += 1
    assert count == 2400


def reference_vectors_basis(vectors):
    """The greedy basis by re-ranking the whole kept family plus each
    candidate with reference_rank."""
    basis = []
    for v in vectors:
        if v and reference_rank(basis + [v]) > len(basis):
            basis.append(v)
    return basis


def test_span_rank_equals_dict_vectors_rank_on_every_prefix():
    count = grew = 0
    for rows, _ in random_matrices():
        vectors = [{j: x for j, x in enumerate(row) if x} for row in rows]
        span = Span()
        for t, v in enumerate(vectors):
            before = span.rank
            added = span.add(v)
            assert span.rank == reference_rank(vectors[:t + 1]) \
                == dict_vectors_rank(vectors[:t + 1])
            assert added == (span.rank > before)
            grew += added
        assert dict_vectors_basis(vectors) == reference_vectors_basis(vectors)
        count += 1
    assert count == 2400
    assert grew > 0


@pytest.mark.parametrize('mn,dmax', [((1, 1), 4), ((2, 1), 3), ((1, 2), 3),
                                     ((2, 2), 3)])
def test_dict_vectors_basis_on_invariant_spanning_sets(mn, dmax):
    """The basis step of invariant_symbol_space."""
    amb = Ambient(*mn)
    for d in range(1, dmax + 1):
        vecs = [t.terms for _, t in invariant_spanning_set(amb, d)]
        assert dict_vectors_basis(vecs) == reference_vectors_basis(vecs)


def test_span_ignores_zero_entries_and_takes_any_coefficient_type():
    span = Span()
    assert not span.add({})
    assert not span.add({'a': 0, 'b': Fraction(0), 'c': '0'})
    assert span.add({'a': '1/2', 'b': '0', 'c': 3})
    assert not span.add({'a': Fraction(1, 6), 'c': 1})
    assert span.add({'c': Fraction(-2, 3)})
    assert not span.add({'a': 1})
    assert span.rank == 2


def test_dict_columns_kernel_equals_reference_kernel():
    # keyed by a shuffled row order: the RREF, hence the kernel, is unique
    rng = random.Random(11)
    for rows, nc in random_matrices():
        label = list(range(len(rows)))
        rng.shuffle(label)
        columns = [_clear((label[i], row[j]) for i, row in enumerate(rows))
                   for j in range(nc)]
        assert dict_columns_kernel(columns) == reference_reduce(rows, nc)[3]
    assert dict_columns_kernel([(1, {}), (1, {})]) == [[1, 0], [0, 1]]
    assert dict_columns_kernel([]) == []


def assert_solves_as_reference(vectors, target):
    got = solve_in_span(vectors, target)
    assert got == reference_solve_in_span(vectors, target)
    if got is not None:
        assert all(type(x) is Fraction for x in got)
        total = {}
        for c, v in zip(got, vectors):
            for k, x in v.items():
                total[k] = total.get(k, 0) + c * x
        assert {k: x for k, x in total.items() if x} == \
            {k: x for k, x in target.items() if x}
    return got


def test_solve_in_span_equals_reference():
    # the columns of each random matrix, keyed by a shuffled row order,
    # against a combination of them and against a random target
    rng = random.Random(5)
    inside = outside = 0
    for rows, nc in random_matrices():
        label = list(range(len(rows)))
        rng.shuffle(label)
        vectors = [{label[i]: row[j] for i, row in enumerate(rows) if row[j]}
                   for j in range(nc)]
        combo = {}
        for v in vectors:
            c = random_entry(rng)
            for k, x in v.items():
                combo[k] = combo.get(k, 0) + c * x
        assert assert_solves_as_reference(vectors, combo) is not None
        other = {label[i]: random_entry(rng) for i in range(len(rows))}
        if assert_solves_as_reference(vectors, other) is None:
            outside += 1
        else:
            inside += 1
    assert inside > 100 and outside > 100


def test_solve_in_span_edge_cases_equal_reference():
    v = {'a': Fraction(1, 2), 'b': 3}
    w = {'b': Fraction(2, 3), 'c': -1}
    targets = ({'a': 1, 'b': 6}, {'a': 2, 'b': Fraction(20, 3), 'c': -1},
               {'a': 0}, {}, {'d': 1})
    # a repeated and a zero column are free: coefficient 0
    for vectors in ([v, v], [{}, v], [v, {}, w], [v, w, v], [w, {}, v, w]):
        for target in targets:
            assert_solves_as_reference(vectors, target)
    assert solve_in_span([v, v], v) == [1, 0]
    assert solve_in_span([{}, v, w, v], w) == [0, 0, 1, 0]
    # no vectors: only the zero target is in their span
    assert solve_in_span([], {}) == []
    assert solve_in_span([], {'a': 0}) == []
    assert solve_in_span([], {'a': 1}) is None
    for target in targets:
        assert_solves_as_reference([], target)
    # int-valued vectors and target
    ints = [{0: 2, 1: 4}, {1: 3, 2: 6}, {0: 4, 1: 11, 2: 6}]
    assert assert_solves_as_reference(ints[:2], ints[2]) == [2, 1]
    assert assert_solves_as_reference(ints[:2], {0: 1}) is None
    big = {0: 2 * 3 ** 40, 1: 4 * 3 ** 40 + 3 * 5 ** 30, 2: 6 * 5 ** 30}
    assert assert_solves_as_reference(ints, big) == [3 ** 40, 5 ** 30, 0]


def test_solve_in_span_equals_reference_on_preimage_systems(monkeypatch):
    """The symbol systems full_preimage peels at (2,1) d<=4 and
    (1,2) d<=3."""
    systems = []
    real_solve = solver.solve_in_span

    def recording_solve(vectors, target):
        systems.append(([dict(v) for v in vectors], dict(target)))
        return real_solve(vectors, target)

    monkeypatch.setattr(solver, 'solve_in_span', recording_solve)
    for (m, n), dmax in (((2, 1), 4), ((1, 2), 3)):
        params = hooks.HookParams(m, n, 'half')
        for d in range(1, dmax + 1):
            inv = invariant_symbol_space(Ambient(m, 2 * n), d, verify=False)
            for b in hooks.enumerate_hooks(params, d):
                solver.full_preimage(capelli_operator(params, b, inv),
                                     check_invariant=False)
    assert len(systems) == 48
    for vectors, target in systems:
        assert assert_solves_as_reference(vectors, target) is not None


def test_sparse_reference_reduce_equals_reference_reduce():
    for rows, nc in random_matrices():
        sparse = [dict(enumerate(row)) for row in rows]
        assert sparse_reference_reduce(sparse, nc) == reference_reduce(rows, nc)


def test_dict_columns_kernel_equals_reference_on_invariant_kernel(
        monkeypatch):
    """The commutator system invariant_kernel builds at gl(2|2), d=3:
    218 columns over 1 656 keys."""
    systems = []
    real_kernel = weyl.dict_columns_kernel

    def recording_kernel(columns):
        systems.append(list(columns))
        return real_kernel(columns)

    monkeypatch.setattr(weyl, 'dict_columns_kernel', recording_kernel)
    assert len(invariant_kernel(Ambient(2, 2), 3)) == 3
    (cleared,) = systems
    assert len(cleared) == 218
    kernel = dict_columns_kernel(cleared)
    columns = [{k: Fraction(v, den) for k, v in ints.items()}
               for den, ints in cleared]
    rows = [dict(enumerate(row)) for row in dense_transposition(columns)]
    assert kernel == sparse_reference_reduce(rows, 218)[3]
    assert all(type(x) is Fraction for vec in kernel for x in vec)


def test_dict_vectors_rank_on_filtered_product_families(monkeypatch):
    """The families _filtered_products ranks at (2,1), d=6, for the
    interpolation basis and both shifted super Jack bases: at each size s,
    the cleared degree-s parts of the products of size s kept so far,
    with one candidate's appended."""
    families = []
    real_rank = solver.dict_vectors_rank

    def recording_rank(vectors):
        families.append([dict(v) for v in vectors])
        return real_rank(vectors)

    monkeypatch.setattr(solver, 'dict_vectors_rank', recording_rank)
    half = hooks.HookParams(2, 1, 'half')
    solver.ia_star_basis(half, 6)
    solver.sp_basis(half, 6)
    solver.sp_basis(hooks.HookParams(2, 1, 'one'), 6)
    assert len(families) == 87
    ranks = [real_rank(v) for v in families]
    assert ranks == [reference_rank(v) for v in families]
    assert sum(r == len(v) for r, v in zip(ranks, families)) == 84


def test_mat_reduce_equals_reference_on_interpolation_systems(monkeypatch):
    """The augmented systems [m | B] the interpolation bases solve at
    (2,1), d=6: the node rows m and the unit column of every node of size
    6, one system per basis.  Fresh Weyl contexts, so a bases table that
    an earlier test filled does not skip the solves."""
    monkeypatch.setattr(weyl, '_ctx_cache', {})
    systems = []
    real_solve = solver.lin_solve

    def recording_solve(rows, rhs, ncols=None):
        rows = [list(row) for row in rows]
        systems.append(([row + list(bs) for row, bs in zip(rows, zip(*rhs))],
                        ncols + len(rhs)))
        return real_solve(rows, rhs, ncols)

    monkeypatch.setattr(solver, 'lin_solve', recording_solve)
    d = 6
    half = hooks.HookParams(2, 1, 'half')
    one = hooks.HookParams(2, 1, 'one')
    top = hooks.enumerate_hooks(half, d)
    b = top[len(top) // 2]
    solver.c_poly_interp(half, b)
    solver.sp_star(half, b)
    solver.sp_star(one, hooks.parse_partition(str(b), one))
    assert len(top) == 10
    assert len(systems) == 3
    for rows, ncols in systems:
        assert len(rows) == 29 and ncols == 29 + 10
        assert sorted(sum(row[29:]) for row in rows) == [0] * 19 + [1] * 10
        assert_matches_reference(rows, ncols)


def reference_solution(rows, b, ncols):
    """The RREF solution of m x = b (free coordinates 0) read from
    reference_reduce of [m | b], or None when b is outside the column
    span of m."""
    _, pivots, rref, _ = reference_reduce(
        [list(row) + [x] for row, x in zip(rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = rref[r][ncols]
    return sol


def random_multi_systems():
    """Seeded (kind, rows, columns, ncols): square nonsingular systems,
    rank-deficient square systems and systems with more rows than
    columns, each with right-hand sides that are images m x
    (consistent), random (mostly inconsistent where m is not onto),
    repeats of an earlier column or sums of two earlier ones."""
    rng = random.Random(4242)

    def matrix(nr, nc):
        return [[random_entry(rng) for _ in range(nc)] for _ in range(nr)]

    def image(rows, nc):
        x = [random_entry(rng) for _ in range(nc)]
        return [sum(Fraction(a) * y for a, y in zip(row, x)) for row in rows]

    for trial in range(300):
        kind = ('square', 'deficient', 'tall')[trial % 3]
        nc = rng.randrange(1, 7)
        if kind == 'square':
            rows = matrix(nc, nc)
            if reference_reduce(rows, nc)[0] < nc:
                continue
        elif kind == 'deficient':
            rows = matrix(nc, nc)
            r = rng.randrange(0, nc)
            # the last rows combine the first r, so the rank is at most r
            for i in range(r, nc):
                f = [random_entry(rng) for _ in range(r)]
                rows[i] = [sum((a * rows[j][k] for j, a in enumerate(f)),
                               Fraction(0)) for k in range(nc)]
        else:
            rows = matrix(nc + rng.randrange(1, 5), nc)
        columns = []
        for _ in range(rng.randrange(1, 6)):
            pick = rng.random()
            if pick < 0.4:
                columns.append(image(rows, nc))
            elif pick < 0.7 or not columns:
                columns.append([random_entry(rng) for _ in rows])
            elif pick < 0.85:
                columns.append(list(rng.choice(columns)))
            else:
                a, b = rng.choice(columns), rng.choice(columns)
                columns.append([x + y for x, y in zip(a, b)])
        yield kind, rows, columns, nc


def test_multi_column_lin_solve_equals_single_column_and_reference():
    seen = {}
    for kind, rows, columns, nc in random_multi_systems():
        results = lin_solve(rows, columns, nc)
        assert len(results) == len(columns)
        kernel = reference_reduce(rows, nc)[3]
        for res, b in zip(results, columns):
            single = lin_solve(rows, b, nc)
            want = reference_solution(rows, b, nc)
            assert res.solution == single.solution == want
            assert res.kernel == single.kernel == kernel
            assert res.kernel is results[0].kernel
            if want is not None:
                assert all(type(x) is Fraction for x in res.solution)
                assert matvec(rows, res.solution) == b
            seen[kind, want is not None] = seen.get((kind, want is not None),
                                                    0) + 1
    # Every kind ran, with consistent columns, and with inconsistent ones
    # wherever the column span is not everything.
    assert seen.keys() == {('square', True), ('deficient', True),
                           ('deficient', False), ('tall', True),
                           ('tall', False)}
    assert min(seen.values()) >= 20


def test_multi_column_lin_solve_edge_cases():
    rows = [[1, 1], [2, 2]]
    # b_1 inconsistent; b_2 = b_1; b_3 consistent; b_4 = b_1 + b_3
    results = lin_solve(rows, [[1, 3], [1, 3], [1, 2], [2, 5]])
    assert [res.solution for res in results] == [None, None, [1, 0], None]
    assert all(res.kernel == [[-1, 1]] for res in results)
    # a zero matrix: only zero columns are consistent
    results = lin_solve([[0, 0], [0, 0]], [[0, 0], [0, 1]])
    assert [res.solution for res in results] == [[0, 0], None]
    assert results[0].kernel == [[1, 0], [0, 1]]
    # no rows: every column is empty and solved by 0
    results = lin_solve([], [[], []], 2)
    assert [res.solution for res in results] == [[0, 0], [0, 0]]
    assert results[1].kernel == [[1, 0], [0, 1]]
    # tuples are columns too; one column in a list is not one column
    results = lin_solve(rows, ((1, 2),))
    assert len(results) == 1 and results[0].solution == [1, 0]
    assert lin_solve(rows, [1, 2]).solution == [1, 0]
    with pytest.raises(ValueError, match='rhs length'):
        lin_solve(rows, [[1, 2], [1]])


def test_empty_rhs_is_an_empty_list_of_columns():
    """With no node of size d, an interpolation basis solves for an empty
    list of unit columns, which lin_solve must not read as one empty
    column."""
    for params, d in ((hooks.HookParams(0, 0, 'half'), 1),
                      (hooks.HookParams(0, 0, 'one'), 2)):
        bases = [solver.sp_basis(params, d)]
        if params.theta == 'half':
            bases.append(solver.ia_star_basis(params, d))
        for basis in bases:
            assert [b.size for b in basis.nodes] == [0]
            assert len(basis) == 1 and basis._columns == {}
    assert lin_solve([[1, 0], [0, 1]], []) == []
    assert lin_solve([], [], 2) == []
    with pytest.raises(ValueError, match='ragged'):
        lin_solve([[1, 0], [0]], [])


def test_back_substitution_check_catches_a_wrong_relation(monkeypatch):
    """One coefficient of one column relation comes back off by one: the
    solution read from it fails the shared check."""
    real = linalg._relations

    def perturbed(cleared):
        relations = real(cleared)
        rel = next(rel for rel in relations if rel)
        rel[next(iter(rel))] += 1
        return relations

    monkeypatch.setattr(linalg, '_relations', perturbed)
    rows = [[2, 1], [1, -1]]
    with pytest.raises(AssertionError, match='back-substitution check'):
        lin_solve(rows, [5, 1])
    with pytest.raises(AssertionError, match='back-substitution check'):
        lin_solve(rows, [[5, 1], [3, 0]])
    with pytest.raises(AssertionError, match='back-substitution check'):
        solve_in_span([{'a': 1}, {'a': 1, 'b': 1}], {'a': 3, 'b': 2})


def test_mat_reduce_known_matrix():
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]]
    red = mat_reduce(rows)
    assert red.rank == 2
    assert red.pivots == [0, 1]
    assert len(red.kernel) == 2
    for vec in red.kernel:
        assert matvec(rows, vec) == [0, 0, 0]


def test_mat_reduce_identity_and_empty():
    red = mat_reduce([[1, 0], [0, 1]])
    assert red.rank == 2 and red.kernel == []
    red = mat_reduce([], ncols=3)
    assert red.rank == 0 and len(red.kernel) == 3
    with pytest.raises(ValueError, match='ncols required'):
        mat_reduce([])
    with pytest.raises(ValueError, match='ragged'):
        mat_reduce([[1, 2], [3]])
    with pytest.raises(ValueError, match='ragged'):
        mat_reduce([[1, 2]], ncols=3)


def test_mat_reduce_and_lin_solve_take_iterables():
    rows = [[1, 2, 3], [2, 4, 7], [0, 0, 1]]
    red = mat_reduce(rows, 3)
    for given in (iter(rows), (row for row in rows)):
        got = mat_reduce(given, 3)
        assert (got.rank, got.pivots, got.rref, got.kernel) \
            == (red.rank, red.pivots, red.rref, red.kernel) \
            == reference_reduce(rows, 3)
    res = lin_solve(iter(rows), iter([1, 3, 1]))
    assert res.solution == [-2, 0, 1] and res.kernel == red.kernel
    res = lin_solve(iter(rows), iter([1, 1, 0]))
    assert res.solution is None and res.kernel == red.kernel
    with pytest.raises(ValueError, match='ragged'):
        lin_solve([[1, 2], [3]], [1, 2])


def test_mat_reduce_random_kernel_property():
    rng = random.Random(17)
    for _ in range(15):
        nr, nc = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[Fraction(rng.randrange(-3, 4)) for _ in range(nc)]
                for _ in range(nr)]
        red = mat_reduce(rows)
        assert red.rank + len(red.kernel) == nc
        for vec in red.kernel:
            assert matvec(rows, vec) == [0] * nr


def test_lin_solve_unique():
    res = lin_solve([[2, 1], [1, -1]], [5, 1])
    assert res.unique
    assert res.solution == [Fraction(2), Fraction(1)]


def test_lin_solve_underdetermined():
    res = lin_solve([[1, 1]], [3])
    assert res.consistent and not res.unique
    assert len(res.kernel) == 1
    assert matvec([[1, 1]], res.solution) == [3]


def test_lin_solve_inconsistent():
    res = lin_solve([[1, 1], [2, 2]], [1, 3])
    assert not res.consistent
    assert res.solution is None


def test_dict_vectors_rank_and_basis():
    v1 = {'a': Fraction(1), 'b': Fraction(2)}
    v2 = {'a': Fraction(2), 'b': Fraction(4)}
    v3 = {'b': Fraction(1)}
    assert dict_vectors_rank([v1, v2]) == 1
    assert dict_vectors_rank([v1, v3]) == 2
    assert dict_vectors_basis([v1, v2, v3]) == [v1, v3]
    assert dict_vectors_rank([]) == 0


def test_solve_in_span():
    v1 = {'a': Fraction(1)}
    v2 = {'a': Fraction(1), 'b': Fraction(1)}
    target = {'a': Fraction(3), 'b': Fraction(2)}
    coeffs = solve_in_span([v1, v2], target)
    assert coeffs == [Fraction(1), Fraction(2)]
    assert solve_in_span([v1], {'b': Fraction(1)}) is None
    assert solve_in_span([v1, v2], {}) == [0, 0]
