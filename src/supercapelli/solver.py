"""Constructive central preimages, eigenvalue polynomials, interpolation
algebras and the shifted super Jack / Schur families.

Two routes lead to the eigenvalue polynomial of a Capelli operator: the
Harish-Chandra projection of a constructed central preimage, and direct
interpolation inside the filtered algebra generated by the shifted power
sums.  Their exact agreement is the flagship consistency check.
"""

from fractions import Fraction
from math import factorial, prod

from .multipoly import MultiPoly, AffineSubstitution, lincomb
from .linalg import lin_solve, solve_in_span, dict_vectors_rank
from .hooks import (enumerate_hooks, gamma_star_map, hook_product_H,
                    classical_hook_product, frobenius_point,
                    frobenius_affine_map, xy_context, partitions)
from .superlie import (UEAElement, a_context, hc_project, q_projection,
                       gd_element, omega_cartan)
from .weyl import (rho_check_gen, weyl_context, _entry, _commutator,
                   _check_permutation, _order_part, capelli_operator,
                   spherical_poly)


# ---------------------------------------------------------------------------
# Double cosets of the hyperoctahedral group.

def coset_type(sigma):
    """The double coset H sigma H of a permutation of {1..2d}, with H the
    hyperoctahedral group (the centralizer of (1 2)(3 4)...), as a
    partition of d, largest part first.

    The blocks {2t-1, 2t} and their images {sigma(2t-1), sigma(2t)} are
    two perfect matchings of the 2d points; together they join the points
    into cycles that alternate between the matchings, each through 2b
    points, and the halves b are the type.  A product of consecutive
    cycles with block sizes b_1, b_2, ... has type the b_s, largest
    first."""
    _check_permutation(sigma)
    two_d = len(sigma)
    partner = [0] * (two_d + 1)
    for t in range(0, two_d, 2):
        p, q = sigma[t], sigma[t + 1]
        partner[p], partner[q] = q, p
    seen = [False] * (two_d + 1)
    out = []
    for start in range(1, two_d + 1, 2):
        size = 0
        p = start
        while not seen[p]:
            mate = p + 1 if p % 2 else p - 1
            seen[p] = seen[mate] = True
            size += 1
            p = partner[mate]
        if size:
            out.append(size)
    return tuple(sorted(out, reverse=True))


def full_preimage(D, check_invariant=True):
    """A central enveloping algebra element z with polarized image exactly
    D, built by peeling top symbols down the order filtration.

    At order d the symbols of the polarized Gelfand products, one per
    partition of d, span the invariant symbols (at order 0 the empty
    partition's image is 1).  The images are the cleared ones in the
    images table of the ambient's Weyl context (_entry), shared by every
    call on that ambient; they also give the term subtracted from the
    remainder, which stays cleared (den, ints) through lincomb, so
    rho_check is never applied to z.  Each nonzero coefficient is kept
    with the cleared gelfand_product(part) from the context's products
    table, and z = sum c * gelfand_product(part) is one lincomb of them
    at the end."""
    amb = D.ambient
    if check_invariant and any(
            not _commutator(rho_check_gen(amb, i, j), D).is_zero()
            for i in range(amb.dim) for j in range(amb.dim) if i != j):
        raise ValueError('operator is not invariant')
    ctx = weyl_context(amb)
    peeled = []
    rest = D.cleared()
    while rest[1]:
        den, ints = rest
        d = max(len(dm) for _, dm in ints)
        span = [(part, _entry(ctx, 'images', part)) for part in partitions(d)]
        # sum c_i ints_i = ints in degree d, with image_i = ints_i / den_i
        coeffs = solve_in_span([_order_part(v, d) for _, (_, v) in span],
                               _order_part(ints, d))
        if coeffs is None:
            raise AssertionError('symbol of order %d not in the invariant '
                                 'span' % d)
        step = [(c * image[0] / den, part, image)
                for c, (part, image) in zip(coeffs, span) if c]
        peeled += step
        rest = lincomb([(1, rest)] + [(-c, image) for c, _, image in step])
        if any(len(dm) >= d for _, dm in rest[1]):
            raise AssertionError('order did not drop during recursion')
    return UEAElement.from_cleared(amb, *lincomb(
        (c, _entry(ctx, 'products', part)) for c, part, _ in peeled))


# ---------------------------------------------------------------------------
# Eigenvalue polynomials.

class EigenPoly:

    __slots__ = ('b', 'poly')

    def __init__(self, b, poly):
        self.b = b
        self.poly = poly

    def value(self, weight):
        return self.poly.evaluate(weight.coords)


def central_preimage(params, b, capelli=None):
    if capelli is None:
        capelli = capelli_operator(params, b)
    return full_preimage(capelli, check_invariant=False)


def _hc_poly(params, b, preimage, sign):
    """The q projection (in the a-coordinates) of the sign Harish-Chandra
    projection of a central preimage of the Capelli operator, with each
    variable negated for the minus sign."""
    params._require('half', 'c_poly_hc' if sign == 'plus' else 'c_star_poly')
    if preimage is None:
        preimage = central_preimage(params, b)
    poly = q_projection(hc_project(preimage, sign), params.ambient)
    if sign == 'minus':
        poly = omega_cartan(poly)
    return EigenPoly(b, poly)


def c_poly_hc(params, b, preimage=None):
    """Eigenvalue polynomial through the plus Harish-Chandra projection of
    a central preimage of the Capelli operator."""
    return _hc_poly(params, b, preimage, 'plus')


def c_star_poly(params, b, preimage=None):
    """Dual eigenvalue polynomial: minus projection with negated
    evaluation variables."""
    return _hc_poly(params, b, preimage, 'minus')


class InterpolationBasis:
    """A filtered basis of degree d of the algebra generated by `gens`,
    with its nodes (the hook partitions of size <= d), the map sending a
    node to its evaluation point, the value row of each node, and the
    coefficient column of the interpolation polynomial of each node of
    size d, all computed once when the basis is built.

    The element of the span that is 1 at a node and 0 at every other node
    has coefficients the solution of the node system for that node's
    unit right-hand side, so one solve with the unit column of every node
    of size d serves every interpolation at that degree, read back by
    interpolate() as one lincomb of the basis.

    The check that the family has one element per node is what proves
    the top-part filter of _filtered_products exact: the span of the
    products has at most that dimension."""

    __slots__ = ('params', 'd', 'context', 'gens', 'polys', 'records',
                 'point', 'nodes', '_columns')

    def __init__(self, params, d, context, gens, point):
        self.params = params
        self.d = d
        self.context = context
        self.gens = gens                # generator degree -> MultiPoly
        polys, records = _filtered_products(gens, d, context)
        self.polys = polys
        self.records = records          # generator-degree multisets
        self.point = point              # node -> coordinates
        self.nodes = tuple(enumerate_hooks(params, d, upto=True))
        if len(polys) != len(self.nodes):
            raise AssertionError('interpolation algebra dimension %d does '
                                 'not match hook count %d at degree %d'
                                 % (len(polys), len(self.nodes), d))
        rows = [self.values_at(point(b)) for b in self.nodes]
        top = [b for b in self.nodes if b.size == d]
        units = [[int(bp == b) for bp in self.nodes] for b in top]
        results = lin_solve(rows, units, len(self))
        if not all(res.unique for res in results):
            raise AssertionError('interpolation system is singular')
        self._columns = {b: res.solution for b, res in zip(top, results)}

    def __len__(self):
        return len(self.polys)

    def values_at(self, point):
        """[p.evaluate(point) for p in self.polys], from one evaluation
        of each generator: evaluation is a ring homomorphism and each
        basis element is the product of the generators its record names,
        so each entry is one Fraction of the products of their numerators
        and of their denominators.  Each generator keeps the integer plan
        of its first evaluation, so it is cleared once per basis, not
        once per node."""
        vals = {k: g.evaluate(point) for k, g in self.gens.items()}
        num = {k: v.numerator for k, v in vals.items()}
        den = {k: v.denominator for k, v in vals.items()}
        return [Fraction(prod(map(num.__getitem__, rec)),
                         prod(map(den.__getitem__, rec)))
                for rec in self.records]

    def interpolate(self, params, b, point, value):
        """The element of the basis span taking `value` at the node b and
        0 at every other node: `value` times the coefficient column of b
        solved when the basis was built, one lincomb of the kept cleared
        pairs of the basis polynomials.  ValueError unless the basis was built
        for params, the degree |b| and the evaluation points `point`."""
        if (self.params != params or self.d != b.size
                or self.point is not point or b not in self.nodes):
            raise ValueError(
                'interpolation basis for %r at degree %d with %s nodes does '
                'not match %r, partition %s of %r and %s nodes'
                % (self.params, self.d, self.point.__name__.strip('_'),
                   params, b, b.params, point.__name__.strip('_')))
        return MultiPoly.from_cleared(self.context, *lincomb(
            (value * c, p.cleared())
            for c, p in zip(self._columns[b], self.polys)))


def _gamma_star_point(b):
    return gamma_star_map(b).coords


def _frobenius_point(b):
    return frobenius_point(b).coords()


def _filtered_products(gens_by_degree, d, context):
    """Products of generators over all partitions of sizes <= d, greedily
    filtered to a linearly independent family (constant included).  Each
    partition's product is its leading parts' product times the generator
    of its last part; every product is formed, kept or not, since a
    longer partition may extend it.

    A product of size s has degree <= s; its degree-s part is the
    product of the generators' top parts.  Where the products kept below
    size s span the filtered piece F_(s-1) of all products of sizes < s,
    a product of size s lies in the span of the family exactly when its
    degree-s part lies in the span of the degree-s parts kept before it
    at size s.  So each size ranks a fresh family of degree-s parts,
    cleared of denominators, which span the same lines.  The products
    lie in the shifted supersymmetric polynomials of degree <= d, of
    dimension the number of hook partitions of size <= d, so the check
    in InterpolationBasis that the family has that many elements proves
    that each F_(s-1) was spanned."""
    made = {(): MultiPoly.const(context, 1)}
    polys = [made[()]]
    records = [()]
    for size in range(1, d + 1):
        tops = []
        for part in partitions(size):
            prod = made[part] = made[part[:-1]] * gens_by_degree[part[-1]]
            top = prod.homogeneous_part(size).cleared()[1]
            if dict_vectors_rank(tops + [top]) > len(tops):
                polys.append(prod)
                records.append(part)
                tops.append(top)
    return polys, records


def _basis(params, d, build):
    """build(params, d), built once per (family, params, d) in the bases
    table of the ambient's Weyl context; interpolate returns fresh
    polynomials and every polynomial's terms are read-only, so a shared
    basis is never changed."""
    bases = weyl_context(params.ambient).bases
    key = (build.__name__, params, d)
    return bases[key] if key in bases else bases.setdefault(
        key, build(params, d))


def ia_star_basis(params, d):
    """Filtered basis of the interpolation algebra on the weight context:
    span of products of projected center generators."""
    params._require('half', 'ia_star_basis')
    amb = params.ambient
    ctx = a_context(params.m, params.n)
    gens = {k: q_projection(gd_element(amb, k), amb)
            for k in range(1, d + 1)}
    return InterpolationBasis(params, d, ctx, gens, _gamma_star_point)


def c_poly_interp(params, b, basis=None):
    """Eigenvalue polynomial by interpolation: the unique element of the
    filtered interpolation algebra with the prescribed normalization and
    vanishing on the other weights of size up to |b|."""
    d = b.size
    if basis is None:
        basis = _basis(params, d, ia_star_basis)
    return EigenPoly(b, basis.interpolate(params, b, _gamma_star_point,
                                          Fraction(factorial(d))))


# ---------------------------------------------------------------------------
# Shifted super Jack / Schur interpolation on Frobenius coordinates.

def deformed_power_sum(params, d):
    """Generators of the interpolation algebra in Frobenius coordinates.
    These are exactly the Frobenius transforms of the projected center
    generators."""
    m, n = params.m, params.n
    ctx = xy_context(m, n)
    out = MultiPoly.zero(ctx)
    if params.theta == 'half':
        for k in range(1, m + 1):
            base = MultiPoly.variable(ctx, 'x%d' % k).scale(2) \
                + MultiPoly.const(ctx, n)
            out = out + base ** d
        for l in range(1, n + 1):
            y = MultiPoly.variable(ctx, 'y%d' % l)
            for shift in (Fraction(1, 2), Fraction(-1, 2)):
                base = y + MultiPoly.const(ctx, shift - n)
                out = out + (base ** d).scale((-1) ** (d - 1))
    else:
        for k in range(1, m + 1):
            out = out + MultiPoly.variable(ctx, 'x%d' % k) ** d
        for l in range(1, n + 1):
            out = out + (MultiPoly.variable(ctx, 'y%d' % l) ** d
                         ).scale((-1) ** (d - 1))
    return out


def sp_basis(params, d):
    ctx = xy_context(params.m, params.n)
    gens = {k: deformed_power_sum(params, k) for k in range(1, d + 1)}
    return InterpolationBasis(params, d, ctx, gens, _frobenius_point)


def sp_star(params, b, basis=None):
    """Shifted interpolation polynomial for a hook partition: vanishes at
    the Frobenius points of all other partitions of size up to |b| and
    takes the hook-product value at its own point."""
    d = b.size
    if basis is None:
        basis = _basis(params, d, sp_basis)
    target = hook_product_H(b) if params.theta == 'half' \
        else Fraction(classical_hook_product(b))
    return basis.interpolate(params, b, _frobenius_point, target)


def frobenius_transform(params, p):
    """Composition with the affine map identifying weight coordinates with
    Frobenius coordinates."""
    sub = frobenius_affine_map(params)
    if isinstance(p, EigenPoly):
        p = p.poly
    if p.vars != sub.source:
        raise ValueError('polynomial context does not match the regime')
    return sub.apply(p)


# ---------------------------------------------------------------------------
# Hyperplane (natural algebra) membership.

def _swap_vars(p, i, j):
    den, ints = p.cleared()
    terms = {}
    for e, c in ints.items():
        e = list(e)
        e[i], e[j] = e[j], e[i]
        terms[tuple(e)] = c
    return MultiPoly.from_cleared(p.vars, den, terms)


def natural_algebra_check(params, p):
    """Membership test for the natural interpolation algebra: separate
    symmetry plus the shift relation on the coupling hyperplanes."""
    m, n = params.m, params.n
    if p.vars != xy_context(m, n):
        raise ValueError('expected a Frobenius-coordinate polynomial')
    for i in range(m - 1):
        if _swap_vars(p, i, i + 1) != p:
            return False
    for l in range(n - 1):
        if _swap_vars(p, m + l, m + l + 1) != p:
            return False
    theta = Fraction(1, 2) if params.theta == 'half' else Fraction(1)
    half = Fraction(1, 2)
    ctx = p.vars
    for k in range(m):
        for l in range(n):
            # the shifts x_k -> x_k +- 1/2, y_l -> y_l -+ 1/2 composed with
            # the restriction to the hyperplane x_k = -theta * y_l
            sides = []
            for s in (half, -half):
                images = {}
                for i, name in enumerate(ctx):
                    lin = [Fraction(0)] * (m + n)
                    if i == k:
                        lin[m + l] = -theta
                        images[name] = (lin, s)
                    else:
                        lin[i] = Fraction(1)
                        images[name] = (lin, -s if i == m + l else 0)
                sides.append(AffineSubstitution(ctx, ctx, images).apply(p))
            if sides[0] != sides[1]:
                return False
    return True


# ---------------------------------------------------------------------------
# Theorem-level identities.

class Report:

    def __init__(self, name, passed, detail=''):
        self.name = name
        self.passed = passed
        self.detail = detail

    def __bool__(self):
        return self.passed

    def __repr__(self):
        return 'Report(%s: %s)' % (self.name, 'pass' if self.passed else
                                   'FAIL %s' % self.detail)


def verify_sv(params, b, preimage=None):
    """Frobenius transform of the dual eigenvalue polynomial against the
    normalized shifted interpolation polynomial."""
    d = b.size
    lhs = frobenius_transform(params, c_star_poly(params, b, preimage=preimage))
    rhs = sp_star(params, b).scale(Fraction(factorial(d)) / hook_product_H(b))
    ok = lhs == rhs
    detail = '' if ok else 'lhs=%s rhs=%s' % (lhs, rhs)
    return Report('sv:%s' % b, ok, detail)


def verify_main(params, b, capelli=None):
    """Top homogeneous part of the eigenvalue polynomial against the
    spherical polynomial, which is formed first, so a capelli of other
    ranks or degree raises its ValueError."""
    if capelli is None:
        capelli = capelli_operator(params, b)
    d = spherical_poly(params, b, capelli=capelli)
    c = c_poly_hc(params, b, preimage=central_preimage(params, b, capelli))
    top = c.poly.top_part() if not c.poly.is_zero() else c.poly
    ok = top == d
    detail = '' if ok else 'top=%s spherical=%s' % (top, d)
    return Report('main:%s' % b, ok, detail)


def theta_one_family(params, b):
    """The shifted supersymmetric Schur interpolation polynomial and its
    top homogeneous part, in Frobenius coordinates."""
    params._require('one', 'theta_one_family')
    s_star = sp_star(params, b)
    s_top = s_star.top_part() if not s_star.is_zero() else s_star
    return {'s_star': s_star, 's_top': s_top}
