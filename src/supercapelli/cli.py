"""Command-line front end: tables, polynomial export and verification
suites.

Every verification suite is a thin driver: it only calls library
operations and compares results for exact equality.  Exit codes: 0 on
success, 1 when a verification case fails, 2 on invalid input, 3 when an
internal consistency check of the library fails (an AssertionError, such
as a singular Capelli system, or a hook's highest weight space that is not
one-dimensional, which eigenvalue-coherence does not report as a case).

Invalid input is rejected before any side effect: the commands that need
theta = 1/2 (capelli-op, capelli-preimage, d-poly, c-poly, gamma-star)
exit 2 at theta = 1 before they open --cache-dir, and t-sigma exits 2 on
a sigma that is not a permutation of 1..2d.

Each suite reads (m, n) either as the ambient gl(m|n) or as the pair
ranks with ambient gl(m|2n), and runs its default configurations
{(m, n): degree}:

    centrality            ambient  (1,1) (1,2) (2,1) (2,2): 4
    symbol-identity       ambient  (1,1) (2,1): 3
    abstract-capelli      ambient  (1,2) (2,2): 2 (preimage round trips)
    decomposition         ambient  (1,2) (2,2): 3
    eigenvalue-coherence  pair     (1,1): 3, (2,1): 2 (spectra up to d+1)
    vanishing             pair     (1,1): 3, (2,1): 2
    top-part              pair     (1,1): 3, (2,1): 2
    sv-identification     pair     (1,1): 3, (2,1): 2
    spherical             pair     (1,1): 3, (2,1): 2
    theta-one             pair     (1,1) (2,1): 3
    duality               pair     (1,1): 3

Explicit --m/--n replace the defaults by that one pair, at its default
degree or else the suite's smallest one; --dmax replaces every degree.
"""

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from itertools import permutations
from math import factorial

from .cache import default_cache
from .hooks import (HookParams, enumerate_hooks, parse_partition, gamma_map,
                    gamma_star_map, dual_weight, frobenius_point, a_context,
                    xy_context)
from .multipoly import MultiPoly
from .superlie import (Ambient, UEAElement, gelfand_element, pbw_normalize,
                       hc_project, omega, omega_cartan)
from .weyl import (WeylElement, gelfand_product, t_sigma, rho_check, symbol,
                   consecutive_cycles_perm, capelli_operator,
                   hook_vectors, all_highest_weight_vectors,
                   cyclic_span_dim, eigenvalue_on, monomial_basis,
                   spherical_vector, spherical_poly, osp_spanning_set,
                   apply_weyl)
from .solver import (coset_type, full_preimage, central_preimage,
                     c_poly_hc, c_poly_interp, c_star_poly, sp_star,
                     verify_main, verify_sv, theta_one_family,
                     natural_algebra_check)

THETA = {'1/2': 'half', 'half': 'half', '1': 'one', 'one': 'one'}


def _params(args):
    theta = THETA.get(getattr(args, 'theta', '1/2'))
    if theta is None:
        raise ValueError('theta must be 1/2 or 1')
    return HookParams(args.m, args.n, theta)


def _partition(args, params):
    if args.partition is None:
        raise ValueError('--partition is required')
    return parse_partition(args.partition, params)


def _sigma(args):
    if args.sigma is None:
        raise ValueError('--sigma is required')
    try:
        sigma = tuple(int(p) for p in args.sigma.split(','))
    except ValueError:
        raise ValueError('--sigma must be comma-separated integers, the '
                         'images of 1..2d (e.g. 2,1,4,3), got %r'
                         % args.sigma) from None
    return sigma


def _capelli(args, params, b):
    """D_b through the cache; theta is checked first, so a rejected
    command opens no cache directory."""
    params._require('half', args.command)
    key = ('capelli-op', params.m, params.n, params.theta, list(b.parts))
    cache = None if args.no_cache else default_cache(args.cache_dir)
    if cache is not None:
        payload = cache.load(key)
        if payload is not None:
            return WeylElement.from_json(payload)
    D = capelli_operator(params, b)
    if cache is not None:
        cache.store(key, D.to_json())
    return D


# ---------------------------------------------------------------------------
# Subcommands.  Each handler returns (payload, text, exit_code).

def cmd_hooks(args):
    params = _params(args)
    hooks = enumerate_hooks(params, args.size, upto=args.upto)
    names = [str(b) for b in hooks]
    payload = {'m': args.m, 'n': args.n, 'size': args.size,
               'upto': bool(args.upto), 'partitions': names}
    return payload, '\n'.join(names), 0


def cmd_gamma(args):
    """gamma and gamma-star: the weight gamma_map(b) or gamma_star_map(b)."""
    params = _params(args)
    weight_map = gamma_map if args.command == 'gamma' else gamma_star_map
    w = weight_map(_partition(args, params))
    return ({'partition': args.partition, 'frame': w.frame,
             'coords': [str(c) for c in w.coords]}, str(w), 0)


def cmd_frobenius(args):
    params = _params(args)
    pt = frobenius_point(_partition(args, params))
    payload = {'partition': args.partition,
               'x': [str(c) for c in pt.x], 'y': [str(c) for c in pt.y]}
    text = 'x = (%s) ; y = (%s)' % (', '.join(str(c) for c in pt.x),
                                    ', '.join(str(c) for c in pt.y))
    return payload, text, 0


def cmd_gelfand(args):
    z = gelfand_element(Ambient(args.m, args.n), args.dmax)
    return z.to_json(), str(z), 0


def cmd_hc(args):
    z = gelfand_element(Ambient(args.m, args.n), args.dmax)
    poly = hc_project(z, args.sign)
    return poly.to_json(), str(poly), 0


def cmd_t_sigma(args):
    t = t_sigma(Ambient(args.m, args.n), _sigma(args))
    return t.to_json(), str(t), 0


def cmd_capelli_op(args):
    params = _params(args)
    D = _capelli(args, params, _partition(args, params))
    return D.to_json(), str(D), 0


def cmd_capelli_preimage(args):
    params = _params(args)
    D = _capelli(args, params, _partition(args, params))
    z = full_preimage(D, check_invariant=False)
    return z.to_json(), str(z), 0


def cmd_c_poly(args):
    params = _params(args)
    b = _partition(args, params)
    # the routes are read at call time, so a rebound cli name is the one run
    route = {'hc': c_poly_hc, 'interp': c_poly_interp,
             'dual': c_star_poly}[args.method]
    poly = route(params, b).poly
    payload = poly.to_json()
    payload['partition'] = args.partition
    payload['method'] = args.method
    return payload, str(poly), 0


def cmd_d_poly(args):
    params = _params(args)
    b = _partition(args, params)
    poly = spherical_poly(params, b, capelli=_capelli(args, params, b))
    payload = poly.to_json()
    payload['partition'] = args.partition
    return payload, str(poly), 0


def cmd_sp_star(args):
    params = _params(args)
    poly = sp_star(params, _partition(args, params))
    payload = poly.to_json()
    payload['partition'] = args.partition
    payload['theta'] = args.theta
    return payload, str(poly), 0


# ---------------------------------------------------------------------------
# Verification suites (one per theorem-level identity, plus 'all').

# Default configurations {(m, n): degree} of each suite.
_SPECTRUM = {(1, 1): 3, (2, 1): 2}
_CONFIGS = {
    'centrality': {(1, 1): 4, (1, 2): 4, (2, 1): 4, (2, 2): 4},
    'symbol-identity': {(1, 1): 3, (2, 1): 3},
    'abstract-capelli': {(1, 2): 2, (2, 2): 2},
    'eigenvalue-coherence': _SPECTRUM,
    'vanishing': _SPECTRUM,
    'top-part': _SPECTRUM,
    'sv-identification': _SPECTRUM,
    'decomposition': {(1, 2): 3, (2, 2): 3},
    'spherical': _SPECTRUM,
    'theta-one': {(1, 1): 3, (2, 1): 3},
    'duality': {(1, 1): 3},
}


def _configs(args, name):
    """[(m, n, d)] of a suite: explicit --m/--n replace the defaults by
    that one pair, at its default degree or else the suite's smallest
    one; --dmax replaces every degree."""
    table = _CONFIGS[name]
    if args.m is not None:
        pair = (args.m, args.n)
        table = {pair: table.get(pair, min(table.values()))}
    return [(m, n, args.dmax or d) for (m, n), d in table.items()]


def _hooks(params, d):
    """The nonempty hook partitions of size at most d."""
    return [b for b in enumerate_hooks(params, d, upto=True) if b.size]


def _case(label, bad, what):
    """A case that passes when nothing is bad, with 'what: [...]' as
    its witness otherwise."""
    return label, not bad, '%s: %s' % (what, bad) if bad else ''


def suite_centrality(args):
    cases = []
    for m, n, dmax in _configs(args, 'centrality'):
        amb = Ambient(m, n)
        for d in range(1, dmax + 1):
            # the PBW normal form is unique, so normalising z once leaves
            # pbw(z g - g z) unchanged and shortens every commutator
            z = pbw_normalize(gelfand_element(amb, d))
            bad = []
            for i in range(amb.dim):
                for j in range(amb.dim):
                    g = UEAElement.gen(amb, i, j)
                    if not pbw_normalize(z * g - g * z).is_zero():
                        bad.append('E(%s,%s)' % (amb.label(i), amb.label(j)))
            cases.append(_case('gl(%d|%d) d=%d' % (m, n, d), bad,
                               'noncommuting'))
    return cases


def suite_symbol_identity(args):
    cases = []
    for m, n, dmax in _configs(args, 'symbol-identity'):
        amb = Ambient(m, n)
        for d in range(1, dmax + 1):
            lhs = symbol(rho_check(gelfand_product(amb, (d,))), d)
            rhs = t_sigma(amb, consecutive_cycles_perm((d,)))
            cases.append(('gl(%d|%d) d=%d' % (m, n, d), lhs == rhs, ''))
    return cases


def suite_abstract_capelli(args):
    cases = []
    for m, n, d in _configs(args, 'abstract-capelli'):
        amb = Ambient(m, n)
        sample = random.Random(0).sample(list(permutations(range(1, 7))), 20)
        for label, sigmas in (('all sigma in S4', permutations(range(1, 5))),
                              ('20 random sigma in S6', sample)):
            # one Gelfand-product symbol per coset type t (of degree |t|),
            # compared with the literal t_sigma of each sigma of that type
            types = {sig: coset_type(sig) for sig in sigmas}
            symbols = {t: symbol(rho_check(gelfand_product(amb, t)), sum(t))
                       for t in set(types.values())}
            bad = [sig for sig, t in types.items()
                   if symbols[t] != t_sigma(amb, sig)]
            cases.append(_case('gl(%d|%d) %s' % (m, n, label), bad,
                               'failing sigma'))
        # the pair ranks (m, n // 2) live in gl(m|2(n // 2)), which is
        # gl(m|n - 1) for odd n
        params = HookParams(m, n // 2, 'half')
        for b in enumerate_hooks(params, d, upto=True):
            D = capelli_operator(params, b)
            z = full_preimage(D, check_invariant=False)
            cases.append(('gl(%d|%d) preimage roundtrip %s'
                          % (m, params.ambient.n, b), rho_check(z) == D, ''))
    return cases


def suite_eigenvalue_coherence(args):
    cases = []
    for m, n, d in _configs(args, 'eigenvalue-coherence'):
        params = HookParams(m, n, 'half')
        vectors = {mu: v for k in range(d + 2)
                   for mu, v in hook_vectors(params, k).items()}
        for b in _hooks(params, d):
            D = capelli_operator(params, b)
            z = central_preimage(params, b, capelli=D)
            ch = c_poly_hc(params, b, preimage=z)
            ci = c_poly_interp(params, b)
            cases.append(('(%d,%d) routes agree %s' % (m, n, b),
                          ch.poly == ci.poly, ''))
            bad = []
            for mu, v in vectors.items():
                if eigenvalue_on(D, v) != ch.value(gamma_star_map(mu)):
                    bad.append(str(mu))
            cases.append(_case('(%d,%d) spectrum of D_%s' % (m, n, b), bad,
                               'mismatch at mu'))
    return cases


def suite_vanishing(args):
    cases = []
    for m, n, d in _configs(args, 'vanishing'):
        params = HookParams(m, n, 'half')
        for b in _hooks(params, d):
            c = c_poly_hc(params, b)
            bad = []
            for mu in enumerate_hooks(params, b.size, upto=True):
                want = Fraction(factorial(b.size)) if mu == b else Fraction(0)
                if c.value(gamma_star_map(mu)) != want:
                    bad.append(str(mu))
            cases.append(_case('(%d,%d) vanishing of c_%s' % (m, n, b), bad,
                               'wrong value at mu'))
    return cases


def suite_top_part(args):
    cases = []
    for m, n, d in _configs(args, 'top-part'):
        params = HookParams(m, n, 'half')
        for b in _hooks(params, d):
            rep = verify_main(params, b)
            cases.append(('(%d,%d) top part %s' % (m, n, b), rep.passed,
                          rep.detail))
    if args.m is None:
        params = HookParams(1, 0, 'half')
        b = parse_partition('1', params)
        c = c_poly_hc(params, b)
        expected = MultiPoly.variable(a_context(1, 0), 'a1').scale(
            Fraction(-1, 2))
        cases.append(('(1,0) rank-one closed form', c.poly == expected,
                      '' if c.poly == expected else 'got %s' % c.poly))
    return cases


def suite_sv_identification(args):
    cases = []
    for m, n, d in _configs(args, 'sv-identification'):
        params = HookParams(m, n, 'half')
        for b in _hooks(params, d):
            rep = verify_sv(params, b)
            cases.append(('(%d,%d) transform of c*_%s' % (m, n, b),
                          rep.passed, rep.detail))
    if args.m is None:
        params = HookParams(1, 1, 'half')
        ctx = xy_context(1, 1)
        expected = (MultiPoly.variable(ctx, 'x1')
                    + MultiPoly.variable(ctx, 'y1')
                    + MultiPoly.const(ctx, Fraction(-1, 2)))
        got = sp_star(params, parse_partition('1', params))
        cases.append(('(1,1) interpolation oracle for (1)', got == expected,
                      '' if got == expected else 'got %s' % got))
    return cases


def suite_decomposition(args):
    cases = []
    for m, n, kmax in _configs(args, 'decomposition'):
        amb = Ambient(m, n)
        params = HookParams(m, n // 2, 'half')
        for k in range(kmax + 1):
            hw = all_highest_weight_vectors(amb, k)
            count = sum(len(basis) for _, basis in hw)
            expected = len(enumerate_hooks(params, k))
            cases.append(('gl(%d|%d) hw count k=%d' % (m, n, k),
                          count == expected,
                          '' if count == expected else
                          '%d vs %d' % (count, expected)))
            total = sum(cyclic_span_dim(amb, v) for _, basis in hw
                        for v in basis)
            dim = len(monomial_basis(amb, k))
            cases.append(('gl(%d|%d) span dims k=%d' % (m, n, k),
                          total == dim,
                          '' if total == dim else '%d vs %d' % (total, dim)))
    return cases


def suite_spherical(args):
    cases = []
    for m, n, d in _configs(args, 'spherical'):
        params = HookParams(m, n, 'half')
        kset = osp_spanning_set(params)
        for b in _hooks(params, d):
            D = capelli_operator(params, b)
            vec = spherical_vector(params, b, capelli=D)
            ann = all(not apply_weyl(rho_check(k), vec) for k in kset)
            poly = spherical_poly(params, b, capelli=D)
            ok = bool(vec) and ann and not poly.is_zero()
            detail = '' if ok else ('vector zero' if not vec else
                                    'not annihilated' if not ann else
                                    'restriction zero')
            cases.append(('(%d,%d) spherical data %s' % (m, n, b), ok, detail))
    return cases


def suite_theta_one(args):
    cases = []
    for m, n, d in _configs(args, 'theta-one'):
        params = HookParams(m, n, 'one')
        for b in _hooks(params, d):
            fam = theta_one_family(params, b)
            cases.append(('(%d,%d) hyperplane conditions %s' % (m, n, b),
                          natural_algebra_check(params, fam['s_star']), ''))
    return cases


def suite_duality(args):
    cases = []
    for m, n, dmax in _configs(args, 'duality'):
        params = HookParams(m, n, 'half')
        for b in _hooks(params, dmax):
            z = central_preimage(params, b)
            c = c_poly_hc(params, b, preimage=z)
            cs = c_star_poly(params, b, preimage=z)
            bad = []
            for mu in enumerate_hooks(params, dmax, upto=True):
                w = gamma_star_map(mu)
                if c.value(w) != cs.value(dual_weight(w, params)):
                    bad.append(str(mu))
            cases.append(_case('duality for %s' % b, bad, 'mismatch at mu'))
        amb = params.ambient
        for d in range(1, dmax + 1):
            z = gelfand_element(amb, d)
            lhs = hc_project(omega(z), 'minus')
            rhs = omega_cartan(hc_project(z, 'plus'))
            cases.append(('minus projection of omega d=%d' % d, lhs == rhs,
                          ''))
    return cases


SUITES = {
    'centrality': suite_centrality,
    'symbol-identity': suite_symbol_identity,
    'abstract-capelli': suite_abstract_capelli,
    'eigenvalue-coherence': suite_eigenvalue_coherence,
    'vanishing': suite_vanishing,
    'top-part': suite_top_part,
    'sv-identification': suite_sv_identification,
    'decomposition': suite_decomposition,
    'spherical': suite_spherical,
    'theta-one': suite_theta_one,
    'duality': suite_duality,
}


def cmd_verify(args):
    names = list(SUITES) if args.suite == 'all' else [args.suite]
    if args.suite not in SUITES and args.suite != 'all':
        raise ValueError('unknown suite %r; choose from %s or all'
                         % (args.suite, ', '.join(SUITES)))
    if (args.m is None) != (args.n is None):
        raise ValueError('--m and --n must be given together')
    for flag in ('m', 'n'):
        if getattr(args, flag) is not None and getattr(args, flag) < 0:
            raise ValueError('--%s must be nonnegative' % flag)
    if args.dmax is not None and args.dmax < 1:
        raise ValueError('--dmax must be at least 1')
    records = []
    lines = []
    all_ok = True
    for name in names:
        t0 = time.time()
        cases = SUITES[name](args)
        elapsed = time.time() - t0
        for case, ok, detail in sorted(cases, key=lambda c: c[0]):
            records.append({'suite': name, 'case': case, 'passed': ok,
                            'witness': detail})
            lines.append('%-22s %-40s %s' % (name, case,
                                             'pass' if ok else
                                             'FAIL %s' % detail))
            all_ok = all_ok and ok
        lines.append('%-22s (%d cases, %.1fs)%s'
                     % (name, len(cases), elapsed,
                        '' if cases else ' FAIL no case ran'))
        # a suite that checks nothing must not read as a pass
        all_ok = all_ok and bool(cases)
    payload = {'suites': names, 'passed': all_ok, 'cases': records}
    lines.append('overall: %s' % ('pass' if all_ok else 'FAIL'))
    return payload, '\n'.join(lines), 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Parser and dispatch.

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument('--format', choices=('json', 'text'), default='text')
    common.add_argument('--cache-dir', default=None,
                        help='cache directory (or $SUPERCAPELLI_CACHE)')
    common.add_argument('--no-cache', action='store_true',
                        help='bypass the cache even when a directory is set')
    common.add_argument('--output', default=None,
                        help='write the result to a file instead of stdout')

    parser = argparse.ArgumentParser(prog='supercapelli')
    sub = parser.add_subparsers(dest='command', required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name, parents=[common])
        if flags.get('mn'):
            p.add_argument('--m', type=int, required=flags.get('mn') == 'req')
            p.add_argument('--n', type=int, required=flags.get('mn') == 'req')
        if flags.get('theta'):
            p.add_argument('--theta', default='1/2')
        if flags.get('partition'):
            p.add_argument('--partition')
        if flags.get('sigma'):
            p.add_argument('--sigma')
        if flags.get('dmax'):
            p.add_argument('--dmax', type=int, default=flags['dmax']
                           if flags['dmax'] is not True else None)
        if flags.get('size'):
            p.add_argument('--size', type=int, required=True)
            p.add_argument('--upto', action='store_true')
        if flags.get('sign'):
            p.add_argument('--sign', choices=('plus', 'minus'),
                           default='plus')
        if flags.get('method'):
            p.add_argument('--method', choices=('hc', 'interp', 'dual'),
                           default='hc')
        if flags.get('suite'):
            p.add_argument('--suite', default='all')
        p.set_defaults(fn=fn.__name__)
        return p

    add('hooks', cmd_hooks, mn='req', theta=True, size=True)
    add('gamma', cmd_gamma, mn='req', theta=True, partition=True)
    add('gamma-star', cmd_gamma, mn='req', theta=True, partition=True)
    add('frobenius', cmd_frobenius, mn='req', theta=True, partition=True)
    add('gelfand', cmd_gelfand, mn='req', dmax=1)
    add('hc', cmd_hc, mn='req', dmax=1, sign=True)
    add('t-sigma', cmd_t_sigma, mn='req', sigma=True)
    add('capelli-op', cmd_capelli_op, mn='req', theta=True, partition=True)
    add('capelli-preimage', cmd_capelli_preimage, mn='req', theta=True,
        partition=True)
    add('c-poly', cmd_c_poly, mn='req', theta=True, partition=True,
        method=True)
    add('d-poly', cmd_d_poly, mn='req', theta=True, partition=True)
    add('sp-star', cmd_sp_star, mn='req', theta=True, partition=True)
    add('verify', cmd_verify, mn=True, dmax=True, suite=True)
    return parser


_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # the handler is read by name, so a rebound cmd_* is the one run
        payload, text, code = globals()[args.fn](args)
        out = json.dumps(payload, sort_keys=True) if args.format == 'json' \
            else text
        if args.output:
            with open(args.output, 'w') as fh:
                fh.write(out + '\n')
    except (ValueError, KeyError, OSError) as exc:
        # OSError: an unusable --cache-dir or --output path
        print('error: %s' % exc, file=sys.stderr)
        return 2
    except AssertionError as exc:
        print('internal error: %s' % exc, file=sys.stderr)
        return 3
    if not args.output:
        print(out)
    return code


if __name__ == '__main__':
    sys.exit(main())
