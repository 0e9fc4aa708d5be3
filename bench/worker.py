"""One benchmark sample: run every item of a workload in a fresh process
and check each result.

    python3 bench/worker.py --workload pipeline --seed 1 --workdir DIR \
        [--trace] [--inject FAULT]

Prints one JSON object on stdout: wall time from the end of set-up to
the last checked result, per-item times and check outcomes, the digests
of the unique objects built, peak resident memory and, with --trace, the
span summary.  The seed shuffles item order; the memo caches carry over
from one item to the next, so order is part of the input.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time

from fractions import Fraction
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), 'src'))

# Importing the library is the end of set-up; it loads every module.
import selftest  # noqa: E402
import tracer  # noqa: E402
from supercapelli import cli, hooks, solver, superlie, weyl  # noqa: E402

GOLDEN_PATH = os.path.join(HERE, 'golden.json')

# Per-suite case counts of `verify --suite all` at the seed commit.
SUITE_CASES = {
    'centrality': 16, 'symbol-identity': 6, 'abstract-capelli': 12,
    'eigenvalue-coherence': 18, 'vanishing': 9, 'top-part': 10,
    'sv-identification': 10, 'decomposition': 16, 'spherical': 9,
    'theta-one': 12, 'duality': 9,
}

PIPELINE_CONFIGS = [((1, 1), 4), ((2, 1), 3), ((1, 2), 3)]
PIPELINE_FRONTIER = ((2, 1), '3,1')
INTERP_RANKS, INTERP_DEGREE = (2, 1), 6
CLI_RANKS, CLI_MAX_SIZE = (2, 1), 3


def digest(payload):
    """sha256 of the canonical JSON of a `to_json()` payload."""
    text = json.dumps(payload, sort_keys=True, separators=(',', ':'))
    return hashlib.sha256(text.encode()).hexdigest()


class Sample:
    """Results of one sample: items, check failures and object digests."""

    def __init__(self, golden):
        self.golden = golden
        self.items = []
        self.digests = {}
        self._failures = []

    def check(self, ok, what):
        if not ok:
            self._failures.append(what)

    def match_golden(self, key, payload):
        """Compare a unique object against its digest from the seed commit.
        With no golden table (recording), only collect the digest."""
        self.digests[key] = digest(payload)
        if self.golden is not None:
            self.check(self.golden.get(key) == self.digests[key],
                       'golden digest mismatch for %s' % key)

    def run_item(self, name, fn):
        self._failures = []
        t0 = time.perf_counter()
        try:
            fn(self)
        except Exception as exc:  # a crashing item is a failed result
            self._failures.append('%s: %s' % (type(exc).__name__, exc))
        self.items.append({'name': name,
                           'seconds': time.perf_counter() - t0,
                           'ok': not self._failures,
                           'detail': '; '.join(self._failures)})


# ---------------------------------------------------------------------------
# Workloads.  Each returns {name: callable(sample)}, or {name: [(item name,
# callable), ...]} for items that must keep their order; the callables
# share lazily built state through closures, as one CLI session would.

def verify_all_items():
    def item(suite):
        def run(s):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(['verify', '--suite', suite,
                                 '--format', 'json'])
            payload = json.loads(out.getvalue())
            cases = payload['cases']
            s.check(code == 0, 'exit code %d' % code)
            s.check(payload['passed'] is True, 'suite reports failure')
            s.check(len(cases) == SUITE_CASES[suite],
                    '%d cases, expected %d' % (len(cases), SUITE_CASES[suite]))
            s.check(all(c['passed'] for c in cases), 'a case failed')
            s.match_golden('verify/%s' % suite, payload)
        return run

    return {'suite:%s' % suite: item(suite) for suite in SUITE_CASES}


def pipeline_items():
    def item(m, n, parts):
        def run(s):
            params = hooks.HookParams(m, n, 'half')
            b = hooks.parse_partition(parts, params)
            tag = '%d,%d/%s' % (m, n, parts)
            amb = superlie.Ambient(m, 2 * n)
            inv = weyl.invariant_symbol_space(amb, b.size, verify=False)
            D = weyl.capelli_operator(params, b, inv_basis=inv)
            z = solver.full_preimage(D, check_invariant=False)
            c = solver.c_poly_hc(params, b, preimage=z).poly
            c_interp = solver.c_poly_interp(params, b).poly
            c_star = solver.c_star_poly(params, b, preimage=z).poly
            d_poly = weyl.spherical_poly(params, b, capelli=D)
            sv = solver.verify_sv(params, b, preimage=z)
            s.check(c == c_interp, 'c_poly_hc != c_poly_interp')
            s.check(not c.is_zero() and c.top_part() == d_poly,
                    'top part of c differs from d')
            s.check(bool(sv), 'verify_sv failed: %s' % sv.detail)
            s.match_golden('D/' + tag, D.to_json())
            s.match_golden('c/' + tag, c.to_json())
            s.match_golden('c*/' + tag, c_star.to_json())
            s.match_golden('d/' + tag, d_poly.to_json())
        return run

    out = {}
    for (m, n), d in PIPELINE_CONFIGS:
        for b in hooks.enumerate_hooks(hooks.HookParams(m, n, 'half'), d):
            out['%d,%d/%s' % (m, n, b)] = item(m, n, str(b))
    (m, n), parts = PIPELINE_FRONTIER
    out['%d,%d/%s' % (m, n, parts)] = item(m, n, parts)
    return out


def interp_items():
    m, n = INTERP_RANKS
    d = INTERP_DEGREE
    half = hooks.HookParams(m, n, 'half')
    one = hooks.HookParams(m, n, 'one')
    bases = {}

    def basis(kind, build):
        if kind not in bases:
            bases[kind] = build()
        return bases[kind]

    def c_item(parts):
        def run(s):
            b = hooks.parse_partition(parts, half)
            ia = basis('ia', lambda: solver.ia_star_basis(half, d))
            c = solver.c_poly_interp(half, b, basis=ia).poly
            for bp in hooks.enumerate_hooks(half, d, upto=True):
                want = Fraction(factorial(d)) if bp == b else 0
                s.check(c.evaluate(hooks.gamma_star_map(bp).coords) == want,
                        'c(%s) wrong at %s' % (b, bp))
            s.match_golden('c/%d,%d/%s' % (m, n, parts), c.to_json())
        return run

    def sp_item(params, parts):
        def run(s):
            b = hooks.parse_partition(parts, params)
            sp = solver.sp_star(params, b, basis=basis(
                params.theta, lambda: solver.sp_basis(params, d)))
            own = hooks.hook_product_H(b) if params.theta == 'half' \
                else Fraction(hooks.classical_hook_product(b))
            for bp in hooks.enumerate_hooks(params, d, upto=True):
                want = own if bp == b else 0
                pt = hooks.frobenius_point(bp).coords()
                s.check(sp.evaluate(pt) == want,
                        'SP*(%s) wrong at %s' % (b, bp))
            s.match_golden('SP*/%s/%d,%d/%s' % (params.theta, m, n, parts),
                           sp.to_json())
        return run

    out = {}
    for b in hooks.enumerate_hooks(half, d):
        out['c/%s' % b] = c_item(str(b))
        out['SP*-half/%s' % b] = sp_item(half, str(b))
        out['SP*-one/%s' % b] = sp_item(one, str(b))
    return out


def cli_cache_items(workdir, trace_dir, inject):
    """Four CLI processes per partition, sharing one fresh cache directory:
    capelli-op (miss, store), d-poly and capelli-preimage (hits), then
    capelli-op again (hit)."""
    m, n = CLI_RANKS
    cache_dir = os.path.join(workdir, 'cache')
    if os.path.exists(cache_dir):
        shutil.rmtree(cache_dir)
    os.makedirs(cache_dir)
    env = dict(os.environ)
    env.pop('SUPERCAPELLI_CACHE', None)
    first_op = {}

    def run_cli(s, args):
        cmd = [sys.executable, os.path.join(HERE, 'cli_main.py')]
        if trace_dir is not None:
            cmd += ['--trace-dir', trace_dir]
        if inject:
            cmd += ['--inject', inject]
        cmd += ['--'] + args + ['--m', str(m), '--n', str(n),
                                '--format', 'json', '--cache-dir', cache_dir]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=120)
        s.check(proc.returncode == 0, 'exit %d: %s' % (proc.returncode,
                                                       proc.stderr[-200:]))
        return proc.stdout

    def item(parts, step):
        tag = '%d,%d/%s' % (m, n, parts)

        def run(s):
            args = ['--partition', parts]
            if step == 'capelli-op-1':
                before = len(os.listdir(cache_dir))
                out = first_op[parts] = run_cli(s, ['capelli-op'] + args)
                s.check(len(os.listdir(cache_dir)) == before + 1,
                        'capelli-op stored no cache entry')
                s.match_golden('D/' + tag, json.loads(out))
            elif step == 'd-poly':
                payload = json.loads(run_cli(s, ['d-poly'] + args))
                payload.pop('partition', None)
                s.match_golden('d/' + tag, payload)
            elif step == 'capelli-preimage':
                payload = json.loads(run_cli(s, ['capelli-preimage'] + args))
                s.check(bool(payload['terms']), 'empty preimage')
            else:
                out = run_cli(s, ['capelli-op'] + args)
                s.check(out == first_op.get(parts),
                        'cached capelli-op differs from the computed one')
        return run

    steps = ('capelli-op-1', 'd-poly', 'capelli-preimage', 'capelli-op-2')
    out = {}
    params = hooks.HookParams(m, n, 'half')
    for b in hooks.enumerate_hooks(params, CLI_MAX_SIZE, upto=True):
        if b.size:
            out[str(b)] = [('%s/%s' % (step, b), item(str(b), step))
                           for step in steps]
    return out


def ordered(groups, seed):
    """Item list in the seed's order.  A group (a list of (name, fn)) keeps
    its internal order; the groups themselves are shuffled."""
    names = sorted(groups)
    random.Random(seed).shuffle(names)
    out = []
    for name in names:
        group = groups[name]
        out.extend(group if isinstance(group, list) else [(name, group)])
    return out


def build(workload, seed, workdir, trace_dir, inject):
    if workload == 'verify-all':
        groups = verify_all_items()
    elif workload == 'pipeline':
        groups = pipeline_items()
    elif workload == 'interp':
        groups = interp_items()
    elif workload == 'cli-cache':
        groups = cli_cache_items(workdir, trace_dir, inject)
    else:
        raise ValueError('unknown workload %r' % workload)
    return ordered(groups, seed)


def run_sample(workload, seed, workdir, golden, trace=False, inject=None):
    """Run one sample in this process; returns the result record."""
    spans = None
    trace_dir = None
    if trace:
        spans = tracer.Tracer()
        tracer.install(spans)
        trace_dir = os.path.join(workdir, 'trace')
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    if inject:
        selftest.inject(inject)
    t0 = time.perf_counter()
    sample = Sample(golden)
    for name, fn in build(workload, seed, workdir, trace_dir, inject):
        sample.run_item(name, fn)
    wall = time.perf_counter() - t0
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record = {'wall_s': wall, 'peak_rss_mb': rss_kb / 1024.0,
              'items': sample.items, 'digests': sample.digests}
    if spans is not None:
        dumps = [spans.dump()]
        for fname in sorted(os.listdir(trace_dir)):
            with open(os.path.join(trace_dir, fname)) as fh:
                dumps.append(json.load(fh))
        record['trace'] = tracer.merge(dumps)
    return record


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', required=True)
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--workdir', required=True)
    ap.add_argument('--trace', action='store_true')
    ap.add_argument('--inject', default=None)
    args = ap.parse_args(argv)
    record = run_sample(args.workload, args.seed, args.workdir,
                        load_golden(), trace=args.trace, inject=args.inject)
    print(json.dumps(record))
    return 0


if __name__ == '__main__':
    sys.exit(main())
