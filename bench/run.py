"""The supercapelli benchmark.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

With --trace 0 it measures set-up time, then runs fresh, untraced worker
processes (one sample each) until --seconds have passed, and reports the
end-to-end metrics as medians over the samples.  With --trace 1 it runs
one untraced and two traced samples and reports the per-layer metrics.
Every sample checks its own results; a failed check counts against the
run, and any failure makes the run exit 1.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, 'src')

WORKLOADS = ('verify-all', 'pipeline', 'interp', 'cli-cache')
SETUP_PROBES = 15
SAMPLE_TIMEOUT_S = 170
SUITES = ('centrality', 'symbol-identity', 'abstract-capelli',
          'eigenvalue-coherence', 'vanishing', 'top-part', 'sv-identification',
          'decomposition', 'spherical', 'theta-one', 'duality')

# Spans whose calls or work counts must be nonzero on a workload: a
# binding the tracer missed then fails the run instead of reading as a
# speed-up.  Entries are span names or "span|count".
COVERAGE = {
    'verify-all': [
        'superlie.pbw_normalize', 'superlie.pbw_normalize|terms_out',
        'superlie.gelfand_element', 'superlie.hc_project',
        'weyl.t_sigma', 'linalg.mat_reduce', 'linalg.mat_reduce|cells',
        'linalg.dict_vectors_rank', 'multipoly.substitute',
        'hooks.enumerate_hooks', 'hooks.dual_weight',
    ] + ['cli.suite.%s' % s for s in SUITES],
    'pipeline': [
        'superlie.pbw_normalize', 'superlie.gelfand_element',
        'superlie.hc_project', 'weyl.weyl_mul', 'weyl.weyl_mul|terms_out',
        'weyl.rho_check', 'weyl.rho_check|words_in', 'weyl.t_sigma',
        'weyl.t_sigma|index_tuples', 'weyl.invariant_spanning_set',
        'weyl.invariant_symbol_space', 'weyl.capelli_operator',
        'linalg.solve_in_span', 'linalg.lin_solve', 'solver.full_preimage',
        'solver.c_poly_hc', 'solver.c_star_poly', 'solver.verify_sv',
        'solver.c_poly_interp',
    ],
    'interp': [
        'linalg.mat_reduce', 'linalg.mat_reduce|cells', 'linalg.lin_solve',
        'linalg.dict_vectors_rank', 'linalg.dict_vectors_rank|useful',
        'multipoly.evaluate', 'multipoly.mul', 'hooks.enumerate_hooks',
        'solver.ia_star_basis', 'solver.c_poly_interp', 'solver.sp_basis',
        'solver.sp_star',
    ],
    'cli-cache': [
        'cache.load', 'cache.load|hits', 'cache.store', 'cache.store|bytes',
        'cli.json', 'weyl.capelli_operator', 'weyl.weyl_mul',
        'solver.full_preimage',
    ],
}

# Per-layer metrics: span -> what is reported for it.  'calls', 'self_s'
# and 'wall_s' (inclusive time) come from the spans; any other name is a
# work count recorded at the span boundary, or a count per call for the
# names in RATIOS.
PER_LAYER = {
    'superlie.pbw_normalize': ('calls', 'self_s', 'terms_out'),
    'superlie.gelfand_element': ('calls', 'self_s'),
    'superlie.hc_project': ('self_s',),
    'weyl.weyl_mul': ('calls', 'self_s', 'terms_out'),
    'weyl.rho_check': ('calls', 'self_s', 'words_in'),
    'weyl.t_sigma': ('calls', 'self_s', 'index_tuples'),
    'weyl.invariant_spanning_set': ('calls',),
    'weyl.invariant_symbol_space': ('self_s',),
    'weyl.capelli_operator': ('self_s',),
    'linalg.mat_reduce': ('calls', 'self_s', 'cells'),
    'linalg.lin_solve': ('calls', 'self_s'),
    'linalg.dict_vectors_rank': ('calls', 'useful_ratio'),
    'linalg.solve_in_span': ('calls', 'self_s'),
    'multipoly.evaluate': ('calls', 'self_s'),
    'multipoly.mul': ('calls', 'self_s'),
    'multipoly.substitute': ('calls', 'self_s'),
    'hooks.enumerate_hooks': ('calls', 'self_s'),
    'hooks.dual_weight': ('self_s',),
    'solver.full_preimage': ('calls', 'self_s'),
    'solver.c_poly_hc': ('self_s',),
    'solver.c_star_poly': ('self_s',),
    'solver.verify_sv': ('self_s',),
    'solver.ia_star_basis': ('self_s',),
    'solver.c_poly_interp': ('self_s',),
    'solver.sp_basis': ('self_s',),
    'solver.sp_star': ('self_s',),
    'cache.load': ('calls', 'self_s', 'hit_ratio'),
    'cache.store': ('calls', 'self_s', 'bytes'),
    'cli.json': ('self_s',),
}
PER_LAYER.update({'cli.suite.%s' % s: ('wall_s',) for s in SUITES})
RATIOS = {'useful_ratio': 'useful', 'hit_ratio': 'hits'}
RENAMED = {'cache.load.hit_ratio': 'cache.hit_ratio'}
LAYER_NAMES = ('superlie', 'weyl', 'linalg', 'multipoly', 'hooks', 'solver',
               'cache', 'cli')


def worker_env():
    env = dict(os.environ)
    env.pop('SUPERCAPELLI_CACHE', None)
    env['PYTHONHASHSEED'] = '0'
    env['PYTHONPATH'] = SRC
    return env


def measure_setup(env):
    """Seconds from spawning `python3` to the end of `import supercapelli`.

    The probe prints the system-wide monotonic clock once the import is
    done, so neither process exit nor the polling of a timed wait is
    counted.
    """
    code = 'import time, supercapelli; print(time.monotonic())'
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, '-c', code], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        times.append(float(proc.stdout) - t0)
    return times


def run_worker(args, workdir, env, trace):
    """One fresh worker process; returns its record, or None if it died."""
    cmd = [sys.executable, os.path.join(HERE, 'worker.py'),
           '--workload', args.workload, '--seed', str(args.seed),
           '--workdir', workdir]
    if trace:
        cmd.append('--trace')
    if args.inject:
        cmd += ['--inject', args.inject]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print('worker timed out', file=sys.stderr)
        return None
    if proc.returncode != 0:
        print('worker exited %d: %s' % (proc.returncode, proc.stderr[-2000:]),
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Checked results over all samples of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, record):
        if record is None:          # a dead worker is one failed result
            self.attempted += 1
            self.failed += 1
            return
        for item in record['items']:
            self.attempted += 1
            if not item['ok']:
                self.failed += 1
                print('FAIL %s: %s' % (item['name'], item['detail']),
                      file=sys.stderr)

    def fail(self, what):
        self.attempted += 1
        self.failed += 1
        print('FAIL %s' % what, file=sys.stderr)


def end_to_end(args, workdir, env, tally):
    setups = measure_setup(env)
    records = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        record = run_worker(args, workdir, env, trace=False)
        tally.add(record)
        if record is None:
            return {}
        records.append(record)
        now = time.perf_counter()
        # Start another sample only if one as long as the last still fits.
        if now - start + (now - t0) > args.seconds:
            break
    walls = [r['wall_s'] for r in records]
    item_max = [max(i['seconds'] for i in r['items']) for r in records]
    rss = [r['peak_rss_mb'] for r in records]
    return {'wall_s': (walls, 's'), 'item_max_s': (item_max, 's'),
            'setup_s': (setups, 's'), 'peak_rss_mb': (rss, 'MB')}


def layer_metric(trace, span, what):
    """(value, unit) of one per-layer metric from a span summary."""
    if what == 'calls':
        return trace['calls'].get(span, 0), 'count'
    if what in ('self_s', 'wall_s'):
        table = 'self_s' if what == 'self_s' else 'total_s'
        return trace[table].get(span, 0.0), 's'
    if what in RATIOS:
        calls = trace['calls'].get(span, 0)
        hits = trace['counts'].get('%s|%s' % (span, RATIOS[what]), 0)
        return (hits / calls if calls else 0.0), 'ratio'
    unit = 'bytes' if what == 'bytes' else 'count'
    return trace['counts'].get('%s|%s' % (span, what), 0), unit


def per_layer(args, workdir, env, tally):
    untraced = run_worker(args, workdir, env, trace=False)
    tally.add(untraced)
    traced = []
    for _ in range(2):
        record = run_worker(args, workdir, env, trace=True)
        tally.add(record)
        if record is not None:
            traced.append(record)
    if untraced is None or len(traced) < 2:
        return {}
    first, second = (r['trace'] for r in traced)
    if (first['calls'], first['counts']) != \
            (second['calls'], second['counts']):
        tally.fail('trace counts differ between two traced runs')
    for name in COVERAGE[args.workload]:
        span, _, key = name.partition('|')
        value = first['counts'].get(name, 0) if key \
            else first['calls'].get(span, 0)
        if not value:
            tally.fail('no %s recorded on %s; a binding was missed'
                       % (name, args.workload))
    metrics = {}
    for span, whats in PER_LAYER.items():
        for what in whats:
            values = [layer_metric(r['trace'], span, what) for r in traced]
            name = '%s.%s' % (span, what)
            metrics[RENAMED.get(name, name)] = (
                [v for v, _ in values], values[0][1])
    traced_walls = [r['wall_s'] for r in traced]
    layer_self = {layer: [] for layer in LAYER_NAMES}
    for record in traced:
        per_layer_s = dict.fromkeys(LAYER_NAMES, 0.0)
        for span, secs in record['trace']['self_s'].items():
            per_layer_s[span.split('.')[0]] += secs
        if sum(per_layer_s.values()) > record['wall_s']:
            tally.fail('layer self time exceeds the traced wall time')
        for layer, secs in per_layer_s.items():
            layer_self[layer].append(secs)
    for layer, values in layer_self.items():
        metrics['%s.self_s' % layer] = (values, 's')
    metrics['trace.wall_s'] = (traced_walls, 's')
    metrics['trace.overhead_s'] = (
        [w - untraced['wall_s'] for w in traced_walls], 's')
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', required=True, choices=WORKLOADS)
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    ap.add_argument('--inject', default=None,
                    help='fault to inject (see selftest.py)')
    args = ap.parse_args(argv)
    for need in (os.path.join(SRC, 'supercapelli', '__init__.py'),
                 os.path.join(HERE, 'golden.json')):
        if not os.path.isfile(need):
            print('error: %s not found; run from a checkout of the '
                  'repository' % os.path.relpath(need, ROOT), file=sys.stderr)
            return 2
    workdir = os.path.join(ROOT, '.bench_work', '%s-%d'
                           % (args.workload, os.getpid()))
    os.makedirs(workdir)
    env = worker_env()
    tally = Tally()
    try:
        if args.trace:
            samples = per_layer(args, workdir, env, tally)
        else:
            samples = end_to_end(args, workdir, env, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    correct = tally.failed == 0 and bool(samples)
    metrics = {}
    for name, (values, unit) in samples.items():
        metrics[name] = {'value': statistics.median(values), 'unit': unit}
        print('%-40s %12.6g %-5s median of n=%d: %s'
              % (name, metrics[name]['value'], unit, len(values),
                 ' '.join('%.6g' % v for v in values)))
    print('%-40s %12.6g %-5s %d of %d checked results failed'
          % ('fail_share', tally.failed / max(tally.attempted, 1), 'ratio',
             tally.failed, tally.attempted))
    print(json.dumps({
        'correct': correct,
        'attempted': max(tally.attempted, 1),
        'failed': tally.failed if tally.attempted else 1,
        'metrics': metrics,
    }))
    return 0 if correct else 1


if __name__ == '__main__':
    sys.exit(main())
