"""Negative self-test of the benchmark's result checks.

    python3 bench/selftest.py

Runs each workload once with a wrong result injected into the library
and asserts that the benchmark counts failures (`failed` > 0, so
fail_share > 0) and exits nonzero.  `inject` is also called inside the
worker and CLI processes when the benchmark is given --inject.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# workload -> fault injected while it runs
CASES = {
    'verify-all': 'suite-empty',
    'pipeline': 'c-interp-rescaled',
    'interp': 'c-interp-rescaled',
    'cli-cache': 'd-poly-rescaled',
}


def _rebind(module_names, name, fn):
    for modname in module_names:
        setattr(sys.modules[modname], name, fn)


def inject(fault):
    """Replace one library result with a wrong one, in every namespace
    that binds it."""
    from supercapelli import cli, solver, weyl
    if fault == 'suite-empty':
        # A suite that runs no cases still reports `overall: pass`.
        cli.SUITES['vanishing'] = lambda args: []
    elif fault == 'c-interp-rescaled':
        original = solver.c_poly_interp

        def c_poly_interp(params, b, basis=None):
            c = original(params, b, basis=basis)
            return solver.EigenPoly(c.b, c.poly.scale(2))
        _rebind(['supercapelli', 'supercapelli.solver', 'supercapelli.cli'],
                'c_poly_interp', c_poly_interp)
    elif fault == 'd-poly-rescaled':
        original = weyl.spherical_poly

        def spherical_poly(params, b, capelli=None):
            return original(params, b, capelli=capelli).scale(2)
        _rebind(['supercapelli', 'supercapelli.weyl', 'supercapelli.cli'],
                'spherical_poly', spherical_poly)
    else:
        raise ValueError('unknown fault %r' % fault)


def main():
    bad = []
    for workload, fault in CASES.items():
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, 'run.py'),
             '--workload', workload, '--seed', '1', '--seconds', '1',
             '--trace', '0', '--inject', fault],
            capture_output=True, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        caught = (proc.returncode != 0 and result.get('failed', 0) > 0
                  and result.get('correct') is False)
        print('%-10s %-18s exit=%d failed=%s attempted=%s -> %s'
              % (workload, fault, proc.returncode, result.get('failed'),
                 result.get('attempted'), 'caught' if caught else 'MISSED'))
        if not caught:
            bad.append(workload)
    if bad:
        print('self-test FAILED: injected faults not caught on %s'
              % ', '.join(bad))
        return 1
    print('self-test passed: every injected fault was caught')
    return 0


if __name__ == '__main__':
    sys.exit(main())
