"""Run one `supercapelli` CLI command, optionally traced.

    python3 bench/cli_main.py [--trace-dir DIR] [--inject FAULT] -- ARGS...

ARGS are passed to the CLI unchanged.  With --trace-dir the library is
wrapped by the span tracer and the span summary of this process is
written to DIR/<pid>.json when the command returns.
"""

import argparse
import json
import os
import sys

import selftest
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), 'src'))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--trace-dir', default=None)
    ap.add_argument('--inject', default=None)
    ap.add_argument('args', nargs=argparse.REMAINDER)
    opts = ap.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ['--'] else opts.args
    spans = None
    if opts.trace_dir:
        spans = tracer.Tracer()
        tracer.install(spans)
    if opts.inject:
        selftest.inject(opts.inject)
    from supercapelli import cli
    code = cli.main(args)
    if spans is not None:
        path = os.path.join(opts.trace_dir, '%d.json' % os.getpid())
        with open(path, 'w') as fh:
            json.dump(spans.dump(), fh)
    return code


if __name__ == '__main__':
    sys.exit(main())
