"""Span tracer that wraps the library's functions from outside.

`install()` replaces every public function of each layer module, and a
few named methods, with a wrapper that opens a span (name, start, end,
parent) around the call.  A closed span is folded into per-name totals
at once: its duration is added to its parent's child time, and its self
time is the duration minus the time its child spans cover.  Spans are
not kept after they close, so memory does not grow with the call count.

A wrapper replaces the original in every namespace that binds it: the
defining module, each module that did `from .x import f`, the package
namespace and dict tables such as `cli.SUITES`.  Imports inside function
bodies (`from .linalg import mat_reduce`) read the defining module at
call time and so see the wrapper too.
"""

import functools
import importlib
import inspect
import os
import sys
import time

LAYERS = ('superlie', 'weyl', 'linalg', 'multipoly', 'hooks', 'solver',
          'cache', 'cli')


def _terms_out(args, kwargs, result):
    return {'terms_out': len(result.terms)}


def _words_in(args, kwargs, result):
    return {'words_in': len(args[0].terms)}


def _index_tuples(args, kwargs, result):
    ambient, sigma = args[0], args[1]
    return {'index_tuples': ambient.dim ** len(sigma)}


def _cells(args, kwargs, result):
    rows = args[0]
    ncols = args[1] if len(args) > 1 and args[1] is not None \
        else kwargs.get('ncols')
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return {'cells': len(rows) * ncols}


def _useful(args, kwargs, result):
    return {'useful': int(result == len(args[0]))}


def _cache_hit(args, kwargs, result):
    return {'hits': int(result is not None)}


def _cache_bytes(args, kwargs, result):
    cache, parts = args[0], args[1]
    return {'bytes': os.path.getsize(cache._path(parts))}


# Work counts recorded at a span's boundary, keyed by span name.
COUNTERS = {
    'superlie.pbw_normalize': _terms_out,
    'weyl.weyl_mul': _terms_out,
    'weyl.rho_check': _words_in,
    'weyl.t_sigma': _index_tuples,
    'linalg.mat_reduce': _cells,
    'linalg.dict_vectors_rank': _useful,
    'cache.load': _cache_hit,
    'cache.store': _cache_bytes,
}


class Tracer:
    """Per-name call counts, inclusive and self time, and work counts."""

    def __init__(self):
        self.calls = {}
        self.total_s = {}
        self.self_s = {}
        self.counts = {}
        self._stack = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A span is [name, start, end, parent, child time].
            span = [name, clock(), None, stack[-1] if stack else None, 0.0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                self._close(span)
            if counter is not None:
                for key, k in counter(args, kwargs, result).items():
                    self.counts[(name, key)] = \
                        self.counts.get((name, key), 0) + k
            return result

        return traced

    def _close(self, span):
        name, start, end, parent, child = span
        dur = end - start
        if parent is not None:
            parent[4] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child

    def dump(self):
        """A JSON-ready summary, mergeable with `merge`."""
        return {
            'calls': self.calls, 'total_s': self.total_s,
            'self_s': self.self_s,
            'counts': {'%s|%s' % k: v for k, v in self.counts.items()},
        }


def merge(dumps):
    """Sum several `Tracer.dump()` summaries (one per process)."""
    out = {'calls': {}, 'total_s': {}, 'self_s': {}, 'counts': {}}
    for d in dumps:
        for part, table in out.items():
            for k, v in d[part].items():
                table[k] = table.get(k, 0) + v
    return out


def _methods():
    """(class, attribute, span name) for the methods traced by name."""
    from supercapelli.cache import DiskCache
    from supercapelli.multipoly import AffineSubstitution, MultiPoly
    from supercapelli.superlie import UEAElement
    from supercapelli.weyl import WeylElement
    out = [
        (MultiPoly, 'evaluate', 'multipoly.evaluate'),
        (MultiPoly, '__mul__', 'multipoly.mul'),
        (AffineSubstitution, 'apply', 'multipoly.substitute'),
        (DiskCache, 'load', 'cache.load'),
        (DiskCache, 'store', 'cache.store'),
    ]
    for cls in (MultiPoly, UEAElement, WeylElement):
        for attr in ('to_json', 'from_json'):
            if attr in vars(cls):
                out.append((cls, attr, 'cli.json'))
    return out


def install(spans):
    """Wrap the library in place, recording into the Tracer `spans`."""
    modules = {layer: importlib.import_module('supercapelli.' + layer)
               for layer in LAYERS}
    suite_names = {fn: key for key, fn in modules['cli'].SUITES.items()}
    wrapped = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith('_')):
                span = 'cli.suite.%s' % suite_names[obj] \
                    if obj in suite_names else '%s.%s' % (layer, name)
                wrapped[obj] = spans.wrap(span, obj)
    for cls, attr, span in _methods():
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(spans.wrap(span, raw.__func__)))
        else:
            setattr(cls, attr, spans.wrap(span, raw))
    for modname, mod in list(sys.modules.items()):
        if not (modname == 'supercapelli'
                or modname.startswith('supercapelli.')):
            continue
        space = vars(mod)
        for name, obj in list(space.items()):
            if inspect.isfunction(obj) and obj in wrapped:
                space[name] = wrapped[obj]
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if inspect.isfunction(val) and val in wrapped:
                        obj[key] = wrapped[val]
