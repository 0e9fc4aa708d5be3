"""On-disk cache for expensive computed objects.

One file per key.  Each file holds a version tag, the JSON payload and a
content hash of the payload, so corruption is detected without any
database dependency.  The version tag names both the file format and the
library version, so an entry written by another version of the code
loads as a silent miss.  A corrupt entry is also treated as a miss (the
caller recomputes and overwrites), with a warning.
"""

import contextlib
import hashlib
import json
import os
import tempfile
import warnings

CACHE_VERSION = '1'


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(',', ':'))


def _version_tag():
    """Format and library version of the entries this code writes.  The
    import is at call time because the package defines __version__ only
    after it has imported this module."""
    from . import __version__
    return '%s/%s' % (CACHE_VERSION, __version__)


def cache_key(parts):
    """Deterministic file-name key from a tuple describing the object
    (kind, ranks, degree, ...)."""
    return hashlib.sha256(_canonical(list(parts)).encode()).hexdigest()


class DiskCache:

    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, parts):
        return os.path.join(self.directory, cache_key(parts) + '.json')

    def load(self, parts):
        """The stored payload, or None on miss/corruption (with warning)."""
        path = self._path(parts)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                data = json.load(fh)
            if data.get('version') != _version_tag():
                return None
            payload = data['payload']
            digest = hashlib.sha256(_canonical(payload).encode()).hexdigest()
            if digest != data['hash']:
                raise ValueError('content hash mismatch')
            return payload
        except Exception as exc:
            warnings.warn('corrupt cache entry %s (%s); recomputing'
                          % (os.path.basename(path), exc))
            return None

    def store(self, parts, payload):
        digest = hashlib.sha256(_canonical(payload).encode()).hexdigest()
        data = {'version': _version_tag(), 'key': list(parts),
                'payload': payload, 'hash': digest}
        # A temp file of its own per writer, renamed into place, so that
        # concurrent stores of one key never share a half-written file.
        path = self._path(parts)
        fd, tmp = tempfile.mkstemp(dir=self.directory,
                                   prefix=os.path.basename(path) + '.',
                                   suffix='.tmp')
        try:
            with os.fdopen(fd, 'w') as fh:
                json.dump(data, fh)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise


def default_cache(cache_dir=None):
    """DiskCache from an explicit directory or the SUPERCAPELLI_CACHE
    environment variable; None when neither is set (caching disabled)."""
    directory = cache_dir or os.environ.get('SUPERCAPELLI_CACHE')
    return DiskCache(directory) if directory else None
