import json
import os
import sys
import threading
import warnings

import pytest

import supercapelli
from supercapelli.cache import DiskCache, default_cache, cache_key


def test_round_trip(tmp_path):
    cache = DiskCache(str(tmp_path))
    key = ('capelli-op', 1, 2, 'half', [2])
    payload = {'terms': [{'coef': '1/2'}], 'm': 1, 'n': 2}
    assert cache.load(key) is None
    cache.store(key, payload)
    assert cache.load(key) == payload
    # byte-identical file on re-store
    path = cache._path(key)
    with open(path, 'rb') as fh:
        first = fh.read()
    cache.store(key, payload)
    with open(path, 'rb') as fh:
        assert fh.read() == first


def test_distinct_keys(tmp_path):
    cache = DiskCache(str(tmp_path))
    cache.store(('a', 1), {'v': 1})
    cache.store(('a', 2), {'v': 2})
    assert cache.load(('a', 1)) == {'v': 1}
    assert cache.load(('a', 2)) == {'v': 2}
    assert cache_key(('a', 1)) != cache_key(('a', 2))


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = DiskCache(str(tmp_path))
    key = ('basis', 1, 1, 2)
    cache.store(key, {'v': 1})
    with open(cache._path(key), 'w') as fh:
        fh.write('not json at all {')
    with pytest.warns(UserWarning):
        assert cache.load(key) is None
    # recompute-and-overwrite restores the entry
    cache.store(key, {'v': 1})
    assert cache.load(key) == {'v': 1}


def test_tampered_payload_is_a_miss(tmp_path):
    cache = DiskCache(str(tmp_path))
    key = ('basis', 1, 1, 3)
    cache.store(key, {'v': 1})
    with open(cache._path(key)) as fh:
        data = json.load(fh)
    data['payload']['v'] = 2
    with open(cache._path(key), 'w') as fh:
        json.dump(data, fh)
    with pytest.warns(UserWarning):
        assert cache.load(key) is None


def test_version_mismatch_is_a_silent_miss(tmp_path):
    cache = DiskCache(str(tmp_path))
    key = ('basis', 2, 2, 1)
    cache.store(key, {'v': 1})
    with open(cache._path(key)) as fh:
        data = json.load(fh)
    data['version'] = '0'
    with open(cache._path(key), 'w') as fh:
        json.dump(data, fh)
    assert cache.load(key) is None


def test_entry_of_another_library_version_is_a_miss(tmp_path, monkeypatch):
    cache = DiskCache(str(tmp_path))
    key = ('capelli-op', 1, 1, 'half', [2])
    current = supercapelli.__version__
    monkeypatch.setattr(supercapelli, '__version__', current + '.other')
    cache.store(key, {'v': 'old'})
    assert cache.load(key) == {'v': 'old'}
    monkeypatch.setattr(supercapelli, '__version__', current)
    with warnings.catch_warnings():
        warnings.simplefilter('error')
        assert cache.load(key) is None
    cache.store(key, {'v': 'new'})
    assert cache.load(key) == {'v': 'new'}
    with open(cache._path(key)) as fh:
        assert current in json.load(fh)['version']
    assert os.listdir(str(tmp_path)) == [os.path.basename(cache._path(key))]


def test_default_cache_env(tmp_path, monkeypatch):
    monkeypatch.delenv('SUPERCAPELLI_CACHE', raising=False)
    assert default_cache() is None
    monkeypatch.setenv('SUPERCAPELLI_CACHE', str(tmp_path / 'env'))
    cache = default_cache()
    assert cache is not None
    assert os.path.isdir(str(tmp_path / 'env'))
    explicit = default_cache(str(tmp_path / 'explicit'))
    assert explicit.directory == str(tmp_path / 'explicit')


def test_concurrent_stores_leave_one_entry(tmp_path):
    # Writers storing one key at once: with a shared temp path one
    # writer's rename could find the file already moved away.
    key = ('capelli-op', 2, 1, 'half', [3, 1])
    payloads = [{'writer': w, 'terms': list(range(200))} for w in range(4)]
    errors = []

    def writer(payload):
        cache = DiskCache(str(tmp_path))
        try:
            for _ in range(25):
                cache.store(key, payload)
        except Exception as exc:  # collected for the main thread
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert DiskCache(str(tmp_path)).load(key) in payloads
    assert sorted(os.listdir(str(tmp_path))) == [cache_key(key) + '.json']


def test_failed_store_leaves_no_temp_file(tmp_path, monkeypatch):
    cache = DiskCache(str(tmp_path))
    key = ('basis', 1, 1, 4)

    def broken_dump(obj, fh):
        fh.write('{"partial')
        raise OSError('disk full')

    monkeypatch.setattr(json, 'dump', broken_dump)
    with pytest.raises(OSError):
        cache.store(key, {'v': 1})
    assert os.listdir(str(tmp_path)) == []
    assert cache.load(key) is None
