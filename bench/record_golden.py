"""Record the golden digests of the unique objects the workloads build.

    python3 bench/record_golden.py

Runs every workload once without checking digests and writes
bench/golden.json.  Run it only on a commit whose results are trusted;
the committed table was recorded on the seed commit of the library.
An object built by two workloads must have one digest.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402

WORKLOADS = ('verify-all', 'pipeline', 'interp', 'cli-cache')


def main():
    golden = {}
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as tmp:
            record = worker.run_sample(workload, 0, tmp, golden=None)
        failed = [i for i in record['items'] if not i['ok']]
        if failed:
            print('%s: %d items failed, not recording: %s'
                  % (workload, len(failed), failed[0]['detail']))
            return 1
        for key, value in record['digests'].items():
            if golden.setdefault(key, value) != value:
                print('%s: two digests for %s' % (workload, key))
                return 1
        print('%s: %d digests' % (workload, len(record['digests'])))
    with open(worker.GOLDEN_PATH, 'w') as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write('\n')
    return 0


if __name__ == '__main__':
    sys.exit(main())
