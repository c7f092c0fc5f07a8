"""Record the benchmark's input pool and golden digests.

Run only at a commit whose outputs are the reference (the seed commit):

    python3 perfbench/record.py

It rewrites perfbench/data/golden.json, every section at once.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from qsfbench.source import SourceMissing, import_qsecfan  # noqa: E402

if __name__ == "__main__":
    try:
        import_qsecfan()
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    from qsfbench.record import main
    sys.exit(main(sys.argv[1:]))
