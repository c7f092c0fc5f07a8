"""Run one workload of the qsecfan benchmark:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: enumerate, census, faces, paths.  The last stdout line is a
JSON object with "correct", "attempted", "failed" and "metrics".  Exits
with code 2 when the checkout has no qsecfan sources.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from qsfbench.source import SourceMissing, import_qsecfan  # noqa: E402

if __name__ == "__main__":
    try:
        import_qsecfan()
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    from qsfbench.main import main
    sys.exit(main(sys.argv[1:], _T0))
