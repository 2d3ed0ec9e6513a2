"""Record the reference sweep digests that the correctness gate checks.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json: for each sweep workload, the SHA-256 of the
CSV that its reference call produces (the workload's spec at
workloads.REFERENCE_SEED with workloads.REFERENCE_TRIALS trials per point).
Sweep output is a pure function of the spec, so re-record only when a change
is meant to alter it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gate  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    table = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for w in workloads.WORKLOADS.values():
            if not w.census:
                table[w.name] = gate.digest(workloads.reference_csv(w, Path(tmp)))
                print(w.name, table[w.name], flush=True)
    gate.DIGESTS_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
