"""Record golden fingerprints for every op that carries one.

    python3 perfbench/record_golden.py

Run it only on a commit whose outputs are trusted: the benchmark fails any
later op whose output drifts from these values by more than rtol 1e-9.
Golden ops take no seeded input, so any seed gives the same record.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import GOLDEN_PATH, fingerprint  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    import gmebound.cli

    golden = {}
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        for workload in WORKLOADS.values():
            inputs = workload.write_inputs(0, work)
            for op in workload.ops:
                if not op.golden:
                    continue
                out = os.path.join(work, op.name + ".out")
                rc = gmebound.cli.main(op.resolve(inputs) + ["--output", out])
                if rc != op.rc:
                    print(f"{op.name}: exit code {rc}, want {op.rc}", file=sys.stderr)
                    return 1
                with open(out, encoding="utf-8") as fh:
                    text = fh.read()
                op.check(text, inputs)
                golden[op.name] = fingerprint(op.golden, text)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} fingerprints to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
