"""Record the replay digests that run.py checks.

    python3 perfbench/record_digests.py

Runs the replay block of every workload and writes the SHA-256 of its
structured reports into workloads.json.  Run it only when an
intended change of the reports is accepted: bit-identical replay is the
contract, so any other change of a digest is a failure.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    meta = json.loads(run.META_FILE.read_text())
    for workload in WORKLOADS:
        runner = run.Runner(workload, run.REPLAY_SEED)
        try:
            runner.setup(1)
            digest = runner.replay_digest()
        finally:
            runner.close()
        if runner.failures:
            print(f"{workload}: {runner.failures[:3]}", file=sys.stderr)
            return 1
        meta["workloads"][workload]["digest"] = digest
        print(workload, digest, flush=True)
    run.META_FILE.write_text(json.dumps(meta, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
