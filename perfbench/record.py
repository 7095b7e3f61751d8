"""Record the report fingerprints that the benchmark checks against.

    python3 perfbench/record.py

Runs every configuration that any seed can draw once, untraced, through
``perfbench/client.py`` and writes ``perfbench/fingerprints.json``.  Run
it only at a commit whose reports are known to be right: from then on a
changed report counts as a failed configuration.
"""

from __future__ import annotations

import json
import sys
import time

from run import FINGERPRINTS, BenchError, spawn
from workloads import WORKLOADS, all_configs


def main() -> int:
    recorded = {}
    for workload in WORKLOADS:
        configs = all_configs(workload)
        start = time.monotonic()
        out, _ = spawn([], {"configs": configs, "trace": False, "spans": None}, start + 3600)
        for argv, res in zip(configs, out["results"], strict=True):
            key = " ".join(argv)
            if res["exit"] != 0 or not res.get("passed"):
                raise BenchError(f"{key} did not pass: {res}")
            recorded[key] = res["fingerprint"]
        print(f"{workload}: {len(configs)} configurations in {time.monotonic() - start:.1f} s")
    FINGERPRINTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
