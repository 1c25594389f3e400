#!/usr/bin/env python3
"""Record reference.json: the insertion sequences, f_star values and exact
optima that the default seed must reproduce.

    python3 perfbench/record_reference.py

Run it only to re-baseline on purpose, on a commit whose outputs are
known to be right; the runner counts any later deviation as a failure.
"""

from __future__ import annotations

import json
import sys
import tempfile

from run import DEFAULT_SEED, REFERENCE, RESULTS, import_program


def main() -> int:
    import_program()
    import checks
    import workloads
    from common import WORKLOADS
    from spans import Recorder

    RESULTS.mkdir(exist_ok=True)
    reference = {}
    for workload in WORKLOADS:
        for scale in ("full", "tiny"):
            par = workloads.params(workload, DEFAULT_SEED, scale)
            with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
                instances, _ = workloads.setup(workload, par, workdir)
            rec = Recorder()
            entry = {}
            for _, ops in workloads.groups(workload, par, instances):
                for key, inst, fn in ops:
                    result = fn(rec)
                    fails = checks.side_check(inst, result) + checks.deep_check(inst, result)
                    if fails:
                        sys.exit(f"{workload}/{scale} {key}: {fails}")
                    entry[key] = checks.outcome(result)
            reference[f"{workload}/{scale}"] = entry
            print(f"recorded {workload}/{scale}: {len(entry)} operations", flush=True)
    REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
