"""Record golden.json: the output digest of every item at the default
seed (metrics JSON for run items, verdict and witness pattern for check
items) and the random-suite trace hash.

    python3 perfbench/record_golden.py

Re-record only after a deliberate output change, and say so in
CHANGES.md; a speedup must leave this file unchanged.
"""

import json
import sys

import run
import suite
import workloads


def main() -> int:
    program = run.Program()
    items = {}
    for name in sorted(workloads.WORKLOADS):
        batch = workloads.generate(name, run.DEFAULT_SEED)
        records, _, failed = run.checking_pass(program, batch, {})
        if failed:
            for item_id, rec in records.items():
                for problem in rec.problems:
                    print(f"{item_id}: {problem}", file=sys.stderr)
            return 1
        items[name] = {k: r.golden for k, r in records.items()}
    golden = {
        "default_seed": run.DEFAULT_SEED,
        "suite_sha256": suite.suite_hash(program.es),
        "items": items,
    }
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
