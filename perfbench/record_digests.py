"""Record the committed simulated-output digests.

    python3 perfbench/record_digests.py --seeds 0-15 [--workload NAME ...]

Runs each unit of each workload once per seed (untraced, cold caches)
and stores the unit's concatenated op digests in ``digests.json``, keyed
by the platform they were recorded on.  Refuses to record a seed on
which any operation fails.  Re-record only when a change is *meant* to
move a simulated number, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="N or LO-HI")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    run._import_program()
    from suite import WORKLOADS

    names = args.workload or list(WORKLOADS)
    here = run.platform_id()
    doc = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    if doc.get("platform") != here:
        doc = {"platform": here, "workloads": {}}
    for name in names:
        w = WORKLOADS[name]
        table = doc["workloads"].setdefault(name, {})
        for seed in _seeds(args.seeds):
            _, ops = run.run_pass(w, seed)
            flat = [op for unit_ops in ops.values() for op in unit_ops]
            attempted, failed = run.tally(flat)
            if failed:
                bad = next(op for op in flat if op.error is not None)
                print(f"{name} seed {seed}: {failed}/{attempted} failed "
                      f"({bad.op_id}: {bad.error}); not recorded",
                      file=sys.stderr)
                return 1
            table[str(seed)] = {u: run.unit_digests(o) for u, o in ops.items()}
            print(f"{name} seed {seed}: {attempted} ops recorded", flush=True)
    doc["workloads"] = {k: dict(sorted(v.items(), key=lambda kv: int(kv[0])))
                        for k, v in sorted(doc["workloads"].items())}
    run.DIGESTS.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
