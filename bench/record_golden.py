"""Record bench/golden.json: output digests of every workload at its own seed.

Usage: python3 bench/record_golden.py

Runs each workload's bundled scenario at its file's `master_seed`, at the
smoke and the bench size, untraced, and stores the SHA-256 of report.json,
trials.csv and the trace files.  The reports must stay byte-identical for a
given seed, so re-record only for a change that is meant to alter them.
"""

import json
import os
import shutil
import sys

from run import GOLDEN, OUT_ROOT, Session, load_cli
from workloads import WORKLOADS, default_seed


def main() -> int:
    cli = load_cli()
    golden = {}
    for name, workload in sorted(WORKLOADS.items()):
        out_dir = OUT_ROOT / f"golden-{name}-{os.getpid()}"
        session = Session(cli, workload, out_dir)
        seed = default_seed(cli, workload)
        entry = {"seed": seed}
        try:
            for size in ("smoke", "bench"):
                batch = session.batch(seed, size)
                if batch is None:
                    return 1
                entry[size] = dict(trials=workload.trials[size], **batch.digests)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        golden[name] = entry
        print(f"{name}: {json.dumps(entry)}")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
