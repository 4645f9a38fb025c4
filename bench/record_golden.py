"""Record the final fidelity of every point of every workload into golden.json.

    python3 bench/record_golden.py

Run once on the code whose numbers are the reference. The benchmark then
fails any point whose fidelity moves by more than 1e-12 (see stats.GOLDEN_TOL).
"""

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from workloads import SRC, WORKLOADS, program_env



def main() -> int:
    os.environ.update(program_env())
    sys.path.insert(0, str(SRC))
    golden = {}
    work = Path(tempfile.mkdtemp(prefix="golden-", dir=SRC.parent))
    try:
        for name, cls in WORKLOADS.items():
            result = cls(seed=0).in_process_pass(work / name)
            if result.error:
                print(f"{name}: {result.error}", file=sys.stderr)
                return 1
            golden[name] = {"points": len(result.points), "fidelity": dict(sorted(result.points))}
            print(f"{name}: {len(result.points)} points")
    finally:
        shutil.rmtree(work)
    with open(Path(__file__).with_name("golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
