"""Pin the exit code and stdout sha256 of every CLI operation the benchmark
runs, at both scales, into perfbench/digests.json.

Run from the repository root only when the CLI output is meant to change:

    python3 perfbench/pin_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import DIGESTS_PATH, WHY, CliWorkload, argv_key, make_workload, run_cli  # noqa: E402


def main() -> int:
    pinned = {}
    for scale in ("tiny", "full"):
        for name in WHY:
            workload = make_workload(name, seed=0, scale=scale)
            if not isinstance(workload, CliWorkload):
                continue
            for argv in workload.ops + (workload.serial_ops or []):
                code, stdout = run_cli(argv)
                if code is None:
                    print(f"{argv_key(argv)}: raised {stdout}", file=sys.stderr)
                    return 1
                data = stdout.encode()
                pinned[argv_key(argv)] = {
                    "exit": code,
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "bytes": len(data),
                }
                print(f"{code} {pinned[argv_key(argv)]['sha256'][:16]} {argv_key(argv)}")
    DIGESTS_PATH.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
