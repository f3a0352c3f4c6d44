"""Record the reference stdout of every benchmark command.

    python3 perfbench/record.py

Runs each distinct command of every workload, over all the seeds that give
distinct inputs, once through ``python3 -m modmac.cli`` and writes the
sha256 and byte count of its stdout to ``perfbench/reference.json``.  A
command that exits nonzero or prints a traceback aborts the recording.

The references pin the outputs of the commit they were recorded from; the
roadmap requires byte-identical CLI output, so re-record only for a change
that is meant to alter it, and say so.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time

from run import EVAL_POINTS, REFERENCE, ROOT, SELFCHECK_SEEDS, WORKLOADS, command_key


def distinct_commands() -> list[list[str]]:
    seen: dict[str, list[str]] = {}
    for make, _ in WORKLOADS.values():
        for seed in range(max(len(EVAL_POINTS), SELFCHECK_SEEDS)):
            for rnd in range(len(EVAL_POINTS)):
                for cmd in make(seed, rnd):
                    seen.setdefault(command_key(cmd), cmd)
    return list(seen.values())


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    outputs = {}
    for cmd in distinct_commands():
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "modmac.cli"] + cmd, cwd=ROOT, env=env,
                              capture_output=True)
        wall = time.monotonic() - t0
        if proc.returncode != 0 or b"Traceback" in proc.stderr:
            print(f"{command_key(cmd)}: exit {proc.returncode}\n{proc.stderr.decode()}",
                  file=sys.stderr)
            return 1
        outputs[command_key(cmd)] = {"sha256": hashlib.sha256(proc.stdout).hexdigest(),
                                     "bytes": len(proc.stdout)}
        print(f"{wall:8.3f} s  {len(proc.stdout):7d} B  {command_key(cmd)}", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump({"python": platform.python_version(), "outputs": outputs}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
