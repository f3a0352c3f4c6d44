"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Shows that a command whose stdout differs from the reference by one byte, a
command that exits nonzero, and a command that prints a traceback each count
as failed, while the same command with its stdout intact passes.  Exits 0
when every case is classified as expected.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time

from run import ROOT, Runner, command_key, load_reference

GOOD = ["gram", "--m", "2", "--n", "10", "--mode", "eval", "--q0", "2"]
USAGE_ERROR = ["x0-matrix", "--m", "1", "--n", "3"]  # rejected with exit 2
TRACEBACK = b'Traceback (most recent call last):\n  File "cli.py", line 1\nValueError: boom\n'


def main() -> int:
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        runner = Runner(load_reference(), tmpdir, time.monotonic() + 120.0)
        good = runner.run("plain", GOOD)
        usage = runner.run("plain", USAGE_ERROR)
        # the same output, damaged after the fact, goes through the same check
        reasons = {}
        for label, res in (("corrupted", dict(good, stdout=good["stdout"][:-2] + b"X\n")),
                           ("traceback", dict(good, stderr=TRACEBACK, code=1))):
            runner.attempted += 1
            reasons[label] = runner.check(res)
            if reasons[label] is not None:
                runner.failures.append(f"{command_key(GOOD)} [{label}]: {reasons[label]}")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    cases = [
        ("intact stdout passes", good["ok"]),
        ("corrupted stdout fails", "differs" in (reasons["corrupted"] or "")),
        ("nonzero exit fails", not usage["ok"] and "exit code 2" in runner.check(usage)),
        ("traceback fails", "Traceback" in (reasons["traceback"] or "")),
        ("ops_failed is 3 of 4", (len(runner.failures), runner.attempted) == (3, 4)),
    ]
    for label, ok in cases:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    for line in runner.failures:
        print(f"     counted: {line.splitlines()[0][:160]}")
    return 0 if all(ok for _, ok in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
