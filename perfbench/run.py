"""Benchmark of the modmac command line: cold processes, checked outputs.

Every command runs in a fresh interpreter (``child.py``), one at a time, in a
closed loop with one client: the package's lru_caches and ``_INV_CACHE`` are
process-global and unbounded, so a warm process would time cache lookups
instead of the work a user pays for.  Each command's stdout is compared with
the digest recorded in ``reference.json``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all            # every workload, every metric

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The end-to-end times are scaled to a fixed host speed by a calibration
kernel timed around every spawn (``Scaler``); the raw times are printed on
the report lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")

# Whole-run limit, under the 180 s a run may take.
DEADLINE_S = 170.0
# Import-only spawns per run, added to the per-command set-up samples.
SETUP_SPAWNS = 5
# The end-to-end times are reported at a fixed host speed: the one at which
# calibrate() takes this long.  See Scaler and README.md.
CALIB_REF_S = 0.1
CALIB_FRACTION_STEPS = 8000
CALIB_TUPLE_STEPS = 40000

# Evaluation points; record.py checks that none collides at any shape.
EVAL_POINTS = ("2", "3", "1/2", "3/2", "-2", "4/3", "5/2", "-1/2")
EVAL_SHAPES = ((2, 10), (3, 7), (5, 6))
SELFCHECK_SEEDS = 8

LAYERS = ("partitions", "scalars", "symfunc", "newton", "vertex", "macdonald", "selfcheck", "cli")
FAMILIES = (
    "equinumerosity", "traisesq", "lowering-count", "creation-expansion", "convolution",
    "twisted-product", "operator-agreement", "raising-triangular", "self-adjoint",
    "eigenvalue-separation", "eigenbasis", "schur-q-limit",
)


def _eigen_symbolic(seed: int, rnd: int) -> list[list[str]]:
    return [["gram", "--m", "3", "--n", "5"]]


def _eigen_eval(seed: int, rnd: int) -> list[list[str]]:
    # The cost depends on the point by up to 20%.  Each round moves every
    # shape on by 3 points (coprime to 8), so a run visits most points and
    # its figures do not hinge on the point the seed starts from.
    return [["gram", "--m", str(m), "--n", str(n), "--mode", "eval",
             "--q0", EVAL_POINTS[(seed + j + 3 * rnd) % len(EVAL_POINTS)]]
            for j, (m, n) in enumerate(EVAL_SHAPES)]


def _cli_selfcheck(seed: int, rnd: int) -> list[list[str]]:
    s = str(seed % SELFCHECK_SEEDS)
    return [["selfcheck", "--m", "2", "--max-n", "6", "--seed", s, "--out", "json"],
            ["selfcheck", "--m", "3", "--max-n", "4", "--seed", s, "--out", "json"]]


# name -> (commands for a seed and round, expectations checked on the traced run):
#   pgcd: whether the symbolic gcd must run (True) or must not (False)
#   absent: layers that must leave no span
WORKLOADS = {
    "eigen-symbolic": (_eigen_symbolic, {"pgcd": True, "absent": ("newton",)}),
    "eigen-eval": (_eigen_eval, {"pgcd": False, "absent": ("newton",)}),
    "cli-selfcheck": (_cli_selfcheck, {"pgcd": True, "absent": ()}),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {
        "scalars.cycrat_mul.calls": "count",
        "scalars.cycrat_add.calls": "count",
        "scalars.cyc_mul.calls": "count",
        "scalars.pgcd.calls": "count",
        "scalars.pgcd.share": "ratio",
        "scalars.fraction.share": "ratio",
        "symfunc.expand.s": "s",
        "symfunc.expand.hit_ratio": "ratio",
        "symfunc.basis_solver.s": "s",
        "symfunc.p_to_q_reduced.s": "s",
        "symfunc.scalar_product.s": "s",
        "symfunc.scalar_product.calls": "count",
        "symfunc.p_multiply.s": "s",
        "symfunc.d_dp.calls": "count",
        "vertex.x0_apply_series.s": "s",
        "vertex.x0_apply_diff.s": "s",
        "vertex.s_apply.s": "s",
        "vertex.x0_matrix.self_s": "s",
        "vertex.eigenvalue_c.calls": "count",
        "macdonald.solve_q.recursion_s": "s",
        "macdonald.solve_q.verify_s": "s",
        "macdonald.gram.self_s": "s",
        "macdonald.schur_q_oracle.s": "s",
        "macdonald.specialize_q0.s": "s",
        "newton.newton_lhs.s": "s",
        "newton.d_lambda_mu.s": "s",
        "newton.lowering_counts.s": "s",
        "partitions.enumerate.calls": "count",
        "partitions.enumerate.s": "s",
        "partitions.dominates.calls": "count",
    }
    units.update({f"selfcheck.{f}.s": "s" for f in FAMILIES})
    units.update({
        "cli.serialize_s": "s",
        "cli.stdout_bytes": "bytes",
        "cache.entries": "count",
        "cache.hit_ratio": "ratio",
    })
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.unattributed_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


# ---------------------------------------------------------------------------
# running one command


def command_key(cmd: list[str]) -> str:
    return " ".join(cmd)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["outputs"]


class Runner:
    """Spawns child processes one at a time and checks what they print."""

    def __init__(self, reference: dict, tmpdir: str, deadline: float):
        self.reference = reference
        self.tmpdir = tmpdir
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []  # one line per failed command
        self.seq = 0

    def spawn(self, mode: str, cmd: list[str]) -> dict:
        """Run one child; returns its timings, output, exit code and meta."""
        self.seq += 1
        meta_path = os.path.join(self.tmpdir, f"meta{self.seq}.json")
        argv = [sys.executable, CHILD, ROOT, meta_path, mode, str(self.seq)] + cmd
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += b"\nbenchmark: command killed at the run deadline"
        t1 = time.monotonic()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        meta = {}
        if os.path.exists(meta_path):
            with open(meta_path) as fh:
                meta = json.load(fh)
            os.remove(meta_path)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return {"cmd": cmd, "wall": t1 - t0, "cpu": cpu,
                "setup": meta["ready"] - t0 if "ready" in meta else None,
                "code": proc.returncode, "stdout": out, "stderr": err, "meta": meta}

    def run(self, mode: str, cmd: list[str]) -> dict:
        """Spawn a command and count it as attempted, and as failed if wrong."""
        res = self.spawn(mode, cmd)
        self.attempted += 1
        reason = self.check(res)
        res["ok"] = reason is None
        if reason is not None:
            self.failures.append(f"{command_key(cmd)} [{mode}]: {reason}")
        return res

    def check(self, res: dict) -> str | None:
        if b"Traceback (most recent call last)" in res["stderr"]:
            return f"Traceback on stderr, exit code {res['code']}"
        if res["code"] != 0:
            return f"exit code {res['code']}: {res['stderr'][-300:].decode(errors='replace')}"
        ref = self.reference.get(command_key(res["cmd"]))
        if ref is None:
            return "no reference output recorded"
        digest = hashlib.sha256(res["stdout"]).hexdigest()
        if digest != ref["sha256"] or len(res["stdout"]) != ref["bytes"]:
            return f"stdout differs from the reference ({len(res['stdout'])} bytes, sha256 {digest[:16]})"
        return None


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed stretch of pure-Python work in this
    process: Fraction arithmetic, and small sorted tuples used as dict keys,
    the two kinds of work modmac spends its time on (scalars; partitions and
    caches).  It does not touch the program, so only the host's speed moves
    it."""
    w0, c0 = time.perf_counter(), time.process_time()
    acc: dict = {}
    x = Fraction(2, 3)
    for i in range(CALIB_FRACTION_STEPS):
        k = i % 61
        acc[k] = acc.get(k, 0) + x * Fraction(i % 13 + 1, i % 7 + 2)
        x = Fraction(x.numerator % 1009 + 1, x.denominator % 997 + 2)
    for i in range(CALIB_TUPLE_STEPS):
        t = tuple(sorted(((i * 7) % 13, (i * 3) % 11, i % 5), reverse=True))
        acc[t] = acc.get(t, 0) + len(t) * (i & 7)
    return time.perf_counter() - w0, time.process_time() - c0


class Scaler:
    """Runs the calibration between spawns and scales each spawn's times to
    the reference host speed by the mean of the calibrations around it.

    The shared host runs the same code at speeds up to 2x apart, in phases
    that last from seconds to minutes, so raw times of two runs minutes apart
    differ by more than a change to the program would; the ratio to the
    calibration taken just before and after moves a third as much."""

    def __init__(self, runner: Runner):
        self.runner = runner
        calibrate()  # warm-up, not used
        self.last = calibrate()
        self.calibrations: list[tuple[float, float]] = []

    def spawn(self, mode: str, cmd: list[str], counted: bool) -> dict:
        res = self.runner.run(mode, cmd) if counted else self.runner.spawn(mode, cmd)
        before, after = self.last, calibrate()
        self.last = after
        self.calibrations.append(after)
        wall_k = CALIB_REF_S / ((before[0] + after[0]) / 2)
        cpu_k = CALIB_REF_S / ((before[1] + after[1]) / 2)
        res["raw_wall"], res["raw_setup"] = res["wall"], res["setup"]
        res["wall"] *= wall_k
        res["cpu"] *= cpu_k
        if res["setup"] is not None:
            res["setup"] *= wall_k
        return res


def run_untraced(runner: Runner, round_cmds, seconds: float) -> tuple[dict, list[str]]:
    scaler = Scaler(runner)
    setups = []
    raw_setups = []
    for _ in range(SETUP_SPAWNS):
        res = scaler.spawn("ready", [], counted=False)
        if res["code"] != 0 or res["setup"] is None:
            runner.attempted += 1
            runner.failures.append(f"set-up spawn failed: {res['stderr'][-300:]!r}")
            return {}, []
        setups.append(res["setup"])
        raw_setups.append(res["raw_setup"])
    # whole rounds over the commands, the first always, the next one only if
    # it should end within the measuring time
    samples: dict[int, list[dict]] = {i: [] for i in range(len(round_cmds(0)))}
    start = time.monotonic()
    rounds = 0
    while True:
        elapsed = time.monotonic() - start
        if rounds and elapsed + elapsed / rounds > seconds:
            break
        for k, cmd in enumerate(round_cmds(rounds)):
            res = scaler.spawn("plain", cmd, counted=True)
            if not res["ok"]:
                return {}, []
            samples[k].append(res)
            setups.append(res["setup"])
            raw_setups.append(res["raw_setup"])
        rounds += 1
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": sum(statistics.median(r["wall"] for r in rs) for rs in samples.values()),
        "cpu_s": sum(statistics.median(r["cpu"] for r in rs) for rs in samples.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_kib / 1024.0,
    }
    calib = [c[0] for c in scaler.calibrations]
    lines = [f"calibration: median {statistics.median(calib):.4f} s (min {min(calib):.4f}, "
             f"max {max(calib):.4f}, n={len(calib)}), reference {CALIB_REF_S} s",
             f"setup: median {metrics['setup_s']:.4f} s scaled, "
             f"{statistics.median(raw_setups):.4f} s raw, over {len(setups)} spawns"]
    for rs in samples.values():
        walls = [r["wall"] for r in rs]
        inputs = len({command_key(r["cmd"]) for r in rs})
        label = command_key(rs[0]["cmd"]) + (f" and {inputs - 1} other points" if inputs > 1 else "")
        lines.append(f"{label}: wall median {statistics.median(walls):.4f} s scaled "
                     f"(min {min(walls):.4f}, max {max(walls):.4f}, n={len(walls)}), "
                     f"{statistics.median(r['raw_wall'] for r in rs):.4f} s raw; "
                     f"cpu median {statistics.median(r['cpu'] for r in rs):.4f} s scaled")
    return metrics, lines


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def _tree(spans):
    """Duration and self time of each span."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    return dur, [d - c for d, c in zip(dur, child)]


def _outermost(spans, dur, names) -> float:
    """Time inside spans named in `names`, not counting one nested in another."""
    total = 0.0
    for i, s in enumerate(spans):
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += dur[i]
    return total


def span_metrics(traced: list[dict]) -> dict:
    """Per-layer metrics from the spans pass; one entry of `traced` per command."""
    m = dict.fromkeys(per_layer_units(), 0.0)
    for key in [k for k, u in per_layer_units().items() if u == "count"]:
        m[key] = 0
    serialize = {"cli._emit", "cli._matrix_csv", "scalars.scalar_to_json", "symfunc.PExpr.to_json",
                 "symfunc.QExpr.to_json", "vertex.X0Matrix.to_json", "vertex.X0Matrix.to_csv",
                 "macdonald.ModularMacdonald.to_json"}
    groups = {
        "partitions.enumerate.s": {"partitions.enumerate_partitions"},
        "symfunc.expand.s": {"symfunc.q_to_p", "symfunc.qprod_to_p", "symfunc.r_times_qprod"},
        "symfunc.basis_solver.s": {"symfunc._reduced_basis_solver"},
        "symfunc.p_to_q_reduced.s": {"symfunc.p_to_q_reduced"},
        "symfunc.scalar_product.s": {"symfunc.scalar_product"},
        "symfunc.p_multiply.s": {"symfunc.p_multiply"},
        "vertex.x0_apply_series.s": {"vertex.x0_apply_series"},
        "vertex.x0_apply_diff.s": {"vertex.x0_apply_diff"},
        "vertex.s_apply.s": {"vertex.s_apply"},
        "macdonald.schur_q_oracle.s": {"macdonald.schur_q_oracle"},
        "macdonald.specialize_q0.s": {"macdonald.specialize_q0"},
        "newton.newton_lhs.s": {"newton.newton_lhs"},
        "newton.d_lambda_mu.s": {"newton.d_lambda_mu"},
        "newton.lowering_counts.s": {"newton.nl_brute", "newton.nl_closed", "newton.nl_falling"},
        "cli.serialize_s": serialize,
    }
    groups.update({f"selfcheck.{f}.s": {f"selfcheck.{f}"} for f in FAMILIES})
    counts = {
        "partitions.enumerate.calls": "partitions.enumerate_partitions",
        "partitions.dominates.calls": "partitions.dominates",
        "symfunc.scalar_product.calls": "symfunc.scalar_product",
        "symfunc.d_dp.calls": "symfunc.d_dp",
        "vertex.eigenvalue_c.calls": "vertex.eigenvalue_c",
    }
    self_of = {
        "vertex.x0_matrix.self_s": "vertex.x0_matrix",
        "macdonald.solve_q.recursion_s": "macdonald.solve_q",
        "macdonald.gram.self_s": "macdonald.gram",
    }
    expand_caches = ("symfunc.q_to_p", "symfunc.qprod_to_p", "symfunc.r_times_qprod")
    hits = lookups = expand_hits = expand_lookups = 0
    for t in traced:
        spans = t["meta"]["spans"]
        dur, self_t = _tree(spans)
        for name, names in groups.items():
            m[name] += _outermost(spans, dur, names)
        for i, s in enumerate(spans):
            layer = s[0].partition(".")[0]
            m[f"{layer}.self_s"] += self_t[i]
            if s[0] == "vertex.x0_apply_diff" and s[3] >= 0 and spans[s[3]][0] == "macdonald.solve_q":
                m["macdonald.solve_q.verify_s"] += dur[i]
        for metric, name in counts.items():
            m[metric] += sum(1 for s in spans if s[0] == name)
        for metric, name in self_of.items():
            m[metric] += sum(self_t[i] for i, s in enumerate(spans) if s[0] == name)
        m["trace.wall_s"] += t["wall"]
        m["trace.unattributed_s"] += t["wall"] - sum(self_t)
        caches = t["meta"]["caches"]
        for name, (h, miss, _max, size) in caches.items():
            hits += h
            lookups += h + miss
            m["cache.entries"] += size
            if name in expand_caches:
                expand_hits += h
                expand_lookups += h + miss
        m["cache.entries"] += t["meta"]["inv_cache"]
    m["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    m["symfunc.expand.hit_ratio"] = expand_hits / expand_lookups if expand_lookups else 0.0
    return m


def profile_metrics(profiled: list[dict]) -> dict:
    calls = {k: 0 for k in ("cycrat_mul", "cycrat_add", "cyc_mul", "pgcd")}
    pgcd = frac = total = 0.0
    for p in profiled:
        prof = p["meta"]["profile"]
        for k in calls:
            calls[k] += prof["calls"][k]
        pgcd += prof["pgcd_cum"]
        frac += prof["fraction_self"]
        total += prof["total_self"]
    out = {f"scalars.{k}.calls": v for k, v in calls.items()}
    out["scalars.pgcd.share"] = pgcd / total if total else 0.0
    out["scalars.fraction.share"] = frac / total if total else 0.0
    return out


def layer_checks(name: str, traced: list[dict], metrics: dict) -> list[str]:
    """Whether the workload reached or bypassed each layer as designed, and
    whether the layer self times fit in the traced wall time."""
    expect = WORKLOADS[name][1]
    problems = []
    names = {s[0] for t in traced for s in t["meta"]["spans"]}
    for layer in expect["absent"]:
        hit = sorted(n for n in names if n.startswith(layer + "."))
        if hit:
            problems.append(f"layer {layer} should be bypassed but ran: {hit[:5]}")
    pgcd = metrics["scalars.pgcd.calls"]
    if expect["pgcd"] and pgcd == 0:
        problems.append("the symbolic gcd should run but made no call")
    if not expect["pgcd"] and pgcd != 0:
        problems.append(f"the symbolic gcd should be bypassed but made {pgcd} calls")
    if metrics["trace.unattributed_s"] < 0:
        problems.append("layer self times exceed the traced wall time")
    return problems


def run_traced(runner: Runner, name: str, cmds: list[list[str]]):
    """One untraced, one spans and one cProfile pass over the commands;
    returns metrics, report lines and the failed layer checks."""
    passes = {}
    for mode in ("plain", "spans", "profile"):
        passes[mode] = []
        for cmd in cmds:
            res = runner.run(mode, cmd)
            if not res["ok"]:
                return {}, [], []
            passes[mode].append(res)
    metrics = span_metrics(passes["spans"])
    metrics.update(profile_metrics(passes["profile"]))
    metrics["cli.stdout_bytes"] = sum(len(r["stdout"]) for r in passes["plain"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - sum(r["wall"] for r in passes["plain"])
    spans = sum(len(r["meta"]["spans"]) for r in passes["spans"])
    lines = [f"traced: {spans} spans over {len(cmds)} commands; untraced wall "
             f"{sum(r['wall'] for r in passes['plain']):.4f} s"]
    return metrics, lines, layer_checks(name, passes["spans"], metrics)


# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the result object."""
    make, _ = WORKLOADS[name]
    order = list(range(len(make(seed, 0))))
    random.Random(seed).shuffle(order)

    def round_cmds(rnd: int) -> list[list[str]]:
        cmds = make(seed, rnd)
        return [cmds[i] for i in order]
    # The runner, its calibration and every child share one CPU, so that
    # they meet the same contention from the rest of the host.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    problems: list[str] = []
    try:
        runner = Runner(load_reference(), tmpdir, time.monotonic() + DEADLINE_S)
        if trace:
            metrics, lines, problems = run_traced(runner, name, round_cmds(0))
            units = per_layer_units()
        else:
            metrics, lines = run_untraced(runner, round_cmds, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    report = lines + [f"FAILED {f}" for f in runner.failures]
    report += [f"layer check failed: {p}" for p in problems]
    for line in report:
        print(f"[{name} seed={seed}] {line}")
    return {
        "correct": bool(metrics) and not runner.failures and not problems,
        "attempted": max(runner.attempted, 1),
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }


def _missing_program() -> str | None:
    for path in (os.path.join(ROOT, "src", "modmac", "cli.py"), REFERENCE):
        if not os.path.isfile(path):
            return path
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced, then traced, and print every metric")
    args = ap.parse_args(argv)
    missing = _missing_program()
    if missing:
        print(f"perfbench: {missing} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("give --workload NAME or --all")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced, then traced, each run in its own process so
    that peak RSS is per run; prints every metric by name with its unit."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                    str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"== {name}: no result (exit {proc.returncode})\n{proc.stderr}")
                ok = False
                continue
            ok = ok and res["correct"]
            print(f"== {name} ({'traced' if trace else 'untraced'}): correct={res['correct']} "
                  f"ops_failed={res['failed']}/{res['attempted']}")
            for key, v in res["metrics"].items():
                print(f"  {key:<34} {v['value']:>16.6g} {v['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
