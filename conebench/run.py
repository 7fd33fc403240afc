"""Benchmark of the conecalc command line, end to end and per layer.

Run from the repository root:

    python3 conebench/run.py --workload analyze-scalar-2d --seed 0 --seconds 55 --trace 0

``--workload all`` interleaves the three workloads round by round.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of traced runs, which
alternate with untraced runs to give the tracing overhead.  See
conebench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SRC = Path("src")
WORK = Path("conebench/.work")
CHILD_TIMEOUT_S = 150

# Single-threaded BLAS: on a shared two-core host a second OpenBLAS thread
# measures the neighbours rather than the program.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "report_bytes": "B"}


def child_env() -> dict:
    """The caller's environment with the settings that change timings fixed.

    Bytecode is written, under a prefix in the work directory so that
    nothing outside the checkout changes; the warm-up child fills it.
    """
    env = dict(os.environ)
    env.pop("CONECALC_SEED", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(SRC.resolve())
    env["PYTHONPYCACHEPREFIX"] = str((WORK / "pycache").resolve())
    return env


def spawn(opts: list, argv: list, env: dict) -> dict | None:
    """Run child.py once; its JSON line, or None when it failed."""
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *opts, "--", *argv],
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"conebench: child timed out: {argv}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        out = json.loads(lines[-1])
    except ValueError:
        return None
    if Path(out["module"]).resolve().parent != (SRC / "conecalc").resolve():
        raise SystemExit(f"conebench: imported {out['module']}, not the "
                         "checkout's src/conecalc")
    return out


def run_once(case: wl.Case, traced: bool, env: dict) -> dict:
    """One child run of a case; records its report's sha256 and size."""
    report = Path(case.report)
    report.unlink(missing_ok=True)
    opts = ["--spans", str(report.with_name("spans.jsonl"))] if traced else []
    out = spawn(opts, case.argv, env) or {"rc": None}
    run = {"workload": case.workload, "traced": traced, **out}
    if out["rc"] == 0 and report.is_file():
        data = report.read_bytes()
        run["sha256"] = hashlib.sha256(data).hexdigest()
        run["report_bytes"] = len(data)
        # the next run overwrites the report; the gate reads this copy
        kept = report.with_name(f"report-{run['sha256'][:16]}.json")
        shutil.copyfile(report, kept)
        run["kept"] = str(kept)
    return run


def measure(cases: dict, seconds: float, trace: bool) -> list:
    """Interleave child runs of the cases for ``seconds``, then gate them."""
    env = child_env()
    # the discarded warm-up leaves bytecode and the page cache warm
    spawn(["--import-only"], [], env)
    runs = []
    rounds = 0
    start = time.monotonic()
    while True:
        for name in cases:
            order = (True, False) if rounds % 2 == 0 else (False, True)
            for traced in (order if trace else (False,)):
                runs.append(run_once(cases[name], traced, env))
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rounds > seconds:
            break
    gate = wl.Gate(SRC / "conecalc" / "schema.json")
    for run in runs:
        if run["rc"] is None:
            run["problems"] = ["the child ended without a result"]
        elif run["rc"] != 0:
            run["problems"] = [f"exit code {run['rc']}"]
        elif "sha256" not in run:
            run["problems"] = ["no report written"]
        else:
            run["problems"] = gate.check(cases[run["workload"]],
                                         Path(run["kept"]), run["sha256"])
    for kept in {run.pop("kept") for run in runs if "kept" in run}:
        Path(kept).unlink()
    return runs


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "points/call" if metric.endswith("per_call") else "count"


def summarize(runs: list, names: list, trace: bool) -> tuple[dict, list]:
    """Metric medians per workload, and lines for people to read."""
    metrics, lines = {}, []
    prefix = (lambda n: f"{n}.") if len(names) > 1 else (lambda n: "")
    for name in names:
        good = [r for r in runs if r["workload"] == name and not r["problems"]]
        plain = [r for r in good if not r["traced"]]
        traced = [r for r in good if r["traced"]]
        shas = sorted({r["sha256"] for r in good})
        lines.append(f"{name}: {len(good)} good runs, report sha256 "
                     + ", ".join(shas))
        table = {}
        for key, unit in END_TO_END.items():
            table[key] = ([r[key] for r in plain], unit)
        if trace:
            for key in traced[0]["trace"] if traced else ():
                table[key] = ([r["trace"][key] for r in traced], _unit(key))
            table["trace.overhead_s"] = (
                [statistics.median(r["wall_s"] for r in traced)
                 - statistics.median(r["wall_s"] for r in plain)]
                if traced and plain else [], "s")
        for key, (values, unit) in table.items():
            if not values:
                continue
            med = statistics.median(values)
            lo, hi = _quartiles(values)
            lines.append(f"  {key:36s} {med:14.6g} {unit:3s} "
                         f"[q1 {lo:.6g}, q3 {hi:.6g}, n={len(values)}]")
            if (key in END_TO_END) != trace:
                metrics[prefix(name) + key] = {"value": med, "unit": unit}
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "conecalc" / "cli.py").is_file():
        print("conebench: run from the repository root; src/conecalc is "
              "missing", file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    cases = {n: wl.prepare(n, args.seed, WORK / n) for n in names}
    runs = measure(cases, args.seconds, bool(args.trace))
    for run in runs:
        for problem in run["problems"]:
            print(f"conebench: {run['workload']} failed: {problem}",
                  file=sys.stderr)
        if "trace" in run and abs(run["trace"]["trace.glue_s"]) > 0.03 * run["wall_s"]:
            print(f"conebench: {run['workload']}: layer self times leave "
                  f"{run['trace']['trace.glue_s']:.3f} s of the traced wall "
                  "time unattributed", file=sys.stderr)
    for name in names:
        for traced in {False, bool(args.trace)}:
            if not any(r["workload"] == name and r["traced"] == traced
                       and not r["problems"] for r in runs):
                kind = "traced" if traced else "untraced"
                print(f"conebench: no correct {kind} run of {name}",
                      file=sys.stderr)
                return 1
    metrics, lines = summarize(runs, names, bool(args.trace))
    print("\n".join(lines))
    failed = sum(1 for r in runs if r["problems"])
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
