#!/usr/bin/env python3
"""Outside-in benchmark of hmmbandits.

    python3 perfbench/run.py --workload ref-learners --seed 0 --seconds 20 --trace 0

Imports the package from ``src/`` next to this directory and drives it only
through its public entry points (``config.load_config``,
``runner.run_experiment``, ``runner.estimation_curves``) in one process, with
``workers = 1``.  Repeats the workload's entry-point call for about
``--seconds`` seconds of wall time (at least once) and checks every call's
artifacts.  Times are in reference seconds of the speed probe (probe.py),
which hold still while the host's speed swings.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
``setup_s`` (median over child processes that import hmmbandits and load the
workload config), ``us_per_round`` (median over calls), ``peak_rss_mb`` and
``cells_ok_frac``.  ``--trace 1`` alternates untraced and traced calls and
reports the per-layer metrics of spans.py.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable table and
the run's provenance go to standard error and to ``.perfbench_out/records/``.
``--write-golden`` (seed 0 only) records the artifact digests in
``golden.json`` instead of checking them.  README.md says why each workload
exists and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from probe import SpeedClock
from spans import Tracer, exact_counts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 5

SETUP_CHILD = """\
import sys
from time import perf_counter
sys.path.insert(0, {here!r})
from probe import SpeedClock
with SpeedClock() as clock:
    t0 = perf_counter()
    sys.path.insert(0, {src!r})
    import hmmbandits
    from hmmbandits.config import load_config
    load_config({ini!r})
    t1 = perf_counter()
if not hmmbandits.__file__.startswith({src!r}):
    sys.exit("hmmbandits imported from outside the checkout")
print(repr(clock.elapsed(t0, t1)), repr(t1 - t0))
"""


def _quiet(*_args, **_kwargs) -> None:
    pass


def _setup_times(ini: Path) -> list[tuple[float, float]]:
    """(reference, wall) seconds to import hmmbandits and load the workload
    config, each in a fresh interpreter: import happens once per process."""
    code = SETUP_CHILD.format(here=str(HERE), src=str(SRC), ini=str(ini))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=120)
        ref, wall = done.stdout.split()
        times.append((float(ref), float(wall)))
    return times


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(list(SRC.rglob("*.py")) + list(HERE.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _provenance() -> dict:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "source_sha256": _source_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def _instance(hb, config) -> dict:
    diag = hb.hmm.validate(config.params)
    try:
        gamma = hb.hmm.forgetting_rate(config.params)
    except hb.errors.NotMixing:
        gamma = 1.0
    return {"instance.sigma_min_E": diag.sigma_min_E,
            "instance.sigma_min_M": diag.sigma_min_M,
            "instance.gamma": gamma,
            "regularity_ok": diag.regularity_ok,
            "stationary_init": diag.is_stationary_init}


@dataclass
class Call:
    """One entry-point call: reference and wall seconds, failed cells."""

    seconds: float
    wall_s: float
    failed: list
    bytes: int


def _call(hb, wl: workloads.Workload, load, out: Path,
          golden) -> tuple[Call, SpeedClock]:
    """Load the config with ``load()`` and run the workload's entry point."""
    shutil.rmtree(out, ignore_errors=True)
    runner = hb.runner
    raised = False
    with SpeedClock() as clock:
        t1 = perf_counter()
        try:
            config = load()
            t1 = perf_counter()
            if wl.entry == "run_experiment":
                runner.run_experiment(config, echo=_quiet)
            else:
                rows = runner.estimation_curves(config, echo=_quiet)
                out.mkdir(parents=True, exist_ok=True)
                runner.write_estimation_csv(rows, str(out / workloads.ESTIMATION_CSV))
        except Exception:  # a failing call fails its cells; the run goes on
            traceback.print_exc(file=sys.stderr)
            raised = True
        t2 = perf_counter()
    if raised:
        failed = list(wl.cells)
    else:
        failed = workloads.failed_cells(wl, str(out), golden)
    size = sum(p.stat().st_size for p in out.iterdir()) if out.exists() else 0
    return Call(clock.elapsed(t1, t2), t2 - t1, failed, size), clock


def _unit(name: str) -> str:
    if name.endswith("us_per_round"):
        return "us"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith((".success_ratio", "_frac")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("instance."):
        return "1"
    return "count"


def _check_counts(wl_name: str, seed: int, digest: str, counts: list) -> bool:
    """Exact counts must agree across the traced calls of this run and with
    an earlier run of the same program at the same seed."""
    same = all(c == counts[0] for c in counts)
    path = OUT / "counts" / f"{wl_name}-s{seed}-{digest[:16]}.json"
    if path.exists():
        same = same and json.loads(path.read_text()) == counts[0]
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts[0], indent=1, sort_keys=True) + "\n")
    return same


def measure(args, hb, work: Path) -> int:
    out = work / "artifacts"
    wl = workloads.make(args.workload, str(ROOT), args.seed, str(out))
    ini = work / "workload.ini"
    ini.write_text(wl.ini, encoding="utf-8")
    config = hb.config.load_config(str(ini))
    instance = _instance(hb, config)
    if args.workload == "wideH6-boxB" and not (
            instance["regularity_ok"] and instance["stationary_init"]):
        raise RuntimeError(f"generated instance is not regular and stationary: {instance}")

    golden = None
    if args.seed == workloads.GOLDEN_SEED and not args.write_golden:
        golden = json.loads(GOLDEN.read_text())[wl.name]

    setup = [] if args.trace else _setup_times(ini)
    untraced, traced, layer_runs, missing = [], [], [], []

    def untraced_call() -> float:
        call, _ = _call(hb, wl, lambda: config, out, golden)
        untraced.append(call)
        return call.wall_s

    def traced_call() -> float:
        tracer = Tracer(hb)
        tracer.install()
        missing[:] = tracer.missing
        try:
            call, clock = _call(hb, wl, lambda: hb.config.load_config(str(ini)),
                                out, golden)
        finally:
            tracer.restore()
        m = tracer.layer_metrics(clock)
        m["runner.write.bytes"] = call.bytes
        layer_runs.append(m)
        traced.append(call)
        return call.wall_s

    # a traced run alternates untraced and traced calls, so both meet the
    # same host and trace.overhead_frac compares like with like
    step = (lambda: untraced_call() + traced_call()) if args.trace else untraced_call
    t_start = perf_counter()
    steps = [step()]
    while perf_counter() - t_start + statistics.median(steps) <= args.seconds:
        steps.append(step())
    if args.write_golden:
        digests = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        digests[wl.name] = workloads.artifact_digests(wl, str(out))
        GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

    calls = untraced + traced
    attempted = len(calls) * len(wl.cells)
    failed = sum(len(c.failed) for c in calls)
    correct = failed == 0
    provenance = _provenance()
    us_untraced = statistics.median(c.seconds for c in untraced) * 1e6 / wl.rounds
    counts_ok = None
    if args.trace:
        counts_ok = _check_counts(wl.name, args.seed, provenance["source_sha256"],
                                  [exact_counts(m) for m in layer_runs])
        correct = correct and counts_ok
        values = {n: statistics.median(m[n] for m in layer_runs) for n in layer_runs[0]}
        us_traced = statistics.median(c.seconds for c in traced) * 1e6 / wl.rounds
        values["trace.overhead_frac"] = (us_traced - us_untraced) / us_untraced
        values.update({k: v for k, v in instance.items() if k.startswith("instance.")})
    else:
        values = {
            "setup_s": statistics.median(ref for ref, _ in setup),
            "us_per_round": us_untraced,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cells_ok_frac": (attempted - failed) / attempted,
        }
    metrics = {n: {"value": v, "unit": _unit(n)} for n, v in values.items()}

    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "provenance": provenance, "instance": instance,
              "golden_checked": golden is not None, "exact_counts_ok": counts_ok,
              "setup_ref_wall_s": setup,
              "call_ref_s": [c.seconds for c in calls],
              "call_wall_s": [c.wall_s for c in calls],
              "wall_us_per_round": statistics.median(
                  c.wall_s for c in untraced) * 1e6 / wl.rounds,
              "failed_cells": sorted({f for c in calls for f in c.failed}),
              "missing_layers": missing, "metrics": metrics}
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{wl.name}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} "
          f"calls={len(calls)} attempted={attempted} failed={failed} "
          f"golden={'checked' if golden is not None else 'skipped'} "
          f"wall_us_per_round={record['wall_us_per_round']:.4g} "
          f"python={provenance['python']} numpy={provenance['numpy']} "
          f"nproc={provenance['nproc']} sha={provenance['git_sha'][:12]}",
          file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.write_golden and args.seed != workloads.GOLDEN_SEED:
        parser.error(f"--write-golden needs --seed {workloads.GOLDEN_SEED}")

    if not (SRC / "hmmbandits" / "__init__.py").is_file() or not (
            ROOT / "configs" / "reference.ini").is_file():
        print(f"perfbench: {ROOT} holds no hmmbandits checkout "
              "(src/hmmbandits and configs/reference.ini)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hmmbandits

    if Path(hmmbandits.__file__).resolve().parent != SRC / "hmmbandits":
        print(f"perfbench: hmmbandits imported from {hmmbandits.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, hmmbandits, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
