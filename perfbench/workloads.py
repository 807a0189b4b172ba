"""The four benchmark workloads: inputs made from the workload seed, and the
output checks that decide which cells failed.

Seed ``n`` of a reference workload runs ``configs/reference.ini`` with master
seed ``20240311 + n``, so seed 0 is the shipped configuration.  Seed ``n`` of
``wideH6-boxB`` generates a new H = 6 instance.  At seed 0 (``GOLDEN_SEED``)
every artifact must also match the sha256 digest in ``golden.json``.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

GOLDEN_SEED = 0
REFERENCE_MASTER_SEED = 20240311


@dataclass(frozen=True)
class Workload:
    name: str
    ini: str            # workload config, INI text
    entry: str          # "run_experiment" or "estimation_curves"
    cells: tuple        # artifact names checked: per-cell CSVs, or curve rows
    rounds: int         # rounds simulated (contexts sampled) per call


def _ini_text(parser: configparser.ConfigParser) -> str:
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _reference(root: str, seed: int, out: str, **overrides) -> str:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str
    with open(os.path.join(root, "configs", "reference.ini"), encoding="utf-8") as fh:
        parser.read_file(fh)
    run = parser["run"]
    run["master_seed"] = str(REFERENCE_MASTER_SEED + seed)
    run["out"] = out
    run["workers"] = "1"
    for key, value in overrides.items():
        section = "run" if key in run else "policy"
        parser[section][key] = value
    return _ini_text(parser)


def _wide_h6(seed: int, out: str) -> str:
    """H = 6, X = 8, A = 3: transition 0.6 I plus a Dirichlet-mixed part,
    emission column h puts 0.5 on context h, stationary start."""
    H, X, A = 6, 8, 3
    rng = np.random.default_rng([seed, H, X])
    transition = 0.6 * np.eye(H) + 0.4 * rng.dirichlet(np.ones(H), size=H)
    transition /= transition.sum(axis=1, keepdims=True)
    emission = 0.5 * rng.dirichlet(np.ones(X), size=H).T
    emission[np.arange(H), np.arange(H)] += 0.5
    emission /= emission.sum(axis=0, keepdims=True)
    vals, vecs = np.linalg.eig(transition.T)
    pi = np.abs(np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))]))
    pi /= pi.sum()

    def fmt(a):
        return " ".join(repr(float(v)) for v in a)

    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser["hmm"] = {"H": str(H), "X": str(X), "pi": fmt(pi),
                     "M": fmt(transition.ravel(order="C")),
                     "E": fmt(emission.ravel(order="F"))}
    parser["reward"] = {"model": "state_dependent", "transfer": "one_hot_action",
                        "num_actions": str(A), "theta_seed": str(seed),
                        "noise": "gaussian", "v_eta": "0.1"}
    parser["policy"] = {"policy": "boxB", "delta": "0.1", "beliefs": "spectral"}
    parser["run"] = {"horizons": "16384", "seeds": "1", "master_seed": str(seed),
                     "out": out, "emit_oracle_columns": "false", "workers": "1"}
    return _ini_text(parser)


def _grid(policies, horizons, seeds) -> tuple:
    return tuple(f"{p}_T{T}_s{s}.csv"
                 for p in policies for T in horizons for s in range(seeds))


def make(name: str, root: str, seed: int, out: str) -> Workload:
    """Build workload ``name`` for ``seed``; artifacts go to ``out``."""
    if name == "ref-learners":
        ini = _reference(root, seed, out, policy="boxA boxB", beliefs="spectral",
                         horizons="65536", seeds="1", emit_oracle_columns="false")
        return Workload(name, ini, "run_experiment",
                        _grid(("boxA", "boxB"), (65536,), 1), 2 * 65536)
    if name == "ref-baselines":
        ini = _reference(root, seed, out, policy="random oracle",
                         horizons="4096 16384", seeds="1", emit_oracle_columns="true")
        return Workload(name, ini, "run_experiment",
                        _grid(("random", "oracle"), (4096, 16384), 1),
                        2 * (4096 + 16384))
    if name == "wideH6-boxB":
        return Workload(name, _wide_h6(seed, out), "run_experiment",
                        _grid(("boxB",), (16384,), 1), 16384)
    if name == "ref-estimate":
        ini = _reference(root, seed, out, horizons="4096 16384 65536", seeds="1")
        return Workload(name, ini, "estimation_curves",
                        ("t4096", "t16384", "t65536"), 65536)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("ref-learners", "ref-baselines", "wideH6-boxB", "ref-estimate")
ESTIMATION_CSV = "estimation_curves.csv"


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def artifact_digests(workload: Workload, out: str) -> dict[str, str]:
    """Digests of the checked artifacts that exist in ``out``."""
    names = ((ESTIMATION_CSV,) if workload.entry == "estimation_curves"
             else workload.cells + ("summary.csv",))
    return {n: sha256(os.path.join(out, n)) for n in names
            if os.path.exists(os.path.join(out, n))}


def failed_cells(workload: Workload, out: str, golden: dict | None) -> list[str]:
    """Cells whose artifacts are missing, break an invariant, or (when
    ``golden`` is given) differ from the recorded digests."""
    digests = artifact_digests(workload, out)

    def off_golden(name):
        return golden is not None and digests.get(name) != golden.get(name)

    if workload.entry == "estimation_curves":
        path = os.path.join(out, ESTIMATION_CSV)
        if not os.path.exists(path) or off_golden(ESTIMATION_CSV):
            return list(workload.cells)
        with open(path, encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        # write_estimation_csv renders numpy scalars with repr, which numpy 2
        # prints as "np.float64(x)"; the digest pins that text, the check reads x
        values = [float(v.removeprefix("np.float64(").removesuffix(")"))
                  for row in rows for v in row[1:]]
        ok = len(rows) == len(workload.cells) and all(
            math.isfinite(v) and v >= 0.0 for v in values)
        return [] if ok else list(workload.cells)

    summary_path = os.path.join(out, "summary.csv")
    if (os.path.exists(os.path.join(out, "FAILED")) or not os.path.exists(summary_path)
            or off_golden("summary.csv")):
        return list(workload.cells)
    with open(summary_path, encoding="utf-8") as fh:
        summary = {f"{r[0]}_T{r[1]}_s{r[2]}.csv": float(r[3])
                   for r in (line.split(",") for line in fh.read().splitlines()[1:])}
    failed = []
    for cell in workload.cells:
        path = os.path.join(out, cell)
        if cell not in summary or not os.path.exists(path) or off_golden(cell):
            failed.append(cell)
            continue
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            col = header.index("regret_inc")
            inc = np.array([float(line.split(",")[col]) for line in fh])
        if inc.size == 0 or inc.min() < -1e-12:
            failed.append(cell)
        elif cell.startswith("oracle_") and (np.any(inc != 0.0) or summary[cell] != 0.0):
            failed.append(cell)
    return failed
