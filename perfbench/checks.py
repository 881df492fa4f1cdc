"""Output checks and digests.

Every check is tied to the operations it covers (a seed run or an expert
profile), so that a failed check counts against error_rate exactly as a raise
or a non-zero exit does.  Reference values come from a direct linear solve of
mu (I - P) = 0, sum mu = 1, done here with numpy on the input files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from inputs import BOUND_K

REL_TOL = 1e-9       # regret and aggregate files against their recomputation
R_STAR_TOL = 1e-6    # R_bar* against the linear solve


def digests(directory: Path) -> dict:
    """sha256 of every CSV under directory, keyed by relative path."""
    return {str(p.relative_to(directory)): hashlib.sha256(
        p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*.csv"))}


def csv_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*.csv"))


def steady_rewards(mdp_file, expert_files) -> np.ndarray:
    """R_bar of every expert from a direct solve for its stationary law."""
    doc = json.loads(Path(mdp_file).read_text())
    P = np.asarray(doc["transition"], dtype=float)
    r = (np.asarray(doc["reward"]["values"], dtype=float)
         * np.asarray(doc["reward"]["probs"], dtype=float)).sum(axis=-1)
    S = P.shape[0]
    out = []
    for path in expert_files:
        pi = np.asarray(json.loads(Path(path).read_text())["policy"],
                        dtype=float)
        kernel = np.einsum("saj,sa->sj", P, pi)
        system = np.vstack([(np.eye(S) - kernel).T, np.ones(S)])
        rhs = np.zeros(S + 1)
        rhs[-1] = 1.0
        mu = np.linalg.lstsq(system, rhs, rcond=None)[0]
        out.append(float(mu @ np.einsum("sa,saj,saj->s", pi, P, r)))
    return np.array(out)


def _column(path: Path, name: str) -> np.ndarray:
    with open(path) as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return np.array([float(row[name]) for row in rows])


def _close(a, b, tol) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        (np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))).all())


def check_run(spec, pass_dir: Path, rewards_cache: dict) -> dict:
    """Failures of one spec's outputs, as {seed: [reasons]}; a seed with no
    entry passed.  Spec-wide failures are charged to every seed."""
    from mdpbandit.bandit import RunLog
    from mdpbandit.regret import cumulative_regret

    out = pass_dir / spec.out
    failures = {}

    def fail(seeds, reason):
        for s in seeds:
            failures.setdefault(s, []).append(f"{spec.label}: {reason}")

    key = (spec.mdp, tuple(spec.experts))
    if key not in rewards_cache:
        rewards_cache[key] = steady_rewards(spec.mdp, spec.experts)
    rbar = rewards_cache[key]
    r_star = float(rbar.max())

    curves = {}
    for seed in spec.seeds:
        runlog = out / f"runlog_seed{seed}.csv"
        regret = out / f"regret_seed{seed}.csv"
        if not (runlog.exists() and regret.exists()):
            fail([seed], "missing per-seed CSV")
            continue
        log = RunLog.from_csv(runlog)
        written = _column(regret, "regret")
        # the program's R_bar*, recovered from r(1) = R_bar* - R_0 exactly
        # up to the rounding of the written value
        used = float(written[1] + log.avg_rewards[0])
        if abs(used - r_star) > R_STAR_TOL:
            fail([seed], f"R_bar* {used!r} differs from the linear solve "
                         f"{r_star!r} by more than {R_STAR_TOL}")
        expected = np.asarray(cumulative_regret(log, used).values,
                              dtype=float)
        if not _close(written, expected, REL_TOL):
            fail([seed], "regret CSV differs from cumulative_regret of the "
                         "run log")
        curves[seed] = written

    aggregate = out / "aggregate.csv"
    if not aggregate.exists():
        fail(spec.seeds, "missing aggregate.csv")
        return failures
    if len(curves) == len(spec.seeds):
        mean = np.stack([curves[s] for s in spec.seeds]).mean(axis=0)
        if not _close(_column(aggregate, "mean_regret"), mean, REL_TOL):
            fail(spec.seeds, "aggregate mean differs from the per-seed files")

    # the bound curve exists exactly when the dynamics are fixed and every
    # suboptimal gap exceeds 2 K / T0; a gap within 1e-6 of that threshold
    # is left unjudged
    gaps = r_star - np.delete(rbar, int(rbar.argmax()))
    margin = gaps - 2.0 * BOUND_K / spec.t0
    expect = not spec.has_events and bool((margin > 0).all())
    if spec.has_events or not (np.abs(margin) < 1e-6).any():
        finite = np.isfinite(_column(aggregate, "theory_bound")[1:])
        if (expect and not finite.all()) or (not expect and finite.any()):
            fail(spec.seeds, "theory_bound column "
                             + ("missing" if expect else "present")
                             + " against the gap precondition")
    return failures


def check_analysis(csv_file: Path, mdp_file, expert_files) -> dict:
    """Failures of one analyze output, as {expert row: [reasons]}."""
    failures = {}
    if not csv_file.exists():
        return {i: ["missing analyze CSV"] for i in range(len(expert_files))}
    rbar = steady_rewards(mdp_file, expert_files)
    with open(csv_file) as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(expert_files):
        return {i: [f"{len(rows)} rows for {len(expert_files)} experts"]
                for i in range(len(expert_files))}
    for i, row in enumerate(rows):
        alpha, c, k = (float(row[x]) for x in ("alpha", "C", "K"))
        reasons = []
        if not math.isclose(k, c / (1.0 - alpha), rel_tol=REL_TOL):
            reasons.append(f"K {k!r} != C / (1 - alpha) = {c / (1 - alpha)!r}")
        if not c >= 2.0:
            reasons.append(f"C {c!r} < 2")
        if abs(float(row["R_bar"]) - rbar[i]) > R_STAR_TOL:
            reasons.append(f"R_bar {row['R_bar']} differs from the linear "
                           f"solve {rbar[i]!r}")
        if reasons:
            failures[i] = [f"{csv_file.name} expert {row['expert']}: {r}"
                           for r in reasons]
    return failures
