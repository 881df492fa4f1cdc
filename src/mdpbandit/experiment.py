"""Experiment descriptions and the engine that runs them.

An ExperimentSpec is a JSON-serializable description of one configuration:
where the MDP and experts come from (files, or the built-in gridworld
benchmark), the schedule, the seeds, and any mid-run dynamics events.
Relative paths inside a spec file are resolved against the file's own
directory, so a directory of spec plus data files is relocatable.

The selector in these runs uses one uniform confidence constant (bound_k,
default 2.0, the value a one-step-mixing chain certifies to) for every
expert rather than the certified per-expert constants: certified constants
on slowly mixing chains differ by orders of magnitude across experts and
turn the index into a constant-offset contest the reward signal cannot
move.  Steady rewards, gaps and the regret reference R_bar* are exact.
The closed-form bound curve is evaluated with the same constants the
selector actually uses, and is reported as nan with a warning when its gap
precondition fails or when events change the dynamics mid-run.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .bandit import HorizonSchedule, run_mab
from .chains import MixingProfile, induced_chain, stationary_distribution, \
    steady_state_reward, with_gaps
from .mdp import _is_int, load_mdp, load_policies, write_csv
from .regret import GapTooSmallError, aggregate_runs, cumulative_regret, \
    cumulative_reward_time, ucb_regret_bounds, write_aggregate_csv, \
    write_reward_time_csv

__all__ = [
    "ExperimentSpec",
    "load_spec",
    "save_spec",
    "resolve_environment",
    "nominal_profiles",
    "run_spec",
    "sweep_spec",
]


@dataclass
class ExperimentSpec:
    label: str
    t0: int
    c: float
    iterations: int
    seeds: list
    out: str
    events: list = field(default_factory=list)
    mdp: str | None = None
    experts: list | None = None
    layout: str | None = None
    bound_k: float = 2.0

    def __post_init__(self):
        # a malformed value is bad input (exit 1); unchecked, it would
        # surface later as a TypeError (exit 3) or, like a negative bound_k,
        # run as is
        _check(isinstance(self.label, str), "label must be a string",
               self.label)
        _check(isinstance(self.out, str), "out must be a string", self.out)
        for name in ("mdp", "layout"):
            value = getattr(self, name)
            _check(value is None or isinstance(value, str),
                   f"{name} must be a file name", value)
        _check(self.experts is None or (
            isinstance(self.experts, list)
            and all(isinstance(p, str) for p in self.experts)),
            "experts must be a list of file names", self.experts)
        _check(_is_int(self.t0) and self.t0 >= 1, "t0 must be an integer >= 1",
               self.t0)
        _check(_is_int(self.iterations) and self.iterations >= 1,
               "iterations must be an integer >= 1", self.iterations)
        _check(isinstance(self.seeds, list) and len(self.seeds) > 0
               and all(_is_int(seed) and seed >= 0 for seed in self.seeds),
               "seeds must be a non-empty list of integers >= 0", self.seeds)
        _check(_is_real(self.c) and math.isfinite(self.c) and self.c >= 0,
               "c must be a finite number >= 0", self.c)
        _check(_is_real(self.bound_k) and math.isfinite(self.bound_k)
               and self.bound_k > 0, "bound_k must be a finite number > 0",
               self.bound_k)
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate seeds in {self.seeds}")
        if self.mdp and not self.experts:
            raise ValueError("an mdp file requires expert policy files")
        _check(isinstance(self.events, list), "events must be a list",
               self.events)
        for ev in self.events:
            _check(isinstance(ev, dict) and _is_int(ev.get("iteration"))
                   and ev["iteration"] >= 1
                   and ev.keys() - {"iteration"} in ({"permutation"}, {"mdp"})
                   and isinstance(ev.get("mdp", ""), str),
                   "an event needs an integer iteration >= 1 and exactly one "
                   "of a permutation or an mdp file name", ev)


def _check(ok: bool, message: str, value) -> None:
    if not ok:
        raise ValueError(f"{message}, got {value!r}")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


_SPEC_KEYS = {"label", "t0", "c", "iterations", "seeds", "out", "events",
              "mdp", "experts", "layout", "bound_k"}


def _resolve_path(base: Path, value):
    if value is None:
        return None
    p = Path(value)
    return str(p if p.is_absolute() else base / p)


def load_spec(path) -> ExperimentSpec:
    """Load a spec; relative file references become absolute against the
    spec's directory, and referenced files must exist."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a spec is a JSON object, got {doc!r}")
    unknown = set(doc) - _SPEC_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown spec keys {sorted(unknown)}")
    missing = {"label", "t0", "c", "iterations", "seeds", "out"} - set(doc)
    if missing:
        raise ValueError(f"{path}: missing spec keys {sorted(missing)}")
    spec = ExperimentSpec(**doc)
    base = path.parent
    spec = replace(
        spec, out=_resolve_path(base, spec.out),
        mdp=_resolve_path(base, spec.mdp),
        layout=_resolve_path(base, spec.layout),
        experts=[_resolve_path(base, p) for p in spec.experts]
        if spec.experts else spec.experts,
        events=[{**ev, "mdp": _resolve_path(base, ev["mdp"])}
                if "mdp" in ev else dict(ev) for ev in spec.events])
    for ref in [spec.mdp, spec.layout] + (spec.experts or []) \
            + [ev["mdp"] for ev in spec.events if "mdp" in ev]:
        if ref is not None and not Path(ref).exists():
            raise ValueError(f"{path}: referenced file {ref} does not exist")
    return spec


def save_spec(spec: ExperimentSpec, path) -> None:
    Path(path).write_text(json.dumps(asdict(spec), indent=1) + "\n")


def resolve_environment(spec: ExperimentSpec):
    """Materialize (mdp, experts, events) from a spec.

    Permutation events re-permute the original dynamics, not whatever an
    earlier event installed.
    """
    from .gridworld import benchmark_config, build_experts, build_gridworld, \
        load_layout, permute_actions
    if spec.mdp:
        mdp = load_mdp(spec.mdp)
        experts = load_policies(spec.experts, mdp)
    else:
        config = load_layout(spec.layout) if spec.layout else benchmark_config()
        mdp = build_gridworld(config)
        experts = build_experts(mdp, config)
    events = []
    for ev in spec.events:
        when = int(ev["iteration"])
        if "mdp" in ev:
            events.append((when, load_mdp(ev["mdp"])))
        else:
            events.append((when, permute_actions(mdp, ev["permutation"])))
    return mdp, experts, events


def nominal_profiles(mdp, experts, bound_k: float = 2.0):
    """Runtime profiles: stationary laws from the exact linear solve and
    their steady rewards, with the uniform confidence constant standing in
    for C_e and K_e (alpha 0, so the K = C/(1 - alpha) invariant holds).
    Returns (best expert, list)."""
    profiles = []
    for policy in experts:
        chain = induced_chain(mdp, policy)
        mu = stationary_distribution(chain)
        profiles.append(MixingProfile(
            stationary=mu, slem=0.0, mix_const=float(bound_k),
            k_const=float(bound_k),
            steady_reward=steady_state_reward(mdp, policy, mu)))
    return with_gaps(profiles)


def _seed_task(payload):
    (mdp, experts, profiles, schedule, iterations, events, seed,
     out_dir, r_star) = payload
    rng = np.random.default_rng(seed)
    log = run_mab(mdp, experts, profiles, schedule, None, iterations, rng,
                  events)
    log.meta["seed"] = seed
    out = Path(out_dir)
    log.to_csv(out / f"runlog_seed{seed}.csv")
    curve = cumulative_regret(log, r_star)
    vals = np.asarray(curve.values, dtype=float)
    write_csv(out / f"regret_seed{seed}.csv", ("n", "regret"),
              enumerate(vals.tolist()))
    t, cum = cumulative_reward_time(log)
    return vals, t, cum


def run_spec(spec: ExperimentSpec, workers: int = 1) -> dict:
    """Run every seed of a spec, write per-seed and aggregate CSV files.

    Emits runlog_seed<i>.csv and regret_seed<i>.csv per seed, plus
    aggregate.csv (n, mean_regret, std_regret, theory_bound) and
    reward_time.csv (t, mean_cumulative_reward).  Returns a summary dict.
    """
    _check(workers >= 1, "workers must be >= 1", workers)
    mdp, experts, events = resolve_environment(spec)
    e_star, profiles = nominal_profiles(mdp, experts, spec.bound_k)
    r_star = profiles[e_star].steady_reward
    schedule = HorizonSchedule(spec.t0, spec.c)
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)

    payloads = [(mdp, experts, profiles, schedule, spec.iterations, events,
                 seed, str(out), r_star) for seed in spec.seeds]
    # results come back in spec order either way (pool.map keeps it), so
    # the aggregate is identical however the seeds ran
    if workers > 1:
        with ProcessPoolExecutor(min(workers, len(payloads))) as pool:
            results = list(pool.map(_seed_task, payloads))
    else:
        results = [_seed_task(payload) for payload in payloads]

    regrets, grids, cums = zip(*results)
    mean, std = aggregate_runs(regrets)
    # r(0) = 0 holds unconditionally; without the bound only n >= 1 is nan
    bound = np.full(spec.iterations + 1, np.nan)
    bound[0] = 0.0
    bound_status = "ok"
    if events:
        bound_status = "events change the dynamics mid-run; bound not defined"
    else:
        try:
            bound[1:] = ucb_regret_bounds(profiles, schedule,
                                          range(1, spec.iterations + 1))
        except GapTooSmallError as exc:
            bound_status = f"gap precondition failed ({exc})"
    if bound_status != "ok":
        warnings.warn(f"{spec.label}: theory bound unavailable, "
                      f"{bound_status}", stacklevel=2)
    write_aggregate_csv(out / "aggregate.csv", mean, std, bound)

    # the time grid depends only on the schedule, so every seed shares it
    write_reward_time_csv(out / "reward_time.csv", grids[0],
                          np.stack(cums).mean(axis=0))

    return {
        "label": spec.label,
        "out": str(out),
        "seeds": list(spec.seeds),
        "r_star": float(r_star),
        "best_expert": int(e_star),
        "gaps": [float(p.gap) for p in profiles],
        "bound_status": bound_status,
        "mean_final_regret": float(mean[-1]),
    }


def sweep_spec(base: ExperimentSpec, t0_values, workers: int = 1) -> dict:
    """One run_spec per T0 under base.out/t0_<v>, plus combined long-format
    files aligned on n (regret) and t (reward)."""
    t0_values = list(t0_values)
    if not t0_values:
        raise ValueError("empty T0 list")
    if any(v < 1 for v in t0_values):
        raise ValueError(f"T0 values must be positive, got {t0_values}")
    # a repeated T0 would run twice into the same t0_<v> directory and
    # write its rows of the combined files twice
    if len(set(t0_values)) != len(t0_values):
        raise ValueError(f"duplicate T0 values in {t0_values}")
    summaries = []
    for v in t0_values:
        sub = replace(base, t0=v, label=f"{base.label}-t0-{v}",
                      out=str(Path(base.out) / f"t0_{v}"))
        summaries.append(run_spec(sub, workers=workers))

    base_out = Path(base.out)
    for name, combined in (("aggregate.csv", "combined.csv"),
                           ("reward_time.csv", "combined_reward_time.csv")):
        rows = []
        for v, summary in zip(t0_values, summaries):
            text = (Path(summary["out"]) / name).read_text()
            header, *lines = text.splitlines()
            rows += [[v] + line.split(",") for line in lines]
        write_csv(base_out / combined, ["t0"] + header.split(","), rows)
    return {"label": base.label, "out": str(base_out), "runs": summaries}
