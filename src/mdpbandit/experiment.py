"""Experiment descriptions and the engine that runs them.

An ExperimentSpec is a JSON-serializable description of one configuration:
where the MDP and experts come from (files, or the built-in gridworld
benchmark), the schedule, the seeds, and any mid-run dynamics events.
Relative paths inside a spec file are resolved against the file's own
directory, so a directory of spec plus data files is relocatable.

A run reads two numbers per expert: its exact steady reward R_bar_e
(nominal_profiles), which gives the gaps and the regret reference R_bar*,
and its confidence constant K_e, the spec's bound_k (default 2.0, the value
a one-step-mixing chain certifies to) for every expert rather than the
certified per-expert constants, which on slowly mixing chains differ by
orders of magnitude and turn the index into a constant-offset contest.
The closed-form bound curve is evaluated with the same constants the
selector actually uses, and is reported as nan with a warning when its gap
precondition fails or when events change the dynamics mid-run.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .bandit import HorizonSchedule, run_mab, ucb_selector
from .chains import gaps, induced_chain, stationary_distribution, \
    steady_state_reward
from .gridworld import benchmark_config, build_experts, build_gridworld, \
    load_layout, permute_actions
from .mdp import _is_int, _reading, load_mdp, load_policies, write_csv
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
            # permute_actions checks that the list is a bijection
            _check(isinstance(ev, dict) and _is_int(ev.get("iteration"))
                   and ev["iteration"] >= 1
                   and ev.keys() - {"iteration"} in ({"permutation"}, {"mdp"})
                   and isinstance(ev.get("mdp", ""), str)
                   and isinstance(ev.get("permutation", []), list)
                   and all(map(_is_int, ev.get("permutation", []))),
                   "an event needs an integer iteration >= 1 and exactly one "
                   "of a permutation (a list of integers) or an mdp file name",
                   ev)


def _check(ok: bool, message: str, value) -> None:
    if not ok:
        raise ValueError(f"{message}, got {value!r}")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _resolve_path(base: Path, value):
    if value is None:
        return None
    p = Path(value)
    return str(p if p.is_absolute() else base / p)


def load_spec(path) -> ExperimentSpec:
    """Load a spec; relative file references become absolute against the
    spec's directory, and referenced files must exist."""
    path = Path(path)
    keys = fields(ExperimentSpec)
    with _reading(path, {f.name for f in keys}) as doc:
        if not isinstance(doc, dict):
            raise ValueError(f"a spec is a JSON object, got {doc!r}")
        missing = {f.name for f in keys if f.default is MISSING
                   and f.default_factory is MISSING} - set(doc)
        if missing:
            raise ValueError(f"missing spec keys {sorted(missing)}")
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
                raise ValueError(f"referenced file {ref} does not exist")
        return spec


def save_spec(spec: ExperimentSpec, path) -> None:
    Path(path).write_text(json.dumps(asdict(spec), indent=1) + "\n")


def resolve_environment(spec: ExperimentSpec):
    """Materialize (mdp, experts, events) from a spec.

    Permutation events re-permute the original dynamics, not whatever an
    earlier event installed.
    """
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


def nominal_profiles(mdp, experts) -> list:
    """The exact steady reward R_bar_e of each expert on mdp, a float each,
    from the linear solve for its stationary law."""
    return [steady_state_reward(mdp, policy, stationary_distribution(
        induced_chain(mdp, policy))) for policy in experts]


def _seed_task(env, schedule, iterations, seed, out_dir):
    mdp, experts, events, k_consts, steady_rewards = env
    rng = np.random.default_rng(seed)
    log = run_mab(mdp, experts, ucb_selector(k_consts), schedule, iterations,
                  rng, events)
    log.meta["seed"] = seed
    out = Path(out_dir)
    log.to_csv(out / f"runlog_seed{seed}.csv")
    curve = cumulative_regret(log, max(steady_rewards))
    vals = np.asarray(curve.values, dtype=float)
    write_csv(out / f"regret_seed{seed}.csv", ("n", "regret"),
              enumerate(vals.tolist()))
    t, cum = cumulative_reward_time(log)
    return vals, t, cum


class _InlinePool(Executor):
    """The pool of a one-process run: submit runs the task at once."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def _start(spec, env, pool) -> list:
    """Create spec.out and submit its seeds' tasks; their futures."""
    schedule = HorizonSchedule(spec.t0, spec.c)
    Path(spec.out).mkdir(parents=True, exist_ok=True)
    return [pool.submit(_seed_task, env, schedule, spec.iterations, seed,
                        spec.out) for seed in spec.seeds]


def _finish(spec, env, futures) -> dict:
    """Aggregate the seeds in order and write the spec's aggregate files."""
    _, _, events, k_consts, steady_rewards = env
    regrets, grids, cums = zip(*(future.result() for future in futures))
    mean, std = aggregate_runs(regrets)
    # r(0) = 0 holds unconditionally; without the bound only n >= 1 is nan
    bound = np.full(spec.iterations + 1, np.nan)
    bound[0] = 0.0
    bound_status = "ok"
    if events:
        bound_status = "events change the dynamics mid-run; bound not defined"
    else:
        try:
            bound[1:] = ucb_regret_bounds(k_consts, steady_rewards,
                                          HorizonSchedule(spec.t0, spec.c),
                                          range(1, spec.iterations + 1))
        except GapTooSmallError as exc:
            bound_status = f"gap precondition failed ({exc})"
    if bound_status != "ok":
        # past _run_specs and run_spec or sweep_spec, to their caller
        warnings.warn(f"{spec.label}: theory bound unavailable, "
                      f"{bound_status}", stacklevel=4)
    out = Path(spec.out)
    write_aggregate_csv(out / "aggregate.csv", mean, std, bound)

    # the time grid depends only on the schedule, so every seed shares it
    write_reward_time_csv(out / "reward_time.csv", grids[0],
                          np.stack(cums).mean(axis=0))

    e_star, deltas = gaps(steady_rewards)
    return {"label": spec.label, "out": str(out), "seeds": list(spec.seeds),
            "r_star": steady_rewards[e_star], "best_expert": e_star,
            "gaps": deltas.tolist(),
            "bound_status": bound_status, "mean_final_regret": float(mean[-1])}


def _run_specs(specs, workers: int) -> list:
    """Run specs that differ only in t0, label and out on one environment
    and one pool: submit every seed, then finish each spec in order."""
    _check(workers >= 1, "workers must be >= 1", workers)
    for spec in specs:   # a horizon past int64 fails before anything is made
        HorizonSchedule(spec.t0, spec.c).horizons(spec.iterations)
    mdp, experts, events = resolve_environment(specs[0])
    env = (mdp, experts, events, [float(specs[0].bound_k)] * len(experts),
           nominal_profiles(mdp, experts))
    # a pool of one process would only fork and pickle
    processes = min(workers, sum(len(spec.seeds) for spec in specs))
    with (ProcessPoolExecutor(processes) if processes > 1
          else _InlinePool()) as pool:
        try:
            started = [_start(spec, env, pool) for spec in specs]
            # map adds no frame under _finish's stacklevel (a comprehension
            # does before Python 3.12)
            return list(map(_finish, specs, [env] * len(specs), started))
        except BaseException:  # else leaving waits for every queued seed
            pool.shutdown(cancel_futures=True)
            raise


def run_spec(spec: ExperimentSpec, workers: int = 1) -> dict:
    """Run every seed of a spec, write per-seed and aggregate CSV files.

    Emits runlog_seed<i>.csv and regret_seed<i>.csv per seed, plus
    aggregate.csv (n, mean_regret, std_regret, theory_bound) and
    reward_time.csv (t, mean_cumulative_reward).  Returns a summary dict.
    The seeds share one pool of up to `workers` processes, one per seed.
    """
    return _run_specs([spec], workers)[0]


def sweep_spec(base: ExperimentSpec, t0_values, workers: int = 1) -> dict:
    """run_spec at each T0 under base.out/t0_<v>, plus combined long-format
    files aligned on n (regret) and t (reward).  Every T0's spec is built
    first; all share one resolved environment and one pool of workers."""
    t0_values = list(t0_values)
    if not t0_values:
        raise ValueError("empty T0 list")
    # a repeated T0 would run twice into the same t0_<v> directory and
    # write its rows of the combined files twice
    if len(set(t0_values)) != len(t0_values):
        raise ValueError(f"duplicate T0 values in {t0_values}")
    summaries = _run_specs([replace(base, t0=v, label=f"{base.label}-t0-{v}",
                                    out=str(Path(base.out) / f"t0_{v}"))
                            for v in t0_values], workers)

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
