"""Per-layer metrics from the spans of a traced pass.

A layer is a package module; a span's layer is the prefix of its name.  A
span's self time is its duration minus the durations of its child spans (one
thread per process, so children never overlap).  busy_s of a function is the
summed duration of its outermost spans, so nested calls count once.

README.md maps each metric to the end-to-end metric and the workload it
is meant to move.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("mdp", "bandit", "chains", "regret", "gridworld", "experiment",
          "cli")

# name -> unit, in the order they are reported
PER_LAYER = {
    "mdp.run_expert.calls": "count",
    "mdp.run_expert.steps": "count",
    "mdp.run_expert.busy_s": "s",
    "mdp.steps_per_s": "1/s",
    "mdp.us_per_call": "us",
    "mdp.load_s": "s",
    "bandit.select.calls": "count",
    "bandit.select.us_per_call": "us",
    "bandit.run_mab.self_s": "s",
    "bandit.runlog_csv_s": "s",
    "bandit.runlog_csv_bytes": "bytes",
    "chains.stationary.busy_s": "s",
    "chains.stationary.calls": "count",
    "chains.slem.busy_s": "s",
    "chains.mixing_constants.busy_s": "s",
    "chains.mixing_constants.horizon": "count",
    "chains.check_ergodicity.busy_s": "s",
    "chains.profile_expert.busy_s": "s",
    "regret.bound.calls": "count",
    "regret.bound.busy_s": "s",
    "regret.cumulative_regret.busy_s": "s",
    "regret.reward_time.busy_s": "s",
    "regret.csv.busy_s": "s",
    "regret.csv.bytes": "bytes",
    "gridworld.build.busy_s": "s",
    "gridworld.permute.busy_s": "s",
    "experiment.resolve.busy_s": "s",
    "experiment.nominal_profiles.busy_s": "s",
    "experiment.nominal_profiles.calls": "count",
    "experiment.run_spec.self_s": "s",
    "experiment.csv.bytes": "bytes",
    "experiment.pool.speedup": "ratio",
    "cli.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

_LOAD = ("mdp.load_mdp", "mdp.load_policy", "mdp.validate_mdp",
         "mdp.validate_policy")


class SpanTable:
    """Sums over the spans of one or more processes."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)     # outermost spans per name
        self.self_time = defaultdict(float)
        self.amount = defaultdict(float)
        self.load_s = 0.0                  # outermost spans of _LOAD
        self.spans = 0
        # self time per name, split at the end of set-up
        self.phase_time = {"setup": defaultdict(float),
                           "command": defaultdict(float)}

    def add(self, spans: list, t_setup: float) -> None:
        """spans: [name, start, end, parent, tag, amount], parents first.
        t_setup: end of the process's set-up; a span that ended by then
        counts as set-up, any other as command."""
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _, amount) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.amount[name] += amount
            self.self_time[name] += duration - child_time[i]
            phase = "setup" if end <= t_setup else "command"
            self.phase_time[phase][name] += duration - child_time[i]
            ancestors = set()
            p = parent
            while p >= 0:
                ancestors.add(spans[p][0])
                p = spans[p][3]
            if name not in ancestors:
                self.busy[name] += duration
            if name in _LOAD and not ancestors.intersection(_LOAD):
                self.load_s += duration
        self.spans += len(spans)

    def metrics(self) -> dict:
        calls, busy, amount = self.calls, self.busy, self.amount
        steps = amount["mdp.run_expert"]
        rollout_s = busy["mdp.run_expert"]
        select_s = busy["bandit.select_ucb"]
        out = {
            "mdp.run_expert.calls": calls["mdp.run_expert"],
            "mdp.run_expert.steps": steps,
            "mdp.run_expert.busy_s": rollout_s,
            "mdp.steps_per_s": steps / rollout_s if rollout_s else 0.0,
            "mdp.us_per_call": (1e6 * rollout_s / calls["mdp.run_expert"]
                                if calls["mdp.run_expert"] else 0.0),
            "mdp.load_s": self.load_s,
            "bandit.select.calls": calls["bandit.select_ucb"],
            "bandit.select.us_per_call": (
                1e6 * select_s / calls["bandit.select_ucb"]
                if calls["bandit.select_ucb"] else 0.0),
            "bandit.run_mab.self_s": self.self_time["bandit.run_mab"],
            "bandit.runlog_csv_s": busy["bandit.runlog_csv"],
            "bandit.runlog_csv_bytes": amount["bandit.runlog_csv"],
            "chains.stationary.busy_s": busy["chains.stationary"],
            "chains.stationary.calls": calls["chains.stationary"],
            "chains.slem.busy_s": busy["chains.slem"],
            "chains.mixing_constants.busy_s": busy["chains.mixing_constants"],
            "chains.mixing_constants.horizon":
                amount["chains.mixing_constants"],
            "chains.check_ergodicity.busy_s": busy["chains.check_ergodicity"],
            "chains.profile_expert.busy_s": busy["chains.profile_expert"],
            "regret.bound.calls": calls["regret.bound"],
            "regret.bound.busy_s": busy["regret.bound"],
            "regret.cumulative_regret.busy_s":
                busy["regret.cumulative_regret"],
            "regret.reward_time.busy_s": busy["regret.reward_time"],
            "regret.csv.busy_s": busy["regret.csv"],
            "regret.csv.bytes": amount["regret.csv"],
            "gridworld.build.busy_s": busy["gridworld.build"],
            "gridworld.permute.busy_s": busy["gridworld.permute"],
            "experiment.resolve.busy_s": busy["experiment.resolve"],
            "experiment.nominal_profiles.busy_s":
                busy["experiment.nominal_profiles"],
            "experiment.nominal_profiles.calls":
                calls["experiment.nominal_profiles"],
            "experiment.run_spec.self_s":
                self.self_time["experiment.run_spec"],
            "cli.import_s": busy["cli.import"],
            "trace.spans": self.spans,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, t in self.self_time.items()
                if name.split(".")[0] == layer and name != "cli.import")
        return out

    def shares(self) -> dict:
        """Each layer's self time as a share of the traced time of set-up
        and, apart, of the command (what wall_s times), with the package
        import as its own entry ``cli.import``."""
        out = {}
        for phase, times in self.phase_time.items():
            total = sum(times.values())
            share = out[phase] = dict.fromkeys(LAYERS + ("cli.import",), 0.0)
            for name, t in times.items():
                key = name if name == "cli.import" else name.split(".")[0]
                share[key] += t / total if total else 0.0
        return out
