"""Run one mdpbandit CLI command in a fresh interpreter and time it.

Usage (started by run.py, one process per CLI invocation):

    python3 perfbench/child.py RECORD_JSON MODE -- CLI_ARGS...

MODE is one of
  warm    untraced; builds the sampler's lazy lookup tables for every MDP and
          expert before the first rollout, so that they count as set-up (with
          two workers the warmed objects are what the pool receives), marks
          the end of set-up and writes the timing record
  trace   as warm, and also records a span around every public function of
          the package where it is called; the spans are kept in memory and
          written to RECORD_JSON's sibling ``.spans.json`` after the command
          has finished

The record holds the parent's spawn time (environment PERFBENCH_SPAWN, on the
system-wide monotonic clock), the end of set-up (the first return of
``nominal_profiles`` for run/sweep, the first call of ``profile_expert`` for
analyze) and the end of the command.  Nothing under ``src/`` is modified:
every hook replaces a module attribute from the outside.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _arg(i):
    return lambda args, kwargs, result: args[i] if len(args) > i else 0


def _size_of(i):
    def amount(args, kwargs, result):
        try:
            return os.path.getsize(args[i])
        except (IndexError, OSError):
            return 0
    return amount


def scan_steps(mixing_constants):
    """A function that runs mixing_constants again on a view of the chain
    kernel that counts the matrix products taken with it, and returns their
    number: one per step of the mixing scan, which stops early once the
    chain has mixed.  The view slows the scan, so it is only used to recount
    after the command has ended, never inside a timed span."""
    import dataclasses

    import numpy as np

    products = [0]

    class CountingKernel(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                products[0] += 1
            inputs = tuple(x.view(np.ndarray) if isinstance(x, CountingKernel)
                           else x for x in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    def steps(chain, *args, **kwargs):
        products[0] = 0
        mixing_constants(dataclasses.replace(
            chain, kernel=chain.kernel.view(CountingKernel)), *args, **kwargs)
        return products[0]

    return steps


# Public functions to trace: (module, attribute, span name, amount).  The
# span name's prefix is the layer.  amount(args, kwargs, result) gives a
# per-span count: rollout steps or bytes written.  The steps a mixing scan
# took are counted after the command has ended (Tracer.finish).
TRACED = [
    ("mdpbandit.mdp", "run_expert", "mdp.run_expert", _arg(3)),
    ("mdpbandit.mdp", "load_mdp", "mdp.load_mdp", None),
    ("mdpbandit.mdp", "load_policy", "mdp.load_policy", None),
    ("mdpbandit.mdp", "validate_mdp", "mdp.validate_mdp", None),
    ("mdpbandit.mdp", "validate_policy", "mdp.validate_policy", None),
    ("mdpbandit.bandit", "select_ucb", "bandit.select_ucb", None),
    ("mdpbandit.bandit", "run_mab", "bandit.run_mab", None),
    ("mdpbandit.chains", "induced_chain", "chains.induced_chain", None),
    ("mdpbandit.chains", "check_ergodicity", "chains.check_ergodicity", None),
    ("mdpbandit.chains", "stationary_distribution", "chains.stationary", None),
    ("mdpbandit.chains", "slem", "chains.slem", None),
    ("mdpbandit.chains", "mixing_constants", "chains.mixing_constants", None),
    ("mdpbandit.chains", "steady_state_reward", "chains.steady_state_reward",
     None),
    ("mdpbandit.chains", "with_gaps", "chains.with_gaps", None),
    ("mdpbandit.chains", "profile_expert", "chains.profile_expert", None),
    ("mdpbandit.regret", "ucb_regret_bound", "regret.bound", None),
    ("mdpbandit.regret", "cumulative_regret", "regret.cumulative_regret",
     None),
    ("mdpbandit.regret", "cumulative_reward_time", "regret.reward_time",
     None),
    ("mdpbandit.regret", "write_aggregate_csv", "regret.csv", _size_of(0)),
    ("mdpbandit.regret", "write_reward_time_csv", "regret.csv", _size_of(0)),
    ("mdpbandit.gridworld", "build_gridworld", "gridworld.build", None),
    ("mdpbandit.gridworld", "build_experts", "gridworld.build", None),
    ("mdpbandit.gridworld", "permute_actions", "gridworld.permute", None),
    ("mdpbandit.experiment", "load_spec", "experiment.load_spec", None),
    ("mdpbandit.experiment", "resolve_environment", "experiment.resolve",
     None),
    ("mdpbandit.experiment", "nominal_profiles",
     "experiment.nominal_profiles", None),
    ("mdpbandit.experiment", "run_spec", "experiment.run_spec", None),
    ("mdpbandit.experiment", "sweep_spec", "experiment.sweep_spec", None),
    ("mdpbandit.cli", "main", "cli.main", None),
]


def replace_everywhere(original, replacement) -> None:
    """Rebind every package-module attribute that refers to original, so the
    replacement is what callers reach however they imported the name."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("mdpbandit"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """In-memory spans: name, start, end, parent span index, tag, amount.

    The tag is the run the span belongs to, ``<spec label>/seed<n>``, or the
    invocation id outside a seed run.
    """

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.tag = trace_id
        self.spans = []
        self.stack = [-1]
        self.recounts = []     # (span, count function, args, kwargs)

    def record(self, name, start, end, parent=-1, amount=0):
        self.spans.append([name, start, end, parent, self.tag, amount])

    def wrap(self, name, fn, amount=None, recount=None):
        spans = self.spans
        stack = self.stack
        clock = time.monotonic

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], self.tag, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if amount is not None:
                span[5] = amount(args, kwargs, result)
            if recount is not None:
                self.recounts.append((span, recount, args, kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import importlib
        import mdpbandit.chains as chains
        recounts = {"chains.mixing_constants":
                    scan_steps(chains.mixing_constants)}
        for module_name, attr, name, amount in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            replace_everywhere(original, self.wrap(
                name, original, amount, recounts.get(name)))
        from mdpbandit.bandit import RunLog
        RunLog.to_csv = self.wrap("bandit.runlog_csv", RunLog.to_csv,
                                  _size_of(1))
        self._tag_seed_runs()

    def finish(self) -> None:
        """Fill in the counts that need a call made again, outside every
        span, once the command has ended."""
        for span, recount, args, kwargs in self.recounts:
            span[5] = recount(*args, **kwargs)

    def _tag_seed_runs(self) -> None:
        """Tag spans with the seed they belong to: serial runs call run_mab
        once per seed, in the spec's seed order."""
        import mdpbandit.experiment as experiment
        run_spec = experiment.run_spec
        run_mab = experiment.run_mab
        current = {"seeds": [], "k": 0, "label": ""}

        def tagged_run_spec(spec, *args, **kwargs):
            current.update(seeds=list(spec.seeds), k=0, label=spec.label)
            try:
                return run_spec(spec, *args, **kwargs)
            finally:
                self.tag = self.trace_id

        def tagged_run_mab(*args, **kwargs):
            seeds, k = current["seeds"], current["k"]
            seed = seeds[k] if k < len(seeds) else k
            self.tag = f"{current['label']}/seed{seed}"
            current["k"] = k + 1
            try:
                return run_mab(*args, **kwargs)
            finally:
                self.tag = self.trace_id

        replace_everywhere(run_spec, tagged_run_spec)
        replace_everywhere(run_mab, tagged_run_mab)


def install_setup_hooks(record: dict) -> None:
    """Mark the end of set-up and build the sampler's lookup tables for
    every MDP and expert before the first rollout."""
    import numpy as np
    import mdpbandit.cli as cli
    import mdpbandit.experiment as experiment
    import mdpbandit.mdp as mdp_module
    # the undecorated sampler, so that warming leaves no rollout span
    rollout = getattr(mdp_module.run_expert, "__wrapped__",
                      mdp_module.run_expert)

    nominal = experiment.nominal_profiles

    def marking_nominal(*args, **kwargs):
        result = nominal(*args, **kwargs)
        if record["t_setup"] is None:
            record["t_setup"] = time.monotonic()
        return result

    experiment.nominal_profiles = marking_nominal

    profile = cli.profile_expert

    def marking_profile(*args, **kwargs):
        if record["t_setup"] is None:
            record["t_setup"] = time.monotonic()
        return profile(*args, **kwargs)

    cli.profile_expert = marking_profile

    resolve = experiment.resolve_environment

    def warming_resolve(spec):
        mdp, experts, events = resolve(spec)
        # a one-step rollout on a private generator builds the cached tables
        # without touching the run's random stream
        scratch = np.random.default_rng(0)
        for model in [mdp] + [m for _, m in events]:
            for policy in experts:
                rollout(model, policy, 0, 1, scratch, record=False)
        return mdp, experts, events

    experiment.resolve_environment = warming_resolve


def main(argv) -> int:
    record_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("warm", "trace"):
        print("usage: child.py RECORD MODE -- CLI_ARGS...", file=sys.stderr)
        return 2
    record = {"t_spawn": float(os.environ.get("PERFBENCH_SPAWN", T_START)),
              "t_setup": None, "t_end": None}
    t0 = time.monotonic()
    import mdpbandit.cli as cli
    t1 = time.monotonic()

    tracer = None
    if mode == "trace":
        tracer = Tracer(os.environ.get("PERFBENCH_TRACE_ID", "run"))
        tracer.record("cli.import", t0, t1)
        tracer.install()
    install_setup_hooks(record)

    code = cli.main(cli_args)
    record["t_end"] = time.monotonic()
    if tracer is not None:
        tracer.finish()
        Path(record_path + ".spans.json").write_text(
            json.dumps({"trace_id": tracer.trace_id, "spans": tracer.spans}))
    Path(record_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
