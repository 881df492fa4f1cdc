"""Workload inputs, generated from the workload seed.

Every workload is a list of CLI invocations over spec and data files written
here; the program under test receives only these files.  The same seed gives
byte-identical inputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("canonical", "short-pulls", "stochastic", "certify")

# Run sizes.  "full" is what the benchmark measures; "smoke" only proves that
# every path runs.  The canonical sweep keeps the shape of the specs from
# canonical_experiments (T0 sweep at c = 0.1, perturbation run twice as long
# with the dynamics swapped halfway) at a fraction of their iteration count.
SIZES = {
    "full": {"seeds": 2, "canonical_iterations": 1000,
             "short_pulls_iterations": 20000, "stochastic_iterations": 2000},
    "smoke": {"seeds": 2, "canonical_iterations": 200,
              "short_pulls_iterations": 400, "stochastic_iterations": 200},
}

SHORT_PULLS_T0 = 8      # smallest T0 meeting the gap precondition at K = 2
STOCHASTIC_T0 = 16
STOCHASTIC_C = 0.1
BOUND_K = 2.0


@dataclass
class RunSpec:
    """One spec the workload runs, as the checks need to see it."""
    label: str
    out: str                 # output directory, relative to a pass directory
    seeds: list
    t0: int
    has_events: bool
    mdp: str                 # data files of the MDP the regret refers to
    experts: list


@dataclass
class Workload:
    name: str
    # each step is a list of CLI argument lists that may run concurrently
    # when the workload is run with two workers; {out} is the pass directory
    serial: list
    parallel: list
    specs: list = field(default_factory=list)
    # analyze invocations: (csv name relative to the pass dir, mdp, experts)
    analyses: list = field(default_factory=list)

    def operations(self) -> int:
        """Seed runs plus expert profiles one pass attempts."""
        return (sum(len(s.seeds) for s in self.specs)
                + sum(len(experts) for _, _, experts in self.analyses))


def spec_seeds(seed: int, count: int) -> list:
    rng = np.random.default_rng([seed, 1])
    return sorted(int(x) for x in rng.choice(10 ** 6, size=count,
                                             replace=False))


def _write_spec(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def materialize_bench(root: Path, target: Path) -> None:
    """The built-in grid, its four experts and canonical specs, as files."""
    subprocess.run([sys.executable, "-m", "mdpbandit.cli", "bench",
                    "--out", str(target)], check=True,
                   stdout=subprocess.DEVNULL, cwd=root, timeout=120,
                   env={**os.environ, "PYTHONPATH": str(root / "src")})


def make_stochastic(bench: Path, target: Path, seed: int) -> tuple:
    """Grid dynamics with epsilon-mixed experts, two-point rewards and a
    non-identity observation kernel.  Returns (mdp file, expert files)."""
    rng = np.random.default_rng([seed, 2])
    target.mkdir(parents=True, exist_ok=True)
    doc = json.loads((bench / "mdp.json").read_text())
    S = doc["states"]
    values = np.asarray(doc["reward"]["values"], dtype=float)
    probs = np.asarray(doc["reward"]["probs"], dtype=float)
    mean = (values * probs).sum(axis=-1)
    # two support points bracketing the grid's reward, mean preserved
    lo = mean * rng.uniform(0.0, 0.5, size=mean.shape)
    hi = mean + (1.0 - mean) * rng.uniform(0.1, 0.5, size=mean.shape)
    p_hi = (mean - lo) / (hi - lo)
    doc["reward"] = {"values": np.stack([lo, hi], axis=-1).tolist(),
                     "probs": np.stack([1.0 - p_hi, p_hi], axis=-1).tolist()}
    blur = rng.uniform(0.05, 0.2)
    doc["observation_kernel"] = ((1.0 - blur) * np.eye(S)
                                 + blur / S).tolist()
    doc["observations"] = S
    mdp_file = target / "mdp.json"
    mdp_file.write_text(json.dumps(doc, indent=1) + "\n")

    experts = []
    for path in sorted(bench.glob("expert_*.json")):
        expert = json.loads(path.read_text())
        pi = np.asarray(expert["policy"], dtype=float)
        eps = rng.uniform(0.05, 0.2)
        expert["policy"] = ((1.0 - eps) * pi + eps / pi.shape[1]).tolist()
        out = target / path.name
        out.write_text(json.dumps(expert, indent=1) + "\n")
        experts.append(str(out))
    return str(mdp_file), experts


def build(name: str, seed: int, size: str, root: Path, inputs: Path
          ) -> Workload:
    """Write the workload's input files under inputs and describe its runs."""
    sizes = SIZES[size]
    seeds = spec_seeds(seed, sizes["seeds"])
    inputs.mkdir(parents=True, exist_ok=True)
    bench = inputs / "bench"
    materialize_bench(root, bench)
    bench_mdp = str(bench / "mdp.json")
    bench_experts = [str(p) for p in sorted(bench.glob("expert_*.json"))]

    if name == "canonical":
        sys.path.insert(0, str(root / "src"))
        from mdpbandit.gridworld import canonical_experiments
        specs = canonical_experiments(out_dir=".")
        sweeps = [s for s in specs if not s.events]
        perturb = next(s for s in specs if s.events)
        n = sizes["canonical_iterations"]
        scale = n / sweeps[0].iterations
        base = _write_spec(inputs / "sweep.json", {
            "label": "sweep", "t0": sweeps[0].t0, "c": sweeps[0].c,
            "iterations": n, "seeds": seeds, "out": "unused", "events": []})
        events = [{"iteration": round(ev["iteration"] * scale),
                   "permutation": ev["permutation"]} for ev in perturb.events]
        pert = _write_spec(inputs / "perturbation.json", {
            "label": perturb.label, "t0": perturb.t0, "c": perturb.c,
            "iterations": round(perturb.iterations * scale), "seeds": seeds,
            "out": "unused", "events": events})
        t0s = [s.t0 for s in sweeps]
        sweep_args = ["sweep", "--config", base, "--t0",
                      ",".join(str(v) for v in t0s), "--out", "{out}/sweep"]
        run_args = ["run", "--config", pert, "--out", "{out}/perturbation"]
        run_specs = [RunSpec(f"sweep-t0-{v}", f"sweep/t0_{v}", seeds, v,
                             False, bench_mdp, bench_experts) for v in t0s]
        run_specs.append(RunSpec(perturb.label, "perturbation", seeds,
                                 perturb.t0, True, bench_mdp, bench_experts))
        return Workload(name, serial=[[sweep_args], [run_args]],
                        parallel=[[sweep_args + ["--workers", "2"]],
                                  [run_args + ["--workers", "2"]]],
                        specs=run_specs)

    if name == "short-pulls":
        spec = _write_spec(inputs / "short_pulls.json", {
            "label": "short-pulls", "t0": SHORT_PULLS_T0, "c": 0.0,
            "iterations": sizes["short_pulls_iterations"], "seeds": seeds,
            "out": "unused", "events": [], "bound_k": BOUND_K})
        args = ["run", "--config", spec, "--out", "{out}/short-pulls"]
        return Workload(name, serial=[[args]],
                        parallel=[[args + ["--workers", "2"]]],
                        specs=[RunSpec("short-pulls", "short-pulls", seeds,
                                       SHORT_PULLS_T0, False, bench_mdp,
                                       bench_experts)])

    stoch_mdp, stoch_experts = make_stochastic(bench, inputs / "stochastic",
                                               seed)
    if name == "stochastic":
        spec = _write_spec(inputs / "stochastic.json", {
            "label": "stochastic", "t0": STOCHASTIC_T0, "c": STOCHASTIC_C,
            "iterations": sizes["stochastic_iterations"], "seeds": seeds,
            "out": "unused", "events": [], "mdp": stoch_mdp,
            "experts": stoch_experts, "bound_k": BOUND_K})
        args = ["run", "--config", spec, "--out", "{out}/stochastic"]
        return Workload(name, serial=[[args]],
                        parallel=[[args + ["--workers", "2"]]],
                        specs=[RunSpec("stochastic", "stochastic", seeds,
                                       STOCHASTIC_T0, False, stoch_mdp,
                                       stoch_experts)])

    if name == "certify":
        analyses = [("certify_bench.csv", bench_mdp, bench_experts),
                    ("certify_stochastic.csv", stoch_mdp, stoch_experts)]
        steps = [["analyze", mdp, *experts, "--out", "{out}/" + csv]
                 for csv, mdp, experts in analyses]
        # with two workers the two analyses run side by side
        return Workload(name, serial=[[a] for a in steps], parallel=[steps],
                        analyses=analyses)

    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
