"""Shared fixtures: the benchmark environment and the canonical run sets.

The expensive objects (trained experts, certified mixing profiles, the
10-seed sweeps at each T0, the 10-seed perturbation runs) are built once
per session and shared between the module tests and the acceptance suite.
"""

import time
import warnings

import numpy as np
import pytest
from hypothesis import settings

from mdpbandit.bandit import HorizonSchedule, RunLog, run_mab, ucb_selector
from mdpbandit.chains import gaps, profile_expert
from mdpbandit.experiment import ExperimentSpec, nominal_profiles, run_spec
from mdpbandit.gridworld import (
    BENCHMARK_EVENT_ITERATION,
    BENCHMARK_EVENT_PERMUTATION,
    benchmark_config,
    build_experts,
    build_gridworld,
    permute_actions,
)

# every property test is deterministic, and none has a per-example deadline:
# a test's @settings gives only its example count
settings.register_profile("mdpbandit", derandomize=True, deadline=None)
settings.load_profile("mdpbandit")


class BenchEnv:
    """Benchmark gridworld with its four experts, their exact steady
    rewards before and after the dynamics swap, and the uniform K = 2.0
    the canonical runs select with."""

    def __init__(self):
        self.config = benchmark_config()
        self.mdp = build_gridworld(self.config)
        self.experts = build_experts(self.mdp, self.config)
        self.k_consts = [2.0] * len(self.experts)
        self.rbar = nominal_profiles(self.mdp, self.experts)
        self.e_star = gaps(self.rbar)[0]
        self.r_star = self.rbar[self.e_star]
        self.swapped = permute_actions(self.mdp, BENCHMARK_EVENT_PERMUTATION)
        self.swap_rbar = nominal_profiles(self.swapped, self.experts)
        self.swap_e_star = gaps(self.swap_rbar)[0]
        self.swap_r_star = self.swap_rbar[self.swap_e_star]


@pytest.fixture(scope="session")
def bench():
    return BenchEnv()


@pytest.fixture(scope="session")
def certified(bench):
    """Certified (alpha, C, K) profiles for the four benchmark experts."""
    profiles = [profile_expert(bench.mdp, expert) for expert in bench.experts]
    return gaps([p.steady_reward for p in profiles])[0], profiles


def _read_aggregate(path):
    rows = []
    with open(path) as fh:
        header = fh.readline()
        assert header.strip() == "n,mean_regret,std_regret,theory_bound"
        for line in fh:
            n, mean, std, bound = line.strip().split(",")
            rows.append((int(n), float(mean), float(std), float(bound)))
    n = np.array([r[0] for r in rows], dtype=int)
    mean = np.array([r[1] for r in rows])
    std = np.array([r[2] for r in rows])
    bound = np.array([r[3] for r in rows])
    return n, mean, std, bound


@pytest.fixture(scope="session")
def sweep_runs(tmp_path_factory):
    """Canonical 10-seed benchmark runs at each swept T0, via run_spec.

    Returns {t0: data} where data carries the parsed aggregate curve, the
    per-seed run logs, the wall-clock time, and whether the bound-status
    warning fired (expected at T0=4, where the gap precondition fails).
    """
    root = tmp_path_factory.mktemp("sweep")
    out = {}
    for t0 in (4, 16, 64):
        spec = ExperimentSpec(
            label=f"bench-t0-{t0}",
            t0=t0,
            c=0.1,
            iterations=5000,
            seeds=list(range(10)),
            out=str(root / f"t0_{t0}"),
        )
        start = time.time()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary = run_spec(spec)
        elapsed = time.time() - start
        n, mean, std, bound = _read_aggregate(root / f"t0_{t0}" / "aggregate.csv")
        logs = [
            RunLog.from_csv(root / f"t0_{t0}" / f"runlog_seed{s}.csv")
            for s in range(10)
        ]
        out[t0] = {
            "spec": spec,
            "summary": summary,
            "n": n,
            "mean": mean,
            "std": std,
            "bound": bound,
            "logs": logs,
            "elapsed": elapsed,
            "warned": any("bound" in str(w.message) for w in caught),
            "out": root / f"t0_{t0}",
        }
    return out


@pytest.fixture(scope="session")
def swap_runs(tmp_path_factory):
    """10-seed perturbation runs: dynamics permuted at iteration 5000."""
    root = tmp_path_factory.mktemp("swap")
    spec = ExperimentSpec(
        label="bench-perturbation",
        t0=4,
        c=0.1,
        iterations=10000,
        seeds=list(range(10)),
        out=str(root / "perturbation"),
        events=[
            {
                "iteration": BENCHMARK_EVENT_ITERATION,
                "permutation": list(BENCHMARK_EVENT_PERMUTATION),
            }
        ],
    )
    start = time.time()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        summary = run_spec(spec)
    elapsed = time.time() - start
    logs = [
        RunLog.from_csv(root / "perturbation" / f"runlog_seed{s}.csv")
        for s in range(10)
    ]
    return {
        "spec": spec,
        "summary": summary,
        "logs": logs,
        "elapsed": elapsed,
        "warned": any("bound" in str(w.message) for w in caught),
        "out": root / "perturbation",
    }


@pytest.fixture(scope="session")
def hundred_runs(bench):
    """100 seeded in-memory benchmark runs at N=400 (decomposition checks)."""
    schedule = HorizonSchedule(4, 0.1)
    return [
        run_mab(
            bench.mdp,
            bench.experts,
            ucb_selector(bench.k_consts),
            schedule,
            iterations=400,
            rng=np.random.default_rng(seed),
        )
        for seed in range(100)
    ]
