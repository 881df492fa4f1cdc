"""End-to-end acceptance checks for the benchmark pipeline.

Each test prints one `criterion N: PASS/FAIL - detail` line before
asserting, so a full run doubles as a scoreboard. One check is known to
fail and is kept failing on purpose:

* criterion 8 demands certified mixing constants K in [2.0, 2.1]. No valid
  certificate on the benchmark grid can meet it: the start cell and the
  green cell have disjoint one-step supports under any policy, so
  max_s ||P(s,.) - mu||_1 >= 1, and d(1) <= C alpha then forces
  K = C/(1 - alpha) >= 1/(alpha (1 - alpha)) >= 4. The certified K range
  from 127.5 (expert 1) to about 25700 (expert 2); the test reports the
  constants it actually finds.

Criterion 9 checks the closed-form bound on the harmonic sum of horizons
from n = 1. The closed form must carry the m = 0 summand 1/T0 itself;
integer rounding of the horizons needs no extra slack, because the
half-step shift in the formula already covers it.

The suite states these facts honestly rather than loosening the targets.
"""

import math
import time

import numpy as np
import pytest

from mdpbandit.bandit import HorizonSchedule, horizon, run_mab, ucb_selector
from mdpbandit.chains import gaps, induced_chain, stationary_distribution
from mdpbandit.regret import (
    GapTooSmallError,
    decomposition_terms,
    regret_from_rewards,
    ucb_regret_bounds,
)

from oracles import (
    expected_avg_reward_from_state,
    harmonic_bound,
    log_linear_fit,
)

HORIZONS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_averaged_reward_certificate(bench, certified):
    # |R_bar - E[avg reward | s0, T]| <= (C/T)(1 - alpha^T)/(1 - alpha)
    # for every expert, every start, T in 1..256; analytic, under 10 s
    _, profiles = certified
    start = time.time()
    checks = 0
    violations = 0
    worst = -np.inf
    for expert, prof in zip(bench.experts, profiles):
        for s0 in range(bench.mdp.n_states):
            for T in HORIZONS:
                expected = expected_avg_reward_from_state(
                    bench.mdp, expert, s0, T)
                allowed = (prof.mix_const / T) \
                    * (1.0 - prof.slem ** T) / (1.0 - prof.slem)
                err = abs(prof.steady_reward - expected)
                worst = max(worst, err - allowed)
                violations += err > allowed
                checks += 1
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 10.0
    report(1, ok, f"{checks} start/horizon checks, {violations} violations, "
                  f"worst margin {worst:+.3e}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_row_mixing_certificate(bench, certified):
    # brute-force matrix powers: max_s ||P^t(s,.) - mu||_1 <= C alpha^t
    # for t = 0 .. 10 ceil(1/(1-alpha)), per expert
    _, profiles = certified
    start = time.time()
    checks = 0
    violations = 0
    for expert, prof in zip(bench.experts, profiles):
        chain = induced_chain(bench.mdp, expert)
        mu = stationary_distribution(chain)
        horizon = 10 * math.ceil(1.0 / (1.0 - prof.slem))
        M = np.eye(bench.mdp.n_states)
        for t in range(horizon + 1):
            l1 = np.abs(M - mu).sum(axis=1).max()
            violations += l1 > prof.mix_const * prof.slem ** t
            checks += 1
            M = M @ chain.kernel
    elapsed = time.time() - start
    ok = violations == 0
    report(2, ok, f"{checks} matrix-power steps across 4 experts, "
                  f"{violations} violations, {elapsed:.1f}s")
    assert ok


def test_criterion_3_decomposition_identity(bench, hundred_runs):
    # three-term split reproduces the regret curve to 1e-12, 100 seeded runs
    worst = 0.0
    for log in hundred_runs:
        t1, t2, t3 = decomposition_terms(log, bench.rbar)
        r = regret_from_rewards(log.avg_rewards, bench.r_star)
        worst = max(worst, float(np.abs((t1 + t2 + t3) - r).max()))
    ok = worst <= 1e-12
    report(3, ok, f"100 runs x 400 iterations, max |sum - regret| = {worst:.3e}")
    assert ok


def test_criterion_4_logarithmic_growth(bench, sweep_runs):
    # default run: second-half log fit R^2 >= 0.9 and final per-iteration
    # regret below a tenth of the largest gap, inside the time budget
    data = sweep_runs[4]
    ns = np.arange(2500, 5001)
    _, _, r2 = log_linear_fit(ns, data["mean"][2500:5001])
    rate = data["mean"][5000] / 5000.0
    delta_max = gaps(bench.rbar)[1].max()
    ok = r2 >= 0.9 and rate <= 0.1 * delta_max and data["elapsed"] < 300.0
    report(4, ok, f"fit R^2 = {r2:.4f}, r(N)/N = {rate:.5f} vs "
                  f"0.1 Delta_max = {0.1 * delta_max:.5f}, "
                  f"{data['elapsed']:.0f}s for 10 seeds")
    assert ok


def test_criterion_5_bound_dominates_mean(bench, sweep_runs):
    # where the gap precondition holds (T0 = 16, 64) the closed-form curve
    # must sit above mean + 3 SE at every logged n; T0 = 4 fails the
    # precondition (Delta_min = 0.639 <= 2K/T0 = 1.0) and must say so
    margins = {}
    ok = True
    for t0 in (16, 64):
        data = sweep_runs[t0]
        se = data["std"][1:] / math.sqrt(10.0)
        margin = data["bound"][1:] - (data["mean"][1:] + 3.0 * se)
        margins[t0] = margin.min()
        ok = ok and np.isfinite(data["bound"]).all() and (margin >= 0).all()

    with pytest.raises(GapTooSmallError):
        ucb_regret_bounds(bench.k_consts, bench.rbar, HorizonSchedule(4, 0.1),
                          [1])
    t0_4 = sweep_runs[4]
    ok = ok and np.isnan(t0_4["bound"][1:]).all() and t0_4["warned"]
    report(5, ok, f"min margin T0=16: {margins[16]:+.2f}, "
                  f"T0=64: {margins[64]:+.2f}; "
                  f"T0=4 excluded by gap precondition (bound blanked)")
    assert ok


def test_criterion_6_best_expert_dominates(sweep_runs):
    # final quarter of the default run: >= 80% of pulls go to expert 0
    pulled = np.concatenate(
        [log.experts[3750:5000] for log in sweep_runs[4]["logs"]])
    share = float((pulled == 0).mean())
    ok = share >= 0.80
    report(6, ok, f"expert 0 share over iterations [3750, 5000) = {share:.4f} "
                  f"pooled across 10 seeds")
    assert ok


def test_criterion_7_adapts_after_dynamics_swap(bench, swap_runs):
    # after the permutation event at 5000: expert 2 is modal on
    # [6000, 7000) in >= 8/10 seeds, and the mean post-event regret against
    # the new optimum fits a log curve with R^2 >= 0.85
    logs = swap_runs["logs"]
    switched = 0
    for log in logs:
        counts = np.bincount(log.experts[6000:7000], minlength=4)
        switched += int(counts.argmax()) == 2
    post = np.stack([
        np.asarray(regret_from_rewards(log.avg_rewards[5000:],
                                       bench.swap_r_star), dtype=np.float64)
        for log in logs
    ]).mean(axis=0)
    ns = np.arange(2500, 5001)
    _, _, r2 = log_linear_fit(ns, post[2500:5001])
    ok = switched >= 8 and r2 >= 0.85
    report(7, ok, f"expert 2 modal on [6000, 7000) in {switched}/10 seeds, "
                  f"post-event fit R^2 = {r2:.4f}")
    assert ok


def test_criterion_8_certified_constants_in_band(certified):
    # known failure: the target band K in [2.0, 2.1] is below the K >= 4
    # that any valid certificate on this grid must have (see the module
    # docstring); the reward half of the check does pass
    e_star, profiles = certified
    ks = [p.k_const for p in profiles]
    k_ok = all(2.0 <= k <= 2.1 for k in ks)
    rbar = profiles[e_star].steady_reward
    r_ok = 0.5 <= rbar <= 0.9
    ok = k_ok and r_ok
    report(8, ok, f"certified K range [{min(ks):.1f}, {max(ks):.1f}] vs "
                  f"target [2.0, 2.1]; R_bar* = {rbar:.4f} in [0.5, 0.9]: "
                  f"{'yes' if r_ok else 'no'}")
    assert ok


def test_criterion_9_harmonic_bound_from_the_start():
    # sum_{m<n} 1/T_m <= 1/T0 + (1/c) ln((T0 - 1/2 + c(n-1))/(T0 - 1/2)) for
    # every n in [1, 1e5] on the canonical schedules (T0 = 4, 16, 64 at
    # c = 0.1); T_m <= T0 + cm + 1/2 caps the overshoot at
    # 1/T0 + (1/c) ln((T0 + 1/2)/(T0 - 1/2)), so an inflated bound fails too
    c = 0.1
    n_max = 100_000
    m = np.arange(n_max)
    n = np.arange(1, n_max + 1)
    ok = True
    parts = []
    for t0 in (4, 16, 64):
        schedule = HorizonSchedule(t0, c)
        ts = np.maximum(t0, np.rint(t0 + c * m)).astype(np.int64)
        # spot-check the vectorized horizons against the scalar schedule
        for probe in (0, 1, 5, 6, 10, 25, 1234, 99_999):
            assert ts[probe] == horizon(schedule, probe)

        exact = np.cumsum(1.0 / ts)
        bound = 1.0 / t0 + (1.0 / c) * np.log((t0 - 0.5 + c * (n - 1))
                                              / (t0 - 0.5))
        # the scalar schedule's fsum and the package's closed form (the
        # bound curve of a lone expert with K = 1) must agree with both
        # columns
        probes = (1, 2, 6, 76, 1000, n_max)
        got_bounds = harmonic_bound(schedule, probes)
        mismatched = []
        for probe, got_bound in zip(probes, got_bounds):
            got_exact = math.fsum(1.0 / horizon(schedule, k)
                                  for k in range(probe))
            if (abs(got_exact - exact[probe - 1]) > 1e-9
                    or abs(got_bound - bound[probe - 1]) > 1e-12):
                mismatched.append(probe)

        over = bound - exact
        cap = 1.0 / t0 + (1.0 / c) * math.log((t0 + 0.5) / (t0 - 0.5))
        below = np.flatnonzero(over < 0)
        above = np.flatnonzero(over > cap)
        ok = ok and not mismatched and below.size == 0 and above.size == 0
        if mismatched:
            parts.append(f"T0={t0}: the package's closed form disagrees "
                         f"at n = {mismatched}")
        elif below.size:
            worst = int(over.argmin())
            parts.append(f"T0={t0}: violated for n in [{below[0] + 1}, "
                         f"{below[-1] + 1}], worst excess {-over[worst]:.4f} "
                         f"at n = {worst + 1}")
        elif above.size:
            parts.append(f"T0={t0}: overshoot {over.max():.4f} > cap "
                         f"{cap:.4f} for n in [{above[0] + 1}, "
                         f"{above[-1] + 1}]")
        else:
            parts.append(f"T0={t0}: overshoot <= {over.max():.4f} "
                         f"(cap {cap:.4f})")
    report(9, ok, f"n in [1, {n_max}]; " + "; ".join(parts))
    assert ok


def test_criterion_10_confidence_event_coverage(bench):
    # 1000 single-expert runs: the per-pull mean understates the steady
    # reward by more than K/T0 + sqrt(2 ln(1/delta) / k) in at most 2% of
    # runs at delta = 0.01
    schedule = HorizonSchedule(4, 0.1)
    pulls = 200
    slack = 2.0 / 4.0 + math.sqrt(2.0 * math.log(100.0) / pulls)
    hits = 0
    for seed in range(1000):
        log = run_mab(bench.mdp, [bench.experts[0]], ucb_selector([2.0]),
                      schedule, iterations=pulls,
                      rng=np.random.default_rng(seed))
        empirical = float(np.mean(log.avg_rewards))
        hits += (bench.r_star - empirical) >= slack
    freq = hits / 1000.0
    ok = freq <= 0.02
    report(10, ok, f"coverage violations {hits}/1000 = {freq:.3f} "
                   f"(slack {slack:.3f} at delta = 0.01, k = {pulls})")
    assert ok
