"""Regret curves, the three-term decomposition, bound curves, aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpbandit.bandit import HorizonSchedule, RunLog, horizon
from mdpbandit.chains import gaps
from mdpbandit.regret import (
    GapTooSmallError,
    RegretCurve,
    aggregate_runs,
    cumulative_regret,
    cumulative_reward_time,
    decomposition_terms,
    regret_from_rewards,
    ucb_regret_bounds,
    write_aggregate_csv,
    write_reward_time_csv,
)

from oracles import decomposition_bound, harmonic_sum_check, log_linear_fit


def synthetic_log(experts, rewards, t0=4, c=0.0):
    experts = np.asarray(experts)
    n = len(experts)
    sched = HorizonSchedule(t0, c)
    hors = np.array([horizon(sched, m) for m in range(n)])
    t_start = np.concatenate(([0], np.cumsum(hors)[:-1]))
    return RunLog(experts=experts, horizons=hors,
                  start_states=np.zeros(n, dtype=int),
                  avg_rewards=np.asarray(rewards, dtype=float),
                  t_start=t_start, meta={})


# ---------------------------------------------------------------------------
# the curve itself


def test_regret_zero_when_playing_at_the_steady_rate():
    r = regret_from_rewards(np.full(50, 0.74), 0.74)
    assert len(r) == 51
    assert r[0] == 0.0
    np.testing.assert_allclose(np.asarray(r, dtype=float), 0.0, atol=1e-15)


def test_regret_linear_for_a_constant_shortfall():
    r = regret_from_rewards(np.full(100, 0.03), 0.74)
    expected = 0.71 * np.arange(101)
    np.testing.assert_allclose(np.asarray(r, dtype=float), expected, rtol=1e-12)


def test_regret_single_pull_hand_value():
    r = regret_from_rewards([0.5], 0.74)
    assert float(r[1]) == pytest.approx(0.24, abs=1e-12)


def test_regret_uses_longdouble_accumulation():
    assert regret_from_rewards([0.1, 0.2], 0.5).dtype == np.longdouble


def test_regret_increments_are_bounded_by_one():
    rng = np.random.default_rng(9)
    r = regret_from_rewards(rng.random(500), 0.62)
    steps = np.diff(np.asarray(r, dtype=float))
    assert np.abs(steps).max() <= 1.0


def test_cumulative_regret_wraps_the_log():
    log = synthetic_log([0, 0], [0.5, 0.7])
    curve = cumulative_regret(log, 0.74)
    assert isinstance(curve, RegretCurve)
    assert curve.r_star == 0.74
    assert len(curve.values) == 3
    empty = RunLog(experts=np.array([], dtype=int), horizons=np.array([], dtype=int),
                   start_states=np.array([], dtype=int), avg_rewards=np.array([]),
                   t_start=np.array([], dtype=int))
    with pytest.raises(ValueError):
        cumulative_regret(empty, 0.74)


# ---------------------------------------------------------------------------
# decomposition


def test_decomposition_all_optimal_exact_rewards_vanishes():
    log = synthetic_log([0, 0, 0], [0.74, 0.74, 0.74])
    t1, t2, t3 = decomposition_terms(log, [0.74, 0.03])
    for term in (t1, t2, t3):
        np.testing.assert_allclose(np.asarray(term, dtype=float), 0.0, atol=1e-15)


def test_decomposition_single_suboptimal_pull_lands_in_term_one():
    # pulling expert 1 with reward exactly its own steady rate: the whole
    # regret increment is the gap, terms two and three stay zero
    log = synthetic_log([1], [0.03])
    t1, t2, t3 = decomposition_terms(log, [0.74, 0.03])
    assert float(t1[1]) == pytest.approx(0.71, abs=1e-12)
    assert float(t2[1]) == pytest.approx(0.0, abs=1e-15)
    assert float(t3[1]) == pytest.approx(0.0, abs=1e-15)


def test_decomposition_identity_on_mixed_synthetic_run():
    rng = np.random.default_rng(4)
    experts = rng.integers(0, 3, size=300)
    rewards = rng.random(300)
    log = synthetic_log(experts, rewards)
    t1, t2, t3 = decomposition_terms(log, [0.7, 0.2, 0.4])
    r = regret_from_rewards(rewards, 0.7)
    gap = np.abs(np.asarray(t1 + t2 + t3 - r, dtype=float))
    assert gap.max() <= 1e-12


def test_decomposition_rejects_an_expert_outside_the_rewards():
    # a -1 would otherwise index the last expert's gap and steady reward
    for experts in ([0, -1, 1], [0, 2, 1]):
        log = synthetic_log(experts, [0.6, 0.2, 0.3])
        with pytest.raises(ValueError, match=r"outside range\(2\)"):
            decomposition_terms(log, [0.6, 0.3])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       st.integers(1, 2000), st.integers(0, 2 ** 32 - 1))
def test_decomposition_terms_sum_to_the_regret(steady, n, seed):
    # hypothesis draws the experts' steady rewards and the run length; the
    # run itself comes from a seeded generator, since drawing thousands of
    # pulls element by element would cost seconds per example
    rng = np.random.default_rng(seed)
    experts = rng.integers(0, len(steady), size=n)
    rewards = rng.random(n)
    t1, t2, t3 = decomposition_terms(synthetic_log(experts, rewards), steady)
    r = regret_from_rewards(rewards, max(steady))
    error = np.abs(np.asarray(t1 + t2 + t3 - r, dtype=float))
    scale = np.maximum(1.0, np.abs(np.asarray(r, dtype=float)))
    assert (error <= 1e-12 * scale).all()


def test_decomposition_identity_on_benchmark_runs(bench, hundred_runs):
    worst = 0.0
    for log in hundred_runs[:5]:
        t1, t2, t3 = decomposition_terms(log, bench.rbar)
        r = regret_from_rewards(log.avg_rewards, bench.r_star)
        worst = max(worst, np.abs(np.asarray(t1 + t2 + t3 - r, dtype=float)).max())
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# bound curves


def test_decomposition_bound_single_pull_hand_value():
    sched = HorizonSchedule(4, 0.1)
    # n=0: no transient sum yet, one expected suboptimal pull
    got = decomposition_bound([0.0, 1.0], [2.0, 2.03], [0.74, 0.03], sched, 0)
    assert got == pytest.approx(0.71 + 2.03 / 4, abs=1e-12)


def test_decomposition_bound_constant_schedule_transient():
    ks, rbar = [2.0, 2.0], [0.74, 0.03]
    sched = HorizonSchedule(4, 0.0)
    base = decomposition_bound([0.0, 0.0], ks, rbar, sched, 0)
    assert base == 0.0
    got = decomposition_bound([0.0, 0.0], ks, rbar, sched, 12)
    assert got == pytest.approx(2.0 * 12 / 4, abs=1e-12)


def test_decomposition_bound_dominates_benchmark_mean(bench, certified,
                                                      hundred_runs):
    # the expected-pull form of the bound assumes valid certificates; with
    # the certified constants it sits far above the hundred-run mean at
    # every checkpoint
    _, profiles = certified
    sched = HorizonSchedule(4, 0.1)
    e_star = bench.e_star
    curves = np.stack([
        np.asarray(regret_from_rewards(log.avg_rewards, bench.r_star),
                   dtype=float)
        for log in hundred_runs
    ])
    mean = curves.mean(axis=0)
    for n in (50, 100, 200, 400):
        pulls = np.zeros(4)
        for log in hundred_runs:
            pulls += np.bincount(log.experts[:n], minlength=4)
        pulls /= len(hundred_runs)
        bound = decomposition_bound(pulls, [p.k_const for p in profiles],
                                    bench.rbar, sched, n)
        assert mean[n] <= bound
        assert mean[n] / bound < 0.05  # not a near miss


def bound_at(k_consts, steady_rewards, schedule, n):
    """The bound curve at the single iteration n."""
    return ucb_regret_bounds(k_consts, steady_rewards, schedule, [n])[0]


def test_ucb_regret_bound_small_gap_raises():
    # gap 0.5 <= 2 K/T0 = 1
    with pytest.raises(GapTooSmallError, match="expert 1"):
        bound_at([2.0, 2.0], [0.74, 0.24], HorizonSchedule(4, 0.1), 10)


def test_ucb_regret_bounds_reject_lists_of_different_lengths():
    sched = HorizonSchedule(16, 0.1)
    for ks, rbar in [([2.0], [0.74, 0.03]), ([2.0, 2.0, 2.0], [0.74, 0.03])]:
        with pytest.raises(ValueError, match="constants K_e for"):
            ucb_regret_bounds(ks, rbar, sched, [1])


def test_ucb_regret_bound_first_iteration_closed_form():
    sched = HorizonSchedule(16, 0.1)
    got = bound_at([2.0, 2.0], [0.74, 0.03], sched, 1)
    # ln 1 = 0 leaves the constant pull term and the best expert's first
    # transient summand K_*/T_0
    expected = (1.0 + math.pi ** 2 / 3.0) * (0.71 + 2.0 / 16.0) + 2.0 / 16
    assert got == pytest.approx(expected, abs=1e-12)


def test_ucb_regret_bound_constant_schedule_linear_term():
    # lone expert: only the transient term
    sched = HorizonSchedule(8, 0.0)
    for n in (1, 10, 100):
        assert bound_at([2.0], [0.74], sched, n) == pytest.approx(
            2.0 * n / 8.0, abs=1e-12)
    grow = HorizonSchedule(8, 0.5)
    for n in (1, 10, 100):
        assert bound_at([2.0], [0.74], grow, n) == pytest.approx(
            2.0 * (1.0 / 8 + (1.0 / 0.5) * math.log((7.5 + 0.5 * (n - 1))
                                                    / 7.5)), abs=1e-12)


@pytest.mark.parametrize("t0,c", [(4, 0.1), (16, 0.1), (64, 0.1), (1, 1.0)])
def test_ucb_regret_bound_covers_a_lone_experts_exact_transient(t0, c):
    # a lone expert's bound is its transient alone, so it may not fall
    # below the exact K_* sum_{m<n} 1/T_m that decomposition_bound adds up,
    # which is already K_*/T0 at n = 1
    sched = HorizonSchedule(t0, c)
    for n in range(1, 2001):
        assert bound_at([2.0], [0.74], sched, n) >= decomposition_bound(
            [0.0], [2.0], [0.74], sched, n), n


def test_ucb_regret_bound_monotone_in_n():
    ks, rbar = [2.0, 2.0, 2.0], [0.74, 0.03, 0.1]
    sched = HorizonSchedule(16, 0.1)
    vals = [bound_at(ks, rbar, sched, n) for n in range(1, 200)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        bound_at(ks, rbar, sched, 0)
    with pytest.raises(ValueError, match=r"^n must be >= 1, got -2$"):
        ucb_regret_bounds(ks, rbar, sched, [3, -2, 0])


def per_n_ucb_regret_bound(k_consts, steady_rewards, schedule, n):
    """The bound worked out from the constants at every n, gap check
    included: the oracle for the once-per-run constants of
    ucb_regret_bounds, which must agree bit for bit."""
    e_star, deltas = gaps(steady_rewards)
    t0 = schedule.t0
    c = schedule.slope
    total = 0.0
    for e, k in enumerate(k_consts):
        if e == e_star:
            continue
        denom = deltas[e] - 2.0 * k / t0
        if denom <= 0:
            raise GapTooSmallError(
                f"expert {e}: gap {deltas[e]:.6f} <= 2 K_e/T0 = "
                f"{2.0 * k / t0:.6f}")
        pulls = 32.0 * math.log(n) / denom ** 2 + 1.0 + math.pi ** 2 / 3.0
        total += pulls * (deltas[e] + k / t0)
    k_star = k_consts[e_star]
    if c > 0:
        total += k_star * (1.0 / t0 + (1.0 / c) * math.log(
            (t0 - 0.5 + c * (n - 1)) / (t0 - 0.5)))
    else:
        total += k_star * n / t0
    return total


@pytest.mark.parametrize("t0", [4, 16, 64])
@pytest.mark.parametrize("c", [0.0, 0.1])
def test_ucb_regret_bounds_equal_the_per_n_form(t0, c):
    # the best expert sits second, so the expert-order sum skips a middle term
    ks, rbar = [0.1, 0.2, 0.25, 0.3], [0.5, 0.74, 0.03, 0.2]
    sched = HorizonSchedule(t0, c)
    ns = range(1, 20001)
    expected = [per_n_ucb_regret_bound(ks, rbar, sched, n) for n in ns]
    assert ucb_regret_bounds(ks, rbar, sched, ns).tolist() == expected
    assert [bound_at(ks, rbar, sched, n) for n in ns[:2000]] \
        == expected[:2000]


def test_ucb_regret_bounds_gap_error_message():
    ks, rbar = [2.0, 0.1, 2.0], [0.74, 0.5, 0.24]
    sched = HorizonSchedule(4, 0.1)
    with pytest.raises(GapTooSmallError) as want:
        per_n_ucb_regret_bound(ks, rbar, sched, 10)
    assert str(want.value) == "expert 2: gap 0.500000 <= 2 K_e/T0 = 1.000000"
    with pytest.raises(GapTooSmallError) as got:
        ucb_regret_bounds(ks, rbar, sched, range(1, 10))
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# the harmonic sum


def test_harmonic_sum_first_iteration():
    exact, bound = harmonic_sum_check(HorizonSchedule(4, 0.1), 1)
    assert exact == 0.25
    # the sum is the single term 1/T0 and the logarithm vanishes at n = 1
    assert bound == pytest.approx(1.0 / 4, abs=1e-15)
    assert bound >= exact
    # an empty sum has no closed form here: at n = 0 the formula would
    # read 1/T0 - (1/c) ln((T0 - 1/2)/(T0 - 1/2 - c)) < 0
    with pytest.raises(ValueError, match="n must be >= 1"):
        harmonic_sum_check(HorizonSchedule(4, 0.1), 0)


def test_harmonic_sum_with_rounding_slack_at_n_100():
    sched = HorizonSchedule(4, 0.1)
    exact, bound = harmonic_sum_check(sched, 100)
    # rounding needs no slack: the half step is inside the closed form
    assert bound == pytest.approx(
        1.0 / 4 + 10.0 * math.log((3.5 + 0.1 * 99) / 3.5), abs=1e-12)
    assert exact <= bound
    assert exact == pytest.approx(
        math.fsum(1.0 / horizon(sched, m) for m in range(100)), abs=1e-15)


def test_harmonic_sum_fast_growth_beats_linear_time():
    sched = HorizonSchedule(4, 10.0)
    exact, _ = harmonic_sum_check(sched, 100)
    assert exact < 2.5  # far below the constant-schedule value n/T0 = 25


def test_harmonic_sum_rejects_constant_schedule():
    with pytest.raises(ValueError):
        harmonic_sum_check(HorizonSchedule(4, 0.0), 10)


# ---------------------------------------------------------------------------
# aggregation and emitters


def curve(values):
    return np.asarray(values, dtype=np.longdouble)


def test_aggregate_mean_and_std_hand_values():
    mean, std = aggregate_runs([curve([0, 1, 2]), curve([0, 3, 4])])
    np.testing.assert_allclose(mean, [0, 2, 3], atol=1e-15)
    np.testing.assert_allclose(std, [0.0, math.sqrt(2), math.sqrt(2)], atol=1e-12)


def test_aggregate_identical_curves_have_zero_std():
    mean, std = aggregate_runs([curve([0, 2, 4])] * 3)
    np.testing.assert_allclose(mean, [0, 2, 4], atol=1e-15)
    np.testing.assert_array_equal(std, np.zeros(3))


def test_aggregate_single_curve_and_errors():
    mean, std = aggregate_runs([curve([0, 5])])
    np.testing.assert_allclose(mean, [0, 5])
    np.testing.assert_array_equal(std, [0.0, 0.0])
    with pytest.raises(ValueError):
        aggregate_runs([])
    with pytest.raises(ValueError):
        aggregate_runs([curve([0, 1]), curve([0, 1, 2])])


def test_benchmark_mean_curve_is_checkpoint_monotone(sweep_runs):
    # after the cold-start burn-in the 10-seed mean rises at every
    # 250-iteration checkpoint (per-step noise still moves it locally)
    mean = sweep_runs[4]["mean"]
    checkpoints = mean[500::250]
    assert (np.diff(checkpoints) > 0).all()


def test_benchmark_last_quarter_rate_collapses(sweep_runs):
    # sublinearity on the default benchmark run: per-iteration regret over
    # the last quarter is under a tenth of the first quarter's rate
    mean = sweep_runs[4]["mean"]
    first = mean[1250] / 1250
    last = (mean[5000] - mean[3750]) / 1250
    assert last <= 0.1 * first


def test_cumulative_reward_time_hand_values():
    log = synthetic_log([0, 0, 0], [0.5, 0.2, 0.1])
    log.horizons = np.array([2, 3, 4])
    log.t_start = np.array([0, 2, 5])
    t, cum = cumulative_reward_time(log)
    np.testing.assert_array_equal(t, [0, 2, 5, 9])
    np.testing.assert_allclose(cum, [0.0, 1.0, 1.6, 2.0], atol=1e-12)
    assert t.dtype == np.int64


def test_cumulative_reward_time_grid_is_schedule_only():
    log_a = synthetic_log([0] * 20, np.linspace(0, 1, 20), t0=4, c=0.3)
    log_b = synthetic_log([0] * 20, np.linspace(1, 0, 20), t0=4, c=0.3)
    t_a, _ = cumulative_reward_time(log_a)
    t_b, _ = cumulative_reward_time(log_b)
    np.testing.assert_array_equal(t_a, t_b)


def test_log_linear_fit_recovers_exact_coefficients():
    n = np.arange(10, 200)
    y = 2.5 * np.log(n) - 1.0
    a, b, r2 = log_linear_fit(n, y)
    assert a == pytest.approx(2.5, abs=1e-9)
    assert b == pytest.approx(-1.0, abs=1e-8)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_log_linear_fit_constant_series():
    # zero total variance must not divide by zero; the flag lands on 1.0
    # for an exact reproduction and 0.0 when least squares leaves rounding
    a, b, r2 = log_linear_fit([1, 2, 3], [4.0, 4.0, 4.0])
    assert a == pytest.approx(0.0, abs=1e-9)
    assert b == pytest.approx(4.0, abs=1e-9)
    assert r2 in (0.0, 1.0)


def test_log_linear_fit_poor_on_linear_growth():
    n = np.arange(1, 500)
    _, _, r2 = log_linear_fit(n, 3.0 * n)
    assert r2 < 0.9


def test_log_linear_fit_rejects_bad_windows():
    with pytest.raises(ValueError):
        log_linear_fit([1], [2.0])
    with pytest.raises(ValueError):
        log_linear_fit([0, 1], [1.0, 2.0])
    with pytest.raises(ValueError):
        log_linear_fit([1, 2], [1.0])


def test_aggregate_csv_round_trip(tmp_path):
    path = tmp_path / "agg.csv"
    mean = np.array([0.0, 1.25, 2.5])
    std = np.array([0.0, 0.1, 0.2])
    bound = np.array([0.0, 7.5, float("nan")])
    write_aggregate_csv(path, mean, std, bound)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,mean_regret,std_regret,theory_bound"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [int(r[0]) for r in rows] == [0, 1, 2]
    np.testing.assert_array_equal([float(r[1]) for r in rows], mean)
    np.testing.assert_array_equal([float(r[2]) for r in rows], std)
    assert float(rows[1][3]) == 7.5
    assert math.isnan(float(rows[2][3]))


def test_reward_time_csv_round_trip(tmp_path):
    path = tmp_path / "rt.csv"
    write_reward_time_csv(path, np.array([0, 4, 9]), np.array([0.0, 1.5, 3.25]))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,mean_cumulative_reward"
    assert lines[1] == "0,0.0"
    assert lines[2] == "4,1.5"
    assert lines[3] == "9,3.25"
