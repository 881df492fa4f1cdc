"""Regret accounting: curves, the exact decomposition, and bound curves.

Regret here is counted per selection, not per MDP step: after n pulls,
r(n) = n R_bar* - sum of the n per-pull average rewards.  The decomposition
splits that into the pull-count term, the suboptimal transient, and the
optimal transient, and the split is an algebraic identity, not a bound.

All cumulative sums run in extended precision (longdouble).  The identity
is tested to 1e-12 on runs whose regret reaches the thousands, and a plain
float64 prefix sum drifts past that at those magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import gaps
from .mdp import write_csv

__all__ = [
    "RegretCurve",
    "GapTooSmallError",
    "regret_from_rewards",
    "cumulative_regret",
    "decomposition_terms",
    "ucb_regret_bounds",
    "aggregate_runs",
    "cumulative_reward_time",
    "write_aggregate_csv",
    "write_reward_time_csv",
]


class GapTooSmallError(Exception):
    """A suboptimal expert violates Delta_e > 2 K_e / T0; the bound is void."""


@dataclass
class RegretCurve:
    """r(n) for n = 0..N; values[0] is 0 by definition."""

    values: np.ndarray   # longdouble, length N + 1
    r_star: float


def _prefix_sums(values) -> np.ndarray:
    """0, v_0, v_0 + v_1, ...: the running sums of values, in longdouble."""
    return np.concatenate((np.zeros(1, dtype=np.longdouble),
                           np.cumsum(np.asarray(values, dtype=np.longdouble))))


def regret_from_rewards(avg_rewards, r_star: float) -> np.ndarray:
    """Prefix regret of a reward sequence, in longdouble, with r(0) = 0."""
    sums = _prefix_sums(avg_rewards)
    n = np.arange(len(sums), dtype=np.longdouble)
    return n * np.longdouble(r_star) - sums


def cumulative_regret(log, r_star: float) -> RegretCurve:
    if len(log) == 0:
        raise ValueError("empty run log")
    return RegretCurve(values=regret_from_rewards(log.avg_rewards, r_star),
                       r_star=float(r_star))


def decomposition_terms(log, steady_rewards):
    """(term1, term2, term3) per prefix n; their sum equals r(n) exactly.

    term1 counts pulls weighted by gaps, term2 is the transient of the
    suboptimal pulls against their own steady rewards, term3 the transient
    of the optimal pulls against R_bar*.  A log that names an expert
    outside range(len(steady_rewards)) raises ValueError.
    """
    e_star, deltas = gaps(steady_rewards)
    rbar = np.array(steady_rewards, dtype=np.longdouble)
    chosen = np.asarray(log.experts)
    if ((chosen < 0) | (chosen >= len(rbar))).any():
        raise ValueError(f"the log names an expert outside range({len(rbar)})")
    rewards = np.asarray(log.avg_rewards, dtype=np.longdouble)
    is_opt = chosen == e_star

    inc1 = np.asarray(deltas, dtype=np.longdouble)[chosen]
    inc2 = np.where(~is_opt, rbar[chosen] - rewards, np.longdouble(0))
    inc3 = np.where(is_opt, rbar[e_star] - rewards, np.longdouble(0))
    return _prefix_sums(inc1), _prefix_sums(inc2), _prefix_sums(inc3)


def ucb_regret_bounds(k_consts, steady_rewards, schedule, ns) -> np.ndarray:
    """Closed-form expected-regret bound of the UCB selector with K_e =
    k_consts[e] on experts of steady rewards R_bar_e, one each, at each n of
    ns, with the gap check and the per-expert constants worked out once.

    Needs Delta_e > 2 K_e / T0 for every suboptimal expert; otherwise the
    logarithmic pull-count argument has nothing to work with and this
    raises GapTooSmallError naming the first offender.  The best expert's
    transient K_* sum_{m<n} 1/T_m is taken in closed form: K_* n / T0 for
    a constant schedule, _harmonic_bound for a growing one.
    """
    if len(k_consts) != len(steady_rewards):
        raise ValueError(f"{len(k_consts)} constants K_e for "
                         f"{len(steady_rewards)} steady rewards")
    e_star, deltas = gaps(steady_rewards)
    t0 = schedule.t0
    c = schedule.slope
    terms = []   # (denom^2, Delta_e + K_e/T0) per suboptimal expert
    for e, k in enumerate(k_consts):
        if e == e_star:
            continue
        denom = deltas[e] - 2.0 * k / t0
        if denom <= 0:
            raise GapTooSmallError(
                f"expert {e}: gap {deltas[e]:.6f} <= 2 K_e/T0 = "
                f"{2.0 * k / t0:.6f}")
        terms.append((float(denom ** 2), float(deltas[e] + k / t0)))
    k_star = k_consts[e_star]
    n = np.asarray(ns, dtype=float)
    small = np.flatnonzero(n < 1)
    if small.size:
        raise ValueError(f"n must be >= 1, got {ns[small[0]]}")
    # the scalar formula's IEEE operations, in its order, one array at a
    # time; math.log, not np.log, which may differ in the last bit
    log_n = np.array(list(map(math.log, n.tolist())))
    total = np.zeros(len(n))
    for square, weight in terms:
        pulls = 32.0 * log_n / square + 1.0 + math.pi ** 2 / 3.0
        total += pulls * weight
    if c > 0:
        total += k_star * _harmonic_bound(t0, c, n)
    else:
        total += k_star * n / t0
    return total


def _harmonic_bound(t0: int, c: float, n: np.ndarray) -> np.ndarray:
    """Upper bound on sum_{m<n} 1/T_m for a growing schedule, at each n >= 1
    of the array n.

    The bound is 1/T0 + (1/c) ln((T0 - 1/2 + c(n - 1)) / (T0 - 1/2)) and
    holds for every n >= 1 with no further slack.  The m = 0 summand is
    1/T_0 = 1/T0 exactly.  For m >= 1, T_m >= round(T0 + cm) >= T0 + cm - 1/2,
    which is positive because T0 >= 1, so 1/T_m <= f(m) with
    f(x) = 1/(T0 - 1/2 + cx).  f is decreasing on x >= 0, hence
    f(m) <= integral of f over [m - 1, m], and summing over m = 1..n-1
    gives the logarithm.  The bound only exists for growing schedules.
    """
    ratio = (t0 - 0.5 + c * (n - 1)) / (t0 - 0.5)
    return 1.0 / t0 + (1.0 / c) * np.array(list(map(math.log,
                                                     ratio.tolist())))


def aggregate_runs(curves) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise mean and sample standard deviation over runs, each run an
    array of r(n) for n = 0..N."""
    if not curves:
        raise ValueError("no curves to aggregate")
    lengths = {len(c) for c in curves}
    if len(lengths) != 1:
        raise ValueError(f"curves have mismatched lengths {sorted(lengths)}")
    stack = np.stack([np.asarray(c, dtype=np.longdouble) for c in curves])
    mean = stack.mean(axis=0).astype(float)
    if len(curves) == 1:
        return mean, np.zeros_like(mean)
    std = stack.std(axis=0, ddof=1).astype(float)
    return mean, std


def cumulative_reward_time(log) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative reward against MDP time, sampled at iteration boundaries.

    Per-pull averages convert back to step totals via R_m * T_m.  The time
    grid depends only on the schedule, so curves from different seeds of
    the same config align exactly.
    """
    t = np.concatenate(([0], log.t_start + log.horizons))
    step_totals = (np.asarray(log.avg_rewards, dtype=np.longdouble)
                   * np.asarray(log.horizons, dtype=np.longdouble))
    return t.astype(np.int64), _prefix_sums(step_totals).astype(float)


def write_aggregate_csv(path, mean, std, bound) -> None:
    """Columns (n, mean_regret, std_regret, theory_bound); bound entries may
    be nan when the gap precondition fails or events invalidate it."""
    write_csv(path, ("n", "mean_regret", "std_regret", "theory_bound"),
              zip(range(len(mean)), np.asarray(mean, dtype=float).tolist(),
                  np.asarray(std, dtype=float).tolist(),
                  np.asarray(bound, dtype=float).tolist()))


def write_reward_time_csv(path, t, cum) -> None:
    write_csv(path, ("t", "mean_cumulative_reward"),
              zip(np.asarray(t, dtype=np.int64).tolist(),
                  np.asarray(cum, dtype=float).tolist()))
