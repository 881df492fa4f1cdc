"""Reference computations that the tests judge the package against.

None of these runs in the package itself: each is either an exact,
slow form of what the package certifies (the expected finite-horizon
average, the exact harmonic sum of the horizons, the expected-pull form of
the regret bound), a fit the acceptance criteria read off a curve, or a
plain per-item form of a rule or loop the package runs in blocks, inline
or by template (the horizon T_n, the confidence bound of the UCB index,
the selection loop, the CSV rows).
"""

import math

import numpy as np

from mdpbandit.bandit import BanditState, RunLog
from mdpbandit.chains import gaps, induced_chain
from mdpbandit.mdp import run_expert, sample_initial_state
from mdpbandit.regret import ucb_regret_bounds


def horizon(schedule, n: int) -> int:
    """T_n = max(T0, round(T0 + slope n)), one n at a time: the rule
    HorizonSchedule.horizons applies to every n at once.  round() is
    banker's rounding at .5, as np.rint is."""
    return max(schedule.t0, round(schedule.t0 + schedule.slope * n))


def confidence_bound(k_const: float, t0: int, k: int, n: int) -> float:
    """K_e/T0 + sqrt(8 ln n / k), the bonus select_ucb adds to an expert's
    mean after k pulls at iteration n >= 1."""
    if k < 1:
        raise ValueError("confidence bound undefined at k = 0; "
                         "pull the expert once first")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return k_const / t0 + math.sqrt(8.0 * math.log(n) / k)


def expected_avg_reward_from_state(mdp, policy, s0: int, T: int) -> float:
    """Exact E[(1/T) sum of the first T rewards | s_0 = s0], no sampling.

    Propagates the state law through the induced kernel and accumulates the
    per-state one-step expected reward.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not 0 <= s0 < mdp.n_states:
        raise ValueError(f"invalid state index {s0}")
    P = mdp.transition
    r = mdp.mean_reward()
    rho = np.einsum("sa,saj,saj->s", policy.policy, P, r)
    kernel = induced_chain(mdp, policy).kernel
    mu_t = np.zeros(mdp.n_states)
    mu_t[s0] = 1.0
    total = 0.0
    for _ in range(T):
        total += float(mu_t @ rho)
        mu_t = mu_t @ kernel
    return total / T


def decomposition_bound(expected_pulls, k_consts, steady_rewards, schedule,
                        n: int) -> float:
    """Sum of E[T_e(n)] (Delta_e + K_e/T0) over suboptimal e, plus the
    best expert's transient K_* sum over 1/T_m."""
    e_star, deltas = gaps(steady_rewards)
    t0 = schedule.t0
    total = 0.0
    for e, k in enumerate(k_consts):
        if e == e_star:
            continue
        total += float(expected_pulls[e]) * (deltas[e] + k / t0)
    total += k_consts[e_star] * math.fsum(
        1.0 / horizon(schedule, m) for m in range(n))
    return total


def harmonic_bound(schedule, ns) -> np.ndarray:
    """The package's closed-form bound on sum_{m<n} 1/T_m at each n of ns:
    the bound curve of a lone expert with K = 1 is exactly that term."""
    return ucb_regret_bounds([1.0], [0.0], schedule, ns)


def harmonic_sum_check(schedule, n: int) -> tuple[float, float]:
    """(exact sum of 1/T_m for m < n, the package's closed-form bound);
    the package raises ValueError for n < 1."""
    if schedule.slope <= 0:
        raise ValueError("bound form invalid for c = 0; "
                         "the constant schedule sums to n / T0 exactly")
    exact = math.fsum(1.0 / horizon(schedule, m) for m in range(n))
    return exact, float(harmonic_bound(schedule, [n])[0])


def log_linear_fit(n, y) -> tuple[float, float, float]:
    """Least squares y ~ a ln n + b; returns (a, b, R^2)."""
    n = np.asarray(n, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(n) != len(y) or len(n) < 2:
        raise ValueError("need two or more aligned points to fit")
    if (n < 1).any():
        raise ValueError("fit window must have n >= 1")
    X = np.column_stack((np.log(n), np.ones(len(n))))
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def reference_run_mab(mdp, experts, selector, schedule, iterations=1,
                      rng=None, events=()):
    """run_mab as one run_expert call per pull, each drawing its own
    uniforms: the loop the blocked draws of run_mab must replay exactly."""
    pending = sorted(events, key=lambda ev: ev[0])
    state = BanditState.fresh(len(experts))
    s = sample_initial_state(mdp, rng)
    columns = {"chosen": [], "hors": [], "starts": [], "rewards": [],
               "t_start": []}
    current, elapsed = mdp, 0
    for n in range(iterations):
        while pending and pending[0][0] <= n:
            current = pending.pop(0)[1]
        T = horizon(schedule, n)
        e = selector(state, schedule)
        columns["starts"].append(s)
        columns["t_start"].append(elapsed)
        avg, s, _ = run_expert(current, experts[e], s, T, rng, record=False)
        columns["chosen"].append(e)
        columns["hors"].append(T)
        columns["rewards"].append(avg)
        state.sums[e] += avg
        state.pulls[e] += 1
        state.n += 1
        elapsed += T
    meta = {"t0": schedule.t0, "c": schedule.slope, "iterations": iterations}
    if events:
        meta["events"] = ";".join(str(w) for w, _ in
                                  sorted(events, key=lambda ev: ev[0]))
    if pending:
        meta["unfired_events"] = ",".join(str(w) for w, _ in pending)
    return RunLog(experts=np.array(columns["chosen"], dtype=np.int64),
                  horizons=np.array(columns["hors"], dtype=np.int64),
                  start_states=np.array(columns["starts"], dtype=np.int64),
                  avg_rewards=np.array(columns["rewards"]),
                  t_start=np.array(columns["t_start"], dtype=np.int64),
                  meta=meta)


def joined_csv_text(header, rows, comments=()) -> str:
    """CSV text with each row joined from str() of its values."""
    lines = [f"# {line}" for line in comments]
    lines.append(",".join(header))
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"
