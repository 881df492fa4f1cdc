"""Reference computations that the tests judge the package against.

None of these runs in the package itself: each is either an exact,
slow form of what the package certifies (the expected finite-horizon
average, the exact harmonic sum of the horizons, the expected-pull form of
the regret bound) or a fit the acceptance criteria read off a curve.
"""

import math

import numpy as np

from mdpbandit.bandit import horizon
from mdpbandit.chains import MixingProfile, gaps, induced_chain
from mdpbandit.regret import ucb_regret_bounds


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


def decomposition_bound(expected_pulls, profiles, schedule, n: int) -> float:
    """Sum of E[T_e(n)] (Delta_e + K_e/T0) over suboptimal e, plus the
    best expert's transient K_* sum over 1/T_m."""
    e_star, deltas = gaps(profiles)
    t0 = schedule.t0
    total = 0.0
    for e, p in enumerate(profiles):
        if e == e_star:
            continue
        total += float(expected_pulls[e]) * (deltas[e] + p.k_const / t0)
    total += profiles[e_star].k_const * math.fsum(
        1.0 / horizon(schedule, m) for m in range(n))
    return total


def harmonic_bound(schedule, ns) -> np.ndarray:
    """The package's closed-form bound on sum_{m<n} 1/T_m at each n of ns:
    the bound curve of a lone expert with K = 1 is exactly that term."""
    lone = MixingProfile(stationary=np.ones(1), slem=0.0, mix_const=1.0,
                         k_const=1.0, steady_reward=0.0)
    return ucb_regret_bounds([lone], schedule, ns)


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
