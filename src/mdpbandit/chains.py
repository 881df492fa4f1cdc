"""Induced-chain analysis: stationary laws, mixing certificates, gaps.

Every expert policy turns the MDP into a Markov chain.  This module computes
what the paper certifies about it: the stationary distribution mu_e, solved
exactly as one linear system, the second largest eigenvalue modulus alpha_e,
a certified geometric-mixing constant C_e with K_e = C_e / (1 - alpha_e) and
the steady reward, all in profile_expert's MixingProfile, and the gaps.  A
run reads only the steady rewards and the gaps, as plain numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp import _ATOL, validate_policy

__all__ = [
    "InducedChain",
    "MixingProfile",
    "NotErgodicError",
    "induced_chain",
    "check_ergodicity",
    "stationary_distribution",
    "slem",
    "mixing_constants",
    "steady_state_reward",
    "gaps",
    "default_horizon",
    "profile_expert",
]

class NotErgodicError(Exception):
    """Chain is reducible or periodic; the steady-state machinery needs both."""


@dataclass(frozen=True)
class InducedChain:
    """An (S, S) row-stochastic kernel, checked when it is built: any other
    kernel raises ValueError (a row may miss 1 by 2 _ATOL, a policy's and
    an MDP's), and a reducible or periodic one NotErgodicError."""

    kernel: np.ndarray

    def __post_init__(self):
        P = self.kernel   # ufuncs only; a NaN or inf fails its row's sum
        if P.ndim != 2 or P.shape[0] != P.shape[1] or (P < 0).any() \
                or not (abs(P.sum(axis=1) - 1.0) <= 2 * _ATOL).all():
            raise ValueError(f"{P.shape} kernel is not a stochastic matrix")
        flags = check_ergodicity(P)
        if not all(flags.values()):
            raise NotErgodicError(
                f"chain is not ergodic: irreducible={flags['irreducible']}, "
                f"aperiodic={flags['aperiodic']}")


@dataclass
class MixingProfile:
    """The certificate profile_expert gives one expert on one MDP."""

    stationary: np.ndarray
    slem: float           # alpha_e
    mix_const: float      # C_e
    k_const: float        # K_e = C_e / (1 - alpha_e), exact by construction
    steady_reward: float  # R_bar^e


def induced_chain(mdp, policy) -> InducedChain:
    """P_tilde(s, s') = sum_a P(s, a, s') pi(s, a), pi validated on mdp."""
    validate_policy(policy, mdp)
    return InducedChain(kernel=np.einsum("saj,sa->sj", mdp.transition,
                                         policy.policy))


def check_ergodicity(kernel: np.ndarray) -> dict:
    """{'irreducible': bool, 'aperiodic': bool} of a kernel's digraph.

    u and v share a strongly connected component when each reaches the other
    in A | I squared (S - 1).bit_length() times.  W keeps the edges of A
    inside components, so its powers stay block diagonal, one block per
    component.  A component with an internal edge is aperiodic exactly when
    its block is primitive, and by Wielandt's bound a primitive m x m block
    has every entry of W^k positive for all k >= (m - 1)^2 + 1, while a
    periodic block has a zero in every power.  W is squared
    ((S - 1)^2).bit_length() times, to a power 2^j > (S - 1)^2.  A state
    with no edge inside its component is a component of its own without a
    self-loop, and has no period.  Products are thresholded back to 0/1
    after each squaring, so they stay exact in floats (entries <= S).
    """
    S = kernel.shape[0]
    if S == 0:
        raise ValueError("a chain needs at least one state")
    A = kernel > 0
    R = (A | np.eye(S, dtype=bool)).astype(float)
    for _ in range((S - 1).bit_length()):
        R = (R @ R > 0).astype(float)
    same = (R > 0) & (R.T > 0)
    W = (A & same).astype(float)
    on_cycle = W.any(axis=1)
    for _ in range(((S - 1) ** 2).bit_length()):
        W = (W @ W > 0).astype(float)
    aperiodic = bool(((W > 0) | ~same)[on_cycle].all())
    return {"irreducible": bool(same.all()), "aperiodic": aperiodic}


def stationary_distribution(chain: InducedChain) -> np.ndarray:
    """Exact stationary law: the solution of mu (I - P) = 0, sum(mu) = 1.

    On an irreducible chain the S balance equations have rank S - 1 and sum
    to zero, so any one of them is redundant.  Replacing the last by the
    normalisation row gives a nonsingular system: the balance rows span the
    vectors orthogonal to mu, and the all-ones row is not one of them.  One
    LU solve then returns mu to round-off.
    """
    P = chain.kernel
    S = P.shape[0]
    A = np.eye(S) - P.T
    A[-1] = 1.0
    b = np.zeros(S)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


def slem(chain: InducedChain) -> float:
    """Second largest eigenvalue modulus of the chain kernel."""
    mods = np.sort(np.abs(np.linalg.eigvals(chain.kernel)))[::-1]
    return float(mods[1])


def default_horizon(alpha: float) -> int:
    # long enough for the geometric bound check out to t = 10 ceil(1/(1-a)),
    # and for the averaged bound out to T = 256
    if alpha <= 0.0:
        return 260
    return max(10 * math.ceil(1.0 / (1.0 - alpha)), 260)


# Elements in each of the mixing scan's two block buffers, the powers
# [P^1 | ... | P^B] and their product with P^t: B = this // S^2 steps per
# block, 64 at S = 25.  On a 2-core Xeon with OpenBLAS, bigger blocks were
# no faster with one BLAS thread, and slower with two: their products are
# large enough to start the second thread.
_BLOCK_ELEMENTS = 40_000


def mixing_constants(chain: InducedChain, stationary: np.ndarray, alpha: float,
                     horizon: int) -> tuple[float, float]:
    """Certify C_e over the horizon and return (C_e, K_e).

    C_e is the empirical supremum of d_t / alpha^t, with
    d_t = max_s ||P^t(s,.) - mu||_1, over t in [1, horizon], floored at 2.0.
    The floor is not cosmetic: the L1 distance between any two
    distributions is at most 2, so C_e >= 2 makes the t = 0 term of the
    averaged-reward bound hold as well.  The supremum carries one part in
    1e9 of slack to absorb rounding when a caller re-derives the ratios.

    The scan runs in blocks of B steps.  P^1..P^B are computed once, side
    by side, so the block after step t is one product P^t [P^1 | ... | P^B]
    and its B distances one reduction.  d_t never grows with t (each row of
    P^(t+1) - 1 mu is a convex combination of the rows of P^t - 1 mu; see
    Levin, Peres and Wilmer, Markov Chains and Mixing Times, ch. 4), so
    every ratio in a stretch (t, t + L] is at most d_t / alpha^(t+L).  When
    that is no more than the supremum so far, and t + L is within the
    horizon, nothing in the stretch can raise the supremum and it is
    skipped.  A block start t that passes this test for its own block
    jumps L = B 2^j steps, the largest j that passes it, with one product
    by P^(B 2^j); P^B, P^2B, P^4B, ... are squared when first needed and
    kept for the rest of the scan.  A jump passes over only blocks that
    would each have passed the test, so block starts stay multiples of B,
    a block that fails the test is scanned, and the 1e-8 stop is checked
    at every landing point.  The first block is the step-by-step scan's own
    P, P P, ...; later blocks agree with it to round-off.
    """
    if alpha <= 1e-12:
        # (effectively) rank-1 kernel: exact after one step, constants by
        # convention
        return 2.0, 2.0
    if horizon < math.ceil(10.0 / (1.0 - alpha)):
        raise ValueError(
            f"horizon {horizon} shorter than ceil(10/(1-alpha)) = "
            f"{math.ceil(10.0 / (1.0 - alpha))}")
    P = chain.kernel
    S = P.shape[0]
    B = max(1, min(horizon, _BLOCK_ELEMENTS // (S * S)))
    powers = np.empty((S, B, S))
    powers[:, 0] = PB = P
    for k in range(1, B):
        powers[:, k] = PB = PB @ P
    powers = powers.reshape(S, B * S)
    alph = alpha ** np.arange(1, horizon + 1)
    M = np.eye(S)     # P^t at the block start t
    d_t = 2.0         # d_0 is at most 2
    sup = 0.0
    jumps = [PB]      # P^B, P^2B, P^4B, ..., squared when first needed
    # the scan stops at the first d_t <= 1e-8: past it d_t / alpha^t divides
    # the round-off in P^t by a vanishing alpha^t, so the ratio measures
    # arithmetic, not mixing; the tail it leaves out is under 1e-8
    # absolute, below every tolerance the bound curves use
    t = 0
    while t < horizon:
        n = min(B, horizon - t)
        if d_t <= sup * alph[t + n - 1]:
            j = 0
            while (t + (B << (j + 1)) <= horizon
                   and d_t <= sup * alph[t + (B << (j + 1)) - 1]):
                j += 1
                if j == len(jumps):
                    jumps.append(jumps[-1] @ jumps[-1])
            M = M @ jumps[j]
            t += B << j
            d_t = float(np.abs(M - stationary).sum(axis=1).max())
            if d_t <= 1e-8:
                break
            continue
        block = M @ powers[:, :n * S]
        M = block[:, -S:].copy()
        diff = block.reshape(S, n, S)
        diff -= stationary
        d = np.abs(diff, out=diff).sum(axis=2).max(axis=0)
        floor = np.flatnonzero(d <= 1e-8)
        stop = int(floor[0]) if floor.size else n
        if stop:
            sup = max(sup, float((d[:stop] / alph[t:t + stop]).max()))
        if floor.size:
            break
        d_t = float(d[-1])
        t += n
    C = max(sup * (1.0 + 1e-9), 2.0)
    return C, C / (1.0 - alpha)


def steady_state_reward(mdp, policy, stationary: np.ndarray) -> float:
    """R_bar = E_{s ~ mu, a ~ pi, s' ~ P}[ E R(s, a, s') ], pi validated."""
    validate_policy(policy, mdp)
    r = mdp.mean_reward()
    per_state = np.einsum("sa,saj,saj->s", policy.policy, mdp.transition, r)
    return float(stationary @ per_state)


def gaps(steady_rewards) -> tuple[int, np.ndarray]:
    """Best expert (argmax R_bar_e, ties to the lowest index) and Delta_e."""
    rewards = np.array(steady_rewards, dtype=float)
    if not rewards.size:
        raise ValueError("need at least one steady reward")
    e_star = int(rewards.argmax())
    return e_star, rewards[e_star] - rewards


def profile_expert(mdp, policy) -> MixingProfile:
    """Full certified profile of one expert on one MDP, with the mixing
    scan run over default_horizon(alpha) steps.  Building the induced
    chain checks it for ergodicity, once."""
    chain = induced_chain(mdp, policy)
    mu = stationary_distribution(chain)
    alpha = slem(chain)
    C, K = mixing_constants(chain, mu, alpha, default_horizon(alpha))
    rbar = steady_state_reward(mdp, policy, mu)
    return MixingProfile(stationary=mu, slem=alpha, mix_const=C, k_const=K,
                         steady_reward=rbar)
