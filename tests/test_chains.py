"""Induced chains, ergodicity checks, mixing certificates, steady rewards."""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mdpbandit import chains
from mdpbandit.experiment import nominal_profiles
from mdpbandit.chains import (
    InducedChain,
    NotErgodicError,
    check_ergodicity,
    default_horizon,
    gaps,
    induced_chain,
    mixing_constants,
    profile_expert,
    slem,
    stationary_distribution,
    steady_state_reward,
)
from mdpbandit.mdp import ExpertPolicy, run_expert

from oracles import expected_avg_reward_from_state
from test_mdp import det_policy, make_mdp, one_state_mdp, random_mdp


def kernel(rows):
    return np.asarray(rows, dtype=float)


def chain(rows):
    return InducedChain(kernel=kernel(rows))


def two_state_mdp():
    """Two states, one action, kernel [[0.9, 0.1], [0.2, 0.8]], source rewards (0, 1)."""
    P = np.array([[[0.9, 0.1]], [[0.2, 0.8]]])
    R = np.zeros((2, 1, 2))
    R[1, 0, :] = 1.0
    return make_mdp(P, R)


TWO_STATE = chain([[0.9, 0.1], [0.2, 0.8]])


# ---------------------------------------------------------------------------
# induced chains


def test_induced_chain_deterministic_policy_slices_the_kernel():
    rng = np.random.default_rng(0)
    mdp = random_mdp(rng)
    expert = det_policy([1, 0, 2, 1], 3)
    ker = induced_chain(mdp, expert).kernel
    for s, a in enumerate([1, 0, 2, 1]):
        np.testing.assert_array_equal(ker[s], mdp.transition[s, a])


def test_induced_chain_uniform_mix_of_stay_and_swap():
    P = np.zeros((2, 2, 2))
    P[:, 0] = np.eye(2)
    P[:, 1] = np.eye(2)[::-1]
    mdp = make_mdp(P, np.zeros((2, 2, 2)))
    expert = ExpertPolicy(policy=np.full((2, 2), 0.5))
    np.testing.assert_array_equal(induced_chain(mdp, expert).kernel,
                                  [[0.5, 0.5], [0.5, 0.5]])


def test_induced_chain_rows_are_stochastic():
    rng = np.random.default_rng(21)
    for trial in range(10):
        mdp = random_mdp(rng, S=5, A=2)
        expert = ExpertPolicy(policy=rng.dirichlet(np.ones(2), size=5))
        ker = induced_chain(mdp, expert).kernel
        np.testing.assert_allclose(ker.sum(axis=1), np.ones(5), atol=1e-12)
        assert (ker >= 0).all()


def test_induced_chain_dimension_mismatch():
    mdp = one_state_mdp([0.5])
    with pytest.raises(ValueError, match=r"^invalid policy: policy shape "
                       r"\(2, 1\) does not match \(1, 1\)$"):
        induced_chain(mdp, ExpertPolicy(policy=np.ones((2, 1))))


def test_the_chain_path_rejects_an_invalid_policy(bench):
    # the chain functions checked only the policy's shape: twice expert 0's
    # policy, rows summing to 2, certified alpha = 1.987 and R_bar = 721.7
    # for rewards in [0, 1]
    doubled = ExpertPolicy(policy=2 * bench.experts[0].policy)
    for path in (lambda: induced_chain(bench.mdp, doubled),
                 lambda: profile_expert(bench.mdp, doubled),
                 lambda: nominal_profiles(bench.mdp, [doubled]),
                 lambda: steady_state_reward(bench.mdp, doubled,
                                             np.full(25, 1 / 25))):
        with pytest.raises(ValueError, match=r"^invalid policy: policy "
                           r"entries outside \[0, 1\]; policy row sum 2\.0 "
                           r"at s=0, expected 1"):
            path()


@pytest.mark.parametrize("rows", [
    [[1.0, 1.0], [1.0, 1.0]], [[0.5, 0.4], [0.5, 0.5]],
    [[1.5, -0.5], [0.5, 0.5]], [[np.nan, 1.0], [0.5, 0.5]],
    [[np.inf, 0.0], [0.5, 0.5]], [[0.5, 0.5]], [0.5, 0.5],
    [[[1.0]]]])
def test_a_chain_kernel_must_be_square_and_row_stochastic(rows):
    # [[1, 1], [1, 1]] built, and its stationary law came out as [1, -0]
    with pytest.raises(ValueError, match="kernel is not a stochastic matrix"):
        InducedChain(kernel(rows))


def test_a_chain_row_may_miss_one_by_a_policy_and_an_mdp_tolerance():
    # the policy row and the MDP rows each pass their check, 0.9e-9 over 1,
    # so the induced row is about 1.8e-9 over
    over = 0.9e-9
    P = np.array([[[0.5, 0.5 + over], [0.5 + over, 0.5]],
                  [[0.5, 0.5 + over], [0.5 + over, 0.5]]])
    mdp = make_mdp(P, np.zeros((2, 2, 2)))
    policy = ExpertPolicy(policy=np.array([[0.5, 0.5 + over]] * 2))
    ker = induced_chain(mdp, policy).kernel
    assert (ker.sum(axis=1) - 1.0 > 1.5e-9).all()


# ---------------------------------------------------------------------------
# ergodicity


def test_ergodicity_identity_chain_is_reducible():
    flags = check_ergodicity(kernel(np.eye(2)))
    assert flags["irreducible"] is False


def test_ergodicity_two_cycle_is_periodic():
    flags = check_ergodicity(kernel([[0.0, 1.0], [1.0, 0.0]]))
    assert flags["irreducible"] is True
    assert flags["aperiodic"] is False


def test_ergodicity_three_cycle_is_periodic():
    flags = check_ergodicity(kernel([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    assert flags == {"irreducible": True, "aperiodic": False}


def test_ergodicity_positive_two_state_chain():
    assert check_ergodicity(TWO_STATE.kernel) == \
        {"irreducible": True, "aperiodic": True}


def test_ergodicity_absorbing_chain_reducible_but_aperiodic():
    flags = check_ergodicity(kernel([[1.0, 0.0], [0.5, 0.5]]))
    assert flags["irreducible"] is False
    assert flags["aperiodic"] is True


def test_ergodicity_wielandt_digraph_is_aperiodic():
    # the ring 0 -> 1 -> ... -> S-1 -> 0 plus the chord S-1 -> 1 has cycles
    # of lengths S and S - 1, so it is primitive, and its exponent is
    # exactly (S - 1)^2 + 1, the most an S-state chain can need: fewer
    # squarings than the check takes leave a zero in the power
    for S in range(3, 14):
        pattern = np.roll(np.eye(S), 1, axis=1)
        pattern[S - 1, 1] = 1.0
        P = pattern / pattern.sum(axis=1, keepdims=True)
        assert check_ergodicity(P) == \
            {"irreducible": True, "aperiodic": True}, S


def test_ergodicity_rejects_an_empty_chain():
    with pytest.raises(ValueError, match="at least one state"):
        check_ergodicity(np.zeros((0, 0)))


def reachable(edges, u):
    """States reachable from u in zero or more steps (BFS)."""
    seen, queue = {u}, [u]
    while queue:
        w = queue.pop()
        for v in edges[w] - seen:
            seen.add(v)
            queue.append(v)
    return seen


def oracle_ergodicity(pattern):
    """Flags from first principles, independent of check_ergodicity's
    closure and matrix powers.  A component's period is the gcd of the
    lengths k <= |C| of the closed walks through its states: every simple
    cycle is that short, and every closed walk splits into simple cycles."""
    S = len(pattern)
    edges = [{v for v in range(S) if pattern[u][v]} for u in range(S)]
    reach = [reachable(edges, u) for u in range(S)]
    periods = {}
    for u in range(S):
        comp = frozenset(v for v in reach[u] if u in reach[v])
        walk = {u}
        for k in range(1, len(comp) + 1):
            walk = set().union(*(edges[w] for w in walk))
            if u in walk:
                periods[comp] = math.gcd(periods.get(comp, 0), k)
    aperiodic = all(p == 1 for p in periods.values())
    return {"irreducible": all(len(r) == S for r in reach),
            "aperiodic": aperiodic}


@st.composite
def positivity_patterns(draw):
    """0/1 patterns on 1-7 states, self-loops included, with a permutation
    laid under half of them so that cycles and periodic chains are common."""
    S = draw(st.integers(1, 7))
    pattern = [[False] * S for _ in range(S)]
    if draw(st.booleans()):
        for u, v in enumerate(draw(st.permutations(range(S)))):
            pattern[u][v] = True
    cells = st.tuples(st.integers(0, S - 1), st.integers(0, S - 1))
    for u, v in draw(st.lists(cells, max_size=2 * S)):
        pattern[u][v] = True
    return pattern


@given(positivity_patterns())
@settings(max_examples=400)
def test_ergodicity_matches_a_reachability_oracle(pattern):
    A = np.array(pattern, dtype=float)
    # row-normalised where a row has mass; only the positive entries matter
    P = A / np.maximum(A.sum(axis=1, keepdims=True), 1.0)
    flags = oracle_ergodicity(pattern)
    assert check_ergodicity(P) == flags
    # building a chain is the one check: a kernel with an empty row is not
    # stochastic, and a reducible or periodic one raises, so no chain
    # function ever sees either
    if not A.any(axis=1).all():
        with pytest.raises(ValueError, match="not a stochastic matrix"):
            InducedChain(P)
    elif all(flags.values()):
        assert InducedChain(P).kernel is P
    else:
        with pytest.raises(NotErgodicError, match=(
                f"irreducible={flags['irreducible']}, "
                f"aperiodic={flags['aperiodic']}")):
            InducedChain(P)


# ---------------------------------------------------------------------------
# stationary distribution and slem


def test_stationary_symmetric_chain_is_uniform():
    mu = stationary_distribution(chain([[0.6, 0.4], [0.4, 0.6]]))
    np.testing.assert_allclose(mu, [0.5, 0.5], atol=1e-12)


def test_stationary_two_state_hand_value():
    # balance: mu0 * 0.1 = mu1 * 0.2, so mu = (2/3, 1/3)
    mu = stationary_distribution(TWO_STATE)
    np.testing.assert_allclose(mu, [2 / 3, 1 / 3], atol=1e-8)


def test_stationary_requires_ergodicity():
    # building the chain raises first, so the solve never sees it
    with pytest.raises(NotErgodicError):
        stationary_distribution(chain(np.eye(2)))
    with pytest.raises(NotErgodicError):
        stationary_distribution(chain([[0.0, 1.0], [1.0, 0.0]]))


@st.composite
def ergodic_kernels(draw):
    """Row-stochastic kernels on 2-8 states, many entries exactly zero.

    A positive ring s -> s + 1 makes every kernel irreducible and a positive
    self-loop at state 0 makes it aperiodic; every other entry is drawn
    from [0, 1] with zero as a likely value.
    """
    S = draw(st.integers(2, 8))
    weights = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        min_size=S * S, max_size=S * S))).reshape(S, S)
    ring = draw(st.lists(st.floats(1e-3, 1.0), min_size=S + 1,
                         max_size=S + 1))
    for s in range(S):
        weights[s, (s + 1) % S] += ring[s]
    weights[0, 0] += ring[S]
    return weights / weights.sum(axis=1, keepdims=True)


@given(ergodic_kernels())
def test_stationary_is_a_fixed_point(ker):
    mu = stationary_distribution(chain(ker))
    assert abs(mu.sum() - 1.0) <= 1e-14
    assert mu.min() >= -1e-15
    assert np.abs(mu @ ker - mu).sum() <= 1e-13


def test_slem_two_state_closed_form():
    # eigenvalues of [[0.9, 0.1], [0.2, 0.8]] are 1 and 0.7
    assert slem(TWO_STATE) == pytest.approx(0.7, abs=1e-12)


def test_slem_rank_one_kernel_is_zero():
    assert slem(chain([[0.5, 0.5], [0.5, 0.5]])) <= 1e-12
    assert slem(chain(np.full((5, 5), 0.2))) <= 1e-12


def test_slem_requires_ergodicity():
    # building the chain raises first, so the eigenvalues are never taken
    with pytest.raises(NotErgodicError):
        slem(chain(np.eye(3)))


# ---------------------------------------------------------------------------
# mixing certificates


def test_default_horizon_floors_at_260():
    assert default_horizon(0.0) == 260
    assert default_horizon(0.7) == 260
    assert default_horizon(0.5) == 260
    assert default_horizon(0.999) == 10_000


def test_mixing_constants_rank_one_convention():
    c = chain([[0.5, 0.5], [0.5, 0.5]])
    mu = stationary_distribution(c)
    assert mixing_constants(c, mu, slem(c), 260) == (2.0, 2.0)


def test_mixing_constants_certify_the_geometric_bound():
    mu = stationary_distribution(TWO_STATE)
    alpha = slem(TWO_STATE)
    C, K = mixing_constants(TWO_STATE, mu, alpha, 260)
    # the raw supremum of d_t / alpha^t is 4/3 here, below the 2.0 floor
    assert C == 2.0
    assert K == pytest.approx(C / (1.0 - alpha), abs=1e-12)
    M = np.eye(2)
    for t in range(1, 261):
        M = M @ TWO_STATE.kernel
        worst = np.abs(M - mu).sum(axis=1).max()
        assert worst <= C * alpha ** t + 1e-12


def test_mixing_constants_horizon_too_short():
    mu = stationary_distribution(TWO_STATE)
    with pytest.raises(ValueError, match="horizon"):
        mixing_constants(TWO_STATE, mu, 0.7, 20)


def stepwise_mixing_constants(c, mu, alpha, horizon):
    """The scan mixing_constants replaced, one product per step, kept as a
    reference.  Returns (C, K, d) with d = [d_1, d_2, ...] up to, not
    including, the first d_t <= 1e-8."""
    M = np.eye(c.kernel.shape[0])
    d = []
    for _ in range(horizon):
        M = M @ c.kernel
        dist = float(np.abs(M - mu).sum(axis=1).max())
        if dist <= 1e-8:
            break
        d.append(dist)
    d = np.array(d)
    sup = float((d / alpha ** np.arange(1, len(d) + 1)).max()) if len(d) else 0.0
    C = max(sup * (1.0 + 1e-9), 2.0)
    return C, C / (1.0 - alpha), d


@contextmanager
def block_steps(steps, S):
    """Run mixing_constants with blocks of the given number of steps
    (None keeps the module's own block size)."""
    if steps is None:
        yield
        return
    with mock.patch.object(chains, "_BLOCK_ELEMENTS", steps * S * S):
        yield


@st.composite
def slow_rings(draw):
    """Lazy rings on 2-6 states: stay with weight 1, step s -> s + 1 with a
    weight near 1e-3, and a few cross entries below 1e-3.  They mix over
    thousands of steps and d_t / alpha_e^t settles below its early peak, so
    most of these scans skip blocks."""
    S = draw(st.integers(2, 6))
    weights = np.eye(S)
    for s in range(S):
        weights[s, (s + 1) % S] += draw(st.floats(5e-4, 2e-3))
    weights += np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.just(0.0), st.floats(0.0, 1e-3)),
        min_size=S * S, max_size=S * S))).reshape(S, S)
    return weights / weights.sum(axis=1, keepdims=True)


@settings(max_examples=60)
@given(st.one_of(ergodic_kernels(), slow_rings()),
       st.one_of(st.none(), st.integers(1, 70)))
def test_blocked_scan_matches_the_stepwise_scan(ker, steps):
    c = chain(ker)
    mu = stationary_distribution(c)
    alpha = slem(c)
    assume(alpha > 1e-12)
    horizon = default_horizon(alpha)
    C_ref, _, d = stepwise_mixing_constants(c, mu, alpha, horizon)
    with block_steps(steps, ker.shape[0]):
        C, K = mixing_constants(c, mu, alpha, horizon)
    assert abs(C - C_ref) <= 1e-12 * C_ref
    assert (C >= d / alpha ** np.arange(1, len(d) + 1)).all()
    assert K == C / (1.0 - alpha)


# (kernel, alpha, horizon, steps per block, the path the scan ends on)
BLOCK_PATHS = {
    # alpha 0.5 below the SLEM 0.7: d_t / alpha^t rises to the last step,
    # t = 30, in the closing block of 6 steps after three of 8
    "partial-last-block": ([[0.9, 0.1], [0.2, 0.8]], 0.5, 30, 8),
    # the same rising ratio meets d_t <= 1e-8 at t = 53, inside the
    # evaluated block (48, 56]; the supremum is the ratio at t = 52
    "stop-in-evaluated-block": ([[0.9, 0.1], [0.2, 0.8]], 0.5, 260, 8),
    # at its own SLEM this chain's ratio peaks early and settles lower, so
    # later blocks are skipped and the floor is reached in a skipped one
    "stop-in-skipped-block": ([[0.98, 0.0, 0.02], [0.02, 0.0, 0.98],
                               [0.25, 0.75, 0.0]], None, 260, 4),
}


@pytest.mark.parametrize("case", list(BLOCK_PATHS))
def test_mixing_constants_block_paths(case):
    rows, alpha, horizon, steps = BLOCK_PATHS[case]
    c = chain(rows)
    mu = stationary_distribution(c)
    alpha = alpha or slem(c)
    C_ref, _, d = stepwise_mixing_constants(c, mu, alpha, horizon)
    ratios = d / alpha ** np.arange(1, len(d) + 1)
    t_sup = int(ratios.argmax()) + 1
    with block_steps(steps, len(rows)):
        C, K = mixing_constants(c, mu, alpha, horizon)
    assert C_ref > 2.0
    # d_{t_sup} agrees with the stepwise scan's to round-off; near the
    # 1e-8 floor that is a relative difference of up to 1e-8 in C
    assert abs(C - C_ref) * alpha ** t_sup <= 1e-15
    assert K == C / (1.0 - alpha)
    if case == "partial-last-block":
        assert horizon % steps != 0 and t_sup == horizon == len(d)
    if case == "stop-in-evaluated-block":
        assert len(d) == 52 and t_sup == 52
    if case == "stop-in-skipped-block":
        assert C == C_ref and len(d) < horizon and t_sup < steps


def test_bench_certificates_equal_the_stepwise_scan(bench, certified):
    # the first block reproduces the stepwise products exactly, and every
    # bench supremum falls in it: analyze prints the same digits
    _, profiles = certified
    for expert, prof in zip(bench.experts, profiles):
        c = induced_chain(bench.mdp, expert)
        C, K, _ = stepwise_mixing_constants(
            c, prof.stationary, prof.slem, default_horizon(prof.slem))
        assert (prof.mix_const, prof.k_const) == (C, K)


def test_blocks_are_scanned_after_a_jump():
    # states 0 and 1 swap slowly (SLEM 0.99); state 2 moves to the rarely
    # visited state 3, which splits evenly between 0 and 1.  d_1 / alpha
    # from state 2 is near 2 / alpha, and below the SLEM the slow mode's
    # ratio, about (0.99 / alpha)^t, dips under it and climbs past it at
    # t = 24, so the scan skips by jumps and then scans to the horizon
    rows = [[0.994, 0.004, 0.002, 0.0], [0.004, 0.994, 0.002, 0.0],
            [0.0, 0.0, 0.0, 1.0], [0.5, 0.5, 0.0, 0.0]]
    c = chain(rows)
    mu = stationary_distribution(c)
    alpha, steps = 0.96, 2
    # a jump from t = B as long as the horizon allows lands on the horizon
    horizon = steps * (1 + 2 ** 7)
    C_ref, _, d = stepwise_mixing_constants(c, mu, alpha, horizon)
    ratios = d / alpha ** np.arange(1, len(d) + 1)
    first = ratios[:steps].max()
    # from t = B the scan jumps at least 4 B steps (two doublings), and the
    # supremum lies past that jump, in a block the scan has to evaluate
    assert d[steps - 1] <= first * alpha ** (5 * steps)
    t_sup = int(ratios.argmax()) + 1
    assert t_sup > 5 * steps and ratios.max() > 2 * first
    with block_steps(steps, len(rows)):
        C, K = mixing_constants(c, mu, alpha, horizon)
    assert abs(C - C_ref) <= 1e-12 * C_ref
    assert K == C / (1.0 - alpha)


def products_after_the_first_block(c, mu, alpha, horizon):
    """Matrix products mixing_constants takes past its first block.  The
    kernel goes in as an array whose products return arrays of the same
    kind; a product is counted unless the kernel itself is an operand
    (those build P^2..P^B).  The first block's own product, of the identity
    and the stacked powers, has plain operands and is not counted."""
    count = [0]

    class Derived(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            def plain(xs):
                return tuple(x.view(np.ndarray) if isinstance(x, Derived)
                             else x for x in xs)
            if "out" in kwargs:
                kwargs["out"] = plain(kwargs["out"])
            result = getattr(ufunc, method)(*plain(inputs), **kwargs)
            if ufunc is not np.matmul:
                return result
            if not any(x is kernel for x in inputs):
                count[0] += 1
            return result.view(Derived)

    kernel = c.kernel.view(Derived)
    mixing_constants(InducedChain(kernel=kernel), mu, alpha, horizon)
    return count[0]


def test_bench_expert_2_scan_takes_few_products_past_its_first_block(bench):
    # horizon 128,560 steps, 64 per block: skipping its 2,008 later blocks
    # one at a time took 2,008 products; jumps over doubling stretches take
    # a few dozen, squarings included
    c = induced_chain(bench.mdp, bench.experts[2])
    alpha = slem(c)
    assert products_after_the_first_block(
        c, stationary_distribution(c), alpha, default_horizon(alpha)) <= 40


# ---------------------------------------------------------------------------
# steady-state and finite-horizon rewards


def test_steady_reward_constant_reward_chain():
    mdp = one_state_mdp([0.3])
    expert = det_policy([0], 1)
    assert steady_state_reward(mdp, expert, np.ones(1)) == pytest.approx(0.3)


def test_steady_reward_two_state_hand_value():
    # reward 1 only when acting from state 1: R_bar = mu_1 = 1/3
    mdp = two_state_mdp()
    expert = det_policy([0, 0], 1)
    mu = stationary_distribution(TWO_STATE)
    assert steady_state_reward(mdp, expert, mu) == pytest.approx(1 / 3, abs=1e-8)


def test_steady_reward_matches_long_rollout():
    mdp = two_state_mdp()
    expert = det_policy([0, 0], 1)
    mu = stationary_distribution(TWO_STATE)
    rbar = steady_state_reward(mdp, expert, mu)
    avg, _, _ = run_expert(mdp, expert, 0, 1_000_000, np.random.default_rng(1))
    # 3 sigma with the chain's asymptotic variance factor (1+a)/(1-a) ~ 5.7
    assert abs(avg - rbar) < 0.004


def test_steady_reward_rejects_mismatched_policy():
    mdp = two_state_mdp()
    with pytest.raises(ValueError, match="^invalid policy: policy shape"):
        steady_state_reward(mdp, ExpertPolicy(policy=np.ones((3, 1))), np.ones(3) / 3)


def test_expected_avg_reward_one_step_hand_value():
    # from state 0 the only reward source is reaching the action from state 1,
    # so E[r_1 | s0=0] = 0 and E[r_1 | s0=1] = 1
    mdp = two_state_mdp()
    expert = det_policy([0, 0], 1)
    assert expected_avg_reward_from_state(mdp, expert, 0, 1) == pytest.approx(0.0)
    assert expected_avg_reward_from_state(mdp, expert, 1, 1) == pytest.approx(1.0)


def test_expected_avg_reward_constant_chain():
    mdp = one_state_mdp([0.3])
    expert = det_policy([0], 1)
    for T in (1, 7, 64):
        assert expected_avg_reward_from_state(mdp, expert, 0, T) == pytest.approx(0.3)


def test_expected_avg_reward_matches_monte_carlo():
    mdp = two_state_mdp()
    expert = det_policy([0, 0], 1)
    exact = expected_avg_reward_from_state(mdp, expert, 0, 4)
    rng = np.random.default_rng(33)
    draws = [run_expert(mdp, expert, 0, 4, rng)[0] for _ in range(100_000)]
    assert abs(np.mean(draws) - exact) < 0.004


def test_expected_avg_reward_approaches_steady_state():
    mdp = two_state_mdp()
    expert = det_policy([0, 0], 1)
    mu = stationary_distribution(TWO_STATE)
    rbar = steady_state_reward(mdp, expert, mu)
    prof = profile_expert(mdp, expert)
    for T in (1, 2, 4, 8, 16, 64, 256):
        for s0 in (0, 1):
            err = abs(rbar - expected_avg_reward_from_state(mdp, expert, s0, T))
            assert err <= prof.k_const / T + 1e-12


def test_expected_avg_reward_rejects_bad_arguments():
    mdp = two_state_mdp()
    expert = det_policy([0, 0], 1)
    with pytest.raises(ValueError):
        expected_avg_reward_from_state(mdp, expert, 0, 0)
    with pytest.raises(ValueError):
        expected_avg_reward_from_state(mdp, expert, 2, 5)


# ---------------------------------------------------------------------------
# gaps and full profiles


def test_gaps_hand_values():
    e_star, deltas = gaps([0.74, 0.03, 0.08, 0.09])
    assert e_star == 0
    np.testing.assert_allclose(deltas, [0.0, 0.71, 0.66, 0.65], atol=1e-12)


def test_gaps_tie_goes_to_lower_index():
    e_star, deltas = gaps([0.5, 0.5])
    assert e_star == 0
    np.testing.assert_array_equal(deltas, [0.0, 0.0])


def test_gaps_single_expert_and_empty_list():
    e_star, deltas = gaps([0.4])
    assert e_star == 0 and deltas[0] == 0.0
    with pytest.raises(ValueError):
        gaps([])


def test_profile_expert_two_state_certificate():
    mdp = two_state_mdp()
    prof = profile_expert(mdp, det_policy([0, 0], 1))
    np.testing.assert_allclose(prof.stationary, [2 / 3, 1 / 3], atol=1e-8)
    assert prof.slem == pytest.approx(0.7, abs=1e-12)
    assert prof.mix_const == 2.0
    assert prof.k_const == pytest.approx(2.0 / 0.3, abs=1e-9)
    assert prof.steady_reward == pytest.approx(1 / 3, abs=1e-8)


def test_profile_expert_averaged_bound_over_horizons():
    # the certified (C, K) must dominate the start-state bias of the
    # finite-horizon average at every T, geometric-sum form
    mdp = two_state_mdp()
    expert = det_policy([0, 0], 1)
    prof = profile_expert(mdp, expert)
    C, a = prof.mix_const, prof.slem
    for T in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        cap = (C / T) * (1.0 - a ** T) / (1.0 - a)
        for s0 in (0, 1):
            err = abs(prof.steady_reward
                      - expected_avg_reward_from_state(mdp, expert, s0, T))
            assert err <= cap + 1e-12


def test_profile_expert_checks_ergodicity_once():
    # building the induced chain is the one check; the stationary law, the
    # SLEM and the mixing scan take the chain as checked
    mdp = two_state_mdp()
    with mock.patch.object(chains, "check_ergodicity",
                           wraps=check_ergodicity) as check:
        profile_expert(mdp, det_policy([0, 0], 1))
    assert check.call_count == 1
    P = np.zeros((2, 1, 2))
    P[:, 0] = np.eye(2)
    with pytest.raises(NotErgodicError):
        profile_expert(make_mdp(P, np.zeros((2, 1, 2))), det_policy([0, 0], 1))
    with pytest.raises(NotErgodicError):
        InducedChain(np.eye(2))
