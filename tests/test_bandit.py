"""Horizon schedule, UCB index, selection loop, run logs."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdpbandit import bandit
from mdpbandit import mdp as mdp_module
from mdpbandit.bandit import (
    BanditState,
    HorizonSchedule,
    RunLog,
    run_mab,
    select_ucb,
    ucb_selector,
)
from mdpbandit.gridworld import permute_actions
from mdpbandit.mdp import ExpertPolicy, FiniteMdp, run_expert

from oracles import confidence_bound, horizon, reference_run_mab
from test_mdp import BoundaryDraws, boundary_pool, det_policy, edge_rows, \
    joint_masses, make_mdp, one_state_mdp, random_mdp, sparse_rows, \
    swap_or_stay


# ---------------------------------------------------------------------------
# schedule


def test_schedule_validation():
    with pytest.raises(ValueError):
        HorizonSchedule(0, 0.1)
    with pytest.raises(ValueError):
        HorizonSchedule(4, -0.5)
    # a fractional, boolean or non-numeric T0 and a non-finite slope would
    # otherwise surface only at the first horizon(), or give T_0 = 4.5
    for t0, slope in [(4.5, 0.0), (True, 0.0), ("4", 0.0), (4, math.nan),
                      (4, math.inf), (2**63, 0.0), (10**400, 0.0)]:
        with pytest.raises(ValueError):
            HorizonSchedule(t0, slope)
    HorizonSchedule(1, 0.0)  # smallest legal schedule
    HorizonSchedule(2**63 - 1, 0.0)  # largest T0 an int64 step count holds
    HorizonSchedule(np.int64(4), 0.5)


def test_horizon_hand_values():
    ts = HorizonSchedule(4, 0.1).horizons(11).tolist()
    assert ts[0] == 4
    assert ts[10] == 5
    # round-half-to-even at the .5 boundary: 4 + 0.5 rounds down to 4
    assert ts[5] == 4
    assert ts[6] == 5  # 4.6 rounds up
    assert HorizonSchedule(4, 0.0).horizons(123457)[-1] == 4


def test_horizon_monotone_and_floored():
    sched = HorizonSchedule(3, 0.37)
    ts = sched.horizons(2000).tolist()
    assert ts == [horizon(sched, n) for n in range(2000)]
    assert min(ts) >= 3
    assert all(b >= a for a, b in zip(ts, ts[1:]))
    assert ts[-1] == round(3 + 0.37 * 1999)


# ---------------------------------------------------------------------------
# confidence bound


def test_confidence_bound_frozen_value():
    # 2/4 + sqrt(8 ln 10 / 2)
    got = confidence_bound(2.0, 4, 2, 10)
    assert got == pytest.approx(3.5348542587702925, abs=1e-12)
    assert got == 0.5 + math.sqrt(8.0 * math.log(10.0) / 2.0)


def test_confidence_bound_at_n_one_is_the_transient_term():
    # ln 1 = 0, so only K/T0 remains
    assert confidence_bound(2.0, 4, 1, 1) == 0.5
    assert confidence_bound(3.0, 6, 5, 1) == 0.5


def test_confidence_bound_monotonicity():
    ks = np.arange(1, 200)
    vals = [confidence_bound(2.0, 4, int(k), 50) for k in ks]
    assert all(b <= a for a, b in zip(vals, vals[1:]))  # shrinks with pulls
    ns = np.arange(1, 200)
    vals = [confidence_bound(2.0, 4, 10, int(n)) for n in ns]
    assert all(b >= a for a, b in zip(vals, vals[1:]))  # grows with time


def test_confidence_bound_rejects_bad_counts():
    with pytest.raises(ValueError):
        confidence_bound(2.0, 4, 0, 5)
    with pytest.raises(ValueError):
        confidence_bound(2.0, 4, 5, 0)


# ---------------------------------------------------------------------------
# selection


def test_select_ucb_cold_start_prefers_lowest_unpulled():
    sched = HorizonSchedule(4, 0.1)
    state = BanditState.fresh(4)
    assert select_ucb(state, [2.0] * 4, sched) == 0
    state.pulls[:] = [1, 0, 1, 1]
    state.n = 3
    assert select_ucb(state, [2.0] * 4, sched) == 1


def test_select_ucb_equal_bonuses_pick_best_mean():
    sched = HorizonSchedule(4, 0.1)
    state = BanditState(pulls=np.full(4, 5), sums=np.array([3.5, 0.5, 0.5, 0.5]),
                        n=20)
    assert select_ucb(state, [2.0] * 4, sched) == 0


def test_select_ucb_tie_goes_to_lowest_index():
    sched = HorizonSchedule(4, 0.1)
    state = BanditState(pulls=np.full(3, 4), sums=np.full(3, 2.0), n=12)
    assert select_ucb(state, [2.0] * 3, sched) == 0


def test_select_ucb_empty_state():
    with pytest.raises(ValueError):
        select_ucb(BanditState.fresh(0), [], HorizonSchedule(4, 0.1))


def test_select_ucb_maximizes_the_index():
    sched = HorizonSchedule(4, 0.1)
    rng = np.random.default_rng(2)
    for trial in range(50):
        pulls = rng.integers(1, 30, size=5)
        sums = rng.random(5) * pulls
        n = int(pulls.sum())
        state = BanditState(pulls=pulls, sums=sums, n=n)
        ks = rng.random(5) * 3 + 0.5
        e = select_ucb(state, ks, sched)
        idx = [sums[j] / pulls[j] + confidence_bound(ks[j], sched.t0,
                                                     int(pulls[j]), n)
               for j in range(5)]
        assert idx[e] == max(idx)


def vectorised_select_ucb(state, k_consts, schedule):
    """The index in numpy form, one array operation per term: the oracle
    the plain-float select_ucb must match choice for choice."""
    pulls = np.asarray(state.pulls)
    sums = np.asarray(state.sums, dtype=float)
    cold = np.flatnonzero(pulls == 0)
    if cold.size:
        return int(cold[0])
    bounds = np.asarray(k_consts, dtype=float) / schedule.t0 \
        + np.sqrt(8.0 * math.log(state.n) / pulls)
    return int(np.argmax(sums / pulls + bounds))


@st.composite
def selector_cases(draw):
    m = draw(st.integers(1, 8))
    # small value pools make cold starts and exact ties common; their
    # decimals (0.1 + 0.2 != 0.3) make near-ties that a regrouped sum breaks
    counts = st.one_of(st.sampled_from([0, 1, 2, 5]), st.integers(1, 10**6))
    totals = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 2.5]),
                       st.floats(0.0, 1e6))
    consts = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 2.0]),
                       st.floats(0.0, 100.0))
    if draw(st.booleans()):  # every expert identical: an exact m-way tie
        pulls = [draw(counts)] * m
        sums = [draw(totals)] * m
        k_consts = [draw(consts)] * m
    else:
        pulls = draw(st.lists(counts, min_size=m, max_size=m))
        sums = draw(st.lists(totals, min_size=m, max_size=m))
        k_consts = draw(st.lists(consts, min_size=m, max_size=m))
    t0 = draw(st.sampled_from([1, 4, 16, 64]))
    as_arrays = draw(st.booleans())
    return pulls, sums, k_consts, t0, as_arrays


@given(selector_cases())
# 0.1 + (0.3 + b) < 0.2 + (0.2 + b), but (0.1 + 0.3) + b == (0.2 + 0.2) + b:
# an index summed in another order would tie and pick expert 0
@example(([1, 1], [0.1, 0.2], [0.3, 0.2], 1, False))
@example(([1, 1], [0.1, 0.2], [0.3, 0.2], 1, True))
def test_select_ucb_matches_the_vectorised_index(case):
    pulls, sums, k_consts, t0, as_arrays = case
    if as_arrays:
        state = BanditState(pulls=np.array(pulls, dtype=np.int64),
                            sums=np.array(sums), n=sum(pulls))
    else:
        state = BanditState(pulls=list(pulls), sums=list(sums), n=sum(pulls))
    sched = HorizonSchedule(t0, 0.1)
    got = select_ucb(state, k_consts, sched)
    assert type(got) is int
    assert got == vectorised_select_ucb(state, k_consts, sched)


def test_ucb_selector_binds_constants():
    sched = HorizonSchedule(4, 0.1)
    sel = ucb_selector([2.0, 3.0])
    state = BanditState(pulls=np.array([4, 4]), sums=np.array([1.0, 1.0]), n=8)
    assert sel(state, sched) == select_ucb(state, [2.0, 3.0], sched)


# ---------------------------------------------------------------------------
# the loop


def test_run_mab_single_expert_bookkeeping():
    mdp = one_state_mdp([0.3])
    experts = [det_policy([0], 1)]
    ucb = ucb_selector([2.0])
    sched = HorizonSchedule(7, 0.0)
    log = run_mab(mdp, experts, ucb, sched, iterations=3,
                  rng=np.random.default_rng(0))
    assert len(log) == 3
    np.testing.assert_array_equal(log.experts, [0, 0, 0])
    np.testing.assert_array_equal(log.horizons, [7, 7, 7])
    np.testing.assert_array_equal(log.t_start, [0, 7, 14])
    np.testing.assert_array_equal(log.start_states, [0, 0, 0])
    np.testing.assert_allclose(log.avg_rewards, 0.3, atol=1e-12)
    assert log.meta == {"t0": 7, "c": 0.0, "iterations": 3}


def two_arm_bandit():
    """One state, two actions, deterministic rewards 1.0 and 0.0: the MDP,
    one expert per action and the UCB selector with K = 2.0 for both."""
    P = np.ones((1, 2, 1))
    R = np.array([[[1.0], [0.0]]])
    mdp = make_mdp(P, R)
    experts = [det_policy([0], 2), det_policy([1], 2)]
    ucb = ucb_selector([2.0, 2.0])
    return mdp, experts, ucb


def test_run_mab_two_arms_learns_the_better_one():
    # deterministic rewards make the whole run seed-free; with the
    # 8 ln n exploration constant the split at N=100 is exactly 86/14,
    # and the better arm's share passes 90 percent by N=1000
    mdp, experts, ucb = two_arm_bandit()
    sched = HorizonSchedule(4, 0.0)
    for seed in (0, 99):
        log = run_mab(mdp, experts, ucb, sched, iterations=100,
                      rng=np.random.default_rng(seed))
        counts = np.bincount(log.experts, minlength=2)
        np.testing.assert_array_equal(counts, [86, 14])
    log = run_mab(mdp, experts, ucb, sched, iterations=1000,
                  rng=np.random.default_rng(0))
    counts = np.bincount(log.experts, minlength=2)
    np.testing.assert_array_equal(counts, [964, 36])


def test_run_mab_pull_counts_and_time_accounting():
    mdp, experts, ucb = two_arm_bandit()
    sched = HorizonSchedule(4, 0.3)
    log = run_mab(mdp, experts, ucb, sched, iterations=50,
                  rng=np.random.default_rng(1))
    assert np.bincount(log.experts, minlength=2).sum() == 50
    np.testing.assert_array_equal(
        log.t_start, np.concatenate(([0], np.cumsum(log.horizons)[:-1])))
    assert all(log.horizons[n] == max(4, round(4 + 0.3 * n)) for n in range(50))


def test_run_mab_same_seed_is_identical():
    # stochastic environment: two states, slip to make rewards noisy
    P = np.zeros((2, 2, 2))
    P[:, 0] = [[0.8, 0.2], [0.3, 0.7]]
    P[:, 1] = [[0.1, 0.9], [0.6, 0.4]]
    R = np.zeros((2, 2, 2))
    R[..., 1] = 1.0
    mdp = make_mdp(P, R)
    experts = [det_policy([0, 0], 2), det_policy([1, 1], 2)]
    ucb = ucb_selector([2.0, 2.0])
    sched = HorizonSchedule(3, 0.2)
    log_a = run_mab(mdp, experts, ucb, sched, iterations=200,
                    rng=np.random.default_rng(5))
    log_b = run_mab(mdp, experts, ucb, sched, iterations=200,
                    rng=np.random.default_rng(5))
    np.testing.assert_array_equal(log_a.experts, log_b.experts)
    np.testing.assert_array_equal(log_a.avg_rewards, log_b.avg_rewards)
    np.testing.assert_array_equal(log_a.start_states, log_b.start_states)
    log_c = run_mab(mdp, experts, ucb, sched, iterations=200,
                    rng=np.random.default_rng(6))
    assert not np.array_equal(log_a.avg_rewards, log_c.avg_rewards)


def test_run_mab_state_continues_across_iterations():
    # deterministic 7-cycle: the next start must be the previous start
    # advanced by exactly T_n steps, with no reset between iterations
    S = 7
    P = np.zeros((S, 1, S))
    for s in range(S):
        P[s, 0, (s + 1) % S] = 1.0
    mdp = make_mdp(P, np.zeros((S, 1, S)))
    experts = [det_policy([0] * S, 1)]
    ucb = ucb_selector([2.0])
    sched = HorizonSchedule(3, 0.2)
    log = run_mab(mdp, experts, ucb, sched, iterations=40,
                  rng=np.random.default_rng(0))
    assert log.start_states[0] == 0
    for n in range(39):
        assert log.start_states[n + 1] == (log.start_states[n] + log.horizons[n]) % S


def test_run_mab_matches_a_manual_replay():
    # replay the loop by hand with the same generator and an alternating
    # selector; every recorded column must match
    P = np.zeros((2, 2, 2))
    P[:, 0] = [[0.8, 0.2], [0.3, 0.7]]
    P[:, 1] = [[0.1, 0.9], [0.6, 0.4]]
    R = np.zeros((2, 2, 2))
    R[..., 0] = 0.25
    R[..., 1] = 0.75
    mdp = make_mdp(P, R)
    experts = [det_policy([0, 0], 2), det_policy([1, 1], 2)]

    def alternate(state, schedule):
        return state.n % 2

    sched = HorizonSchedule(4, 0.1)
    log = run_mab(mdp, experts, alternate, sched, iterations=30,
                  rng=np.random.default_rng(17))

    rng = np.random.default_rng(17)
    s = 0  # initial_dist is a point mass on state 0, no draw consumed
    for n in range(30):
        T = max(4, round(4 + 0.1 * n))
        e = n % 2
        assert log.experts[n] == e
        assert log.horizons[n] == T
        assert log.start_states[n] == s
        avg, s, _ = run_expert(mdp, experts[e], s, T, rng, record=False)
        assert log.avg_rewards[n] == avg


def random_environment(g, S, A, V, spread_start, edge=lambda g, w: w):
    """An MDP on S states and A actions with V-point rewards, started from
    one state or from a law over all of them; edge may rewrite the rows of
    its transition and reward kernels (edge_rows)."""
    return FiniteMdp(
        n_states=S, n_actions=A,
        transition=edge(g, sparse_rows(g, (S, A, S))),
        reward_values=g.random((S, A, S, V)),
        reward_probs=edge(g, sparse_rows(g, (S, A, S, V), tenths=V >= 10)),
        initial_dist=g.dirichlet(np.ones(S)) if spread_start
        else np.eye(S)[g.integers(S)])


@st.composite
def mab_cases(draw):
    """(run_mab arguments but the generator, uniforms per block, generator
    pair): S 1-5, A 1-3; one-, two- and twelve-point rewards; a point mass
    or a spread initial law; deterministic and eps-mixed experts; constant
    and growing schedules; no event, a permutation event, or an event
    installing another random MDP, which may change the reward support;
    UCB or a cycling selector.  The generators are two Generators on one
    seed or, in half the cases, two BoundaryDraws over the cut points of
    every MDP's initial law and of every (MDP, expert) joint row and the
    double just below each, where binning a draw to its code is most
    fragile; those cases also rewrite rows of every kernel but the
    initial law with edge_rows, whose cumulative masses repeat and tie."""
    S, A = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    boundary = draw(st.booleans())
    edge = edge_rows if boundary else lambda g, w: w
    mdp = random_environment(g, S, A, draw(st.sampled_from([1, 2, 12])),
                             draw(st.booleans()), edge)
    experts = []
    for _ in range(draw(st.integers(1, 3))):
        pi = np.eye(A)[g.integers(0, A, size=S)]
        if draw(st.booleans()):
            eps = draw(st.sampled_from([0.05, 0.3, 1.0]))
            pi = edge(g, (1.0 - eps) * pi + eps / A)
        experts.append(ExpertPolicy(policy=pi))
    schedule = HorizonSchedule(draw(st.integers(1, 6)),
                               draw(st.sampled_from([0.0, 0.25, 1.0])))
    iterations = draw(st.integers(1, 60))
    events = []
    for kind in draw(st.lists(st.sampled_from(["permutation", "mdp"]),
                              max_size=2)):
        when = draw(st.integers(0, iterations + 3))
        if kind == "permutation":
            events.append((when, permute_actions(
                mdp, g.permutation(A).tolist())))
        else:
            events.append((when, random_environment(
                g, S, A, draw(st.sampled_from([1, 2, 12])), False, edge)))
    selector = ucb_selector([draw(st.sampled_from([0.0, 0.5, 2.0]))
                             for _ in experts])
    if draw(st.booleans()):
        def selector(state, schedule):
            return (3 * state.n + 1) % len(experts)
    seed = draw(st.integers(0, 2**32 - 1))
    block = draw(st.sampled_from([1, 5, 64, 4096]))
    if boundary:
        mdps = [mdp] + [m for _, m in events]
        pool = boundary_pool(
            [m.initial_dist for m in mdps]
            + [np.array(joint_masses(m, e.policy)) for m in mdps
               for e in experts])
        rngs = BoundaryDraws(pool, seed), BoundaryDraws(pool, seed)
    else:
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    return (mdp, experts, selector, schedule, iterations, events), block, rngs


@settings(max_examples=150)
@given(mab_cases())
def test_run_mab_replays_the_per_pull_loop(case):
    (mdp, experts, selector, schedule, iterations, events), block, \
        (rng, ref_rng) = case
    with mock.patch.object(bandit, "_BLOCK", block):
        log = run_mab(mdp, experts, selector, schedule, iterations, rng,
                      events)
    ref = reference_run_mab(mdp, experts, selector, schedule, iterations,
                            ref_rng, events)
    for name in ("experts", "horizons", "start_states", "avg_rewards",
                 "t_start"):
        got, want = getattr(log, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert got.tolist() == want.tolist(), name
    assert log.meta == ref.meta


def test_a_run_over_the_table_cap_walks_by_bisect_to_the_same_bytes(
        tmp_path, monkeypatch):
    # the tables hold rows x codes entries; past the cap the run keeps the
    # uniforms and bisects each in its joint row, on the same draws.  The
    # event MDP's rewards are deterministic, so after it the deterministic
    # expert's rows are the event MDP's transition rows
    g = np.random.default_rng(4)
    mdp = random_mdp(g)
    event = make_mdp(g.dirichlet(np.ones(4), size=(4, 3)), g.random((4, 3, 4)))
    experts = [det_policy([0, 2, 1, 1], 3),
               ExpertPolicy(policy=g.dirichlet(np.ones(3), size=4))]
    walks = []
    walk = mdp_module._Stepper.walk

    def spy(stepper, s, draws, trail=None):
        walks.append(stepper.tab is None)
        return walk(stepper, s, draws, trail)

    monkeypatch.setattr(mdp_module._Stepper, "walk", spy)
    texts = []
    for cap in (mdp_module._TABLE_CAP, 0):
        monkeypatch.setattr(mdp_module, "_TABLE_CAP", cap)
        walks.clear()
        log = run_mab(mdp, experts, ucb_selector([0.5, 0.5]),
                      HorizonSchedule(3, 0.5), 80,
                      np.random.default_rng(11), [(40, event)])
        assert set(walks) == {cap == 0}
        log.to_csv(tmp_path / "log.csv")
        texts.append((tmp_path / "log.csv").read_bytes())
    assert texts[0] == texts[1]


def test_many_distinct_masses_take_the_run_past_the_table_cap():
    # 40 states, Dirichlet rows, two-point rewards and three spread
    # experts: 120 joint rows of 240 outcomes each, about 3e4 distinct
    # cumulative masses, so about 3.5e6 table entries, past the cap
    g = np.random.default_rng(6)
    mdp = random_mdp(g, S=40, A=3)
    steppers = [mdp_module._Stepper(mdp, ExpertPolicy(
        policy=g.dirichlet(np.ones(3), size=40))) for _ in range(3)]
    # past the cap the binner hands the uniforms back as floats
    assert mdp_module._tabulate(steppers)(np.array([0.25, 0.5])) == [0.25, 0.5]
    assert all(st.tab is None for st in steppers)
    small = [mdp_module._Stepper(random_mdp(g), ExpertPolicy(
        policy=g.dirichlet(np.ones(3), size=4)))]
    assert mdp_module._tabulate(small)(np.array([0.0])).tolist() == [0]
    assert small[0].tab is not None


def test_run_mab_rejects_a_horizon_past_int64_before_the_first_pull():
    # cast to int64, T_2 = 2e300 wrapped to -2**63: the run finished with a
    # negative T_n and avg_reward -0.0
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for slope in (1e300, 2.0**62 - 2):   # 4 + 2 (2**62 - 2) = 2**63
        with pytest.raises(ValueError, match=r"horizon T_2 = .* does not "
                           r"fit a 64-bit step count"):
            run_mab(one_state_mdp([1.0]), [det_policy([0], 1)],
                    ucb_selector([2.0]), HorizonSchedule(4, slope),
                    iterations=3, rng=rng)
    assert rng.bit_generator.state == before


def test_run_mab_events_swap_the_environment():
    # two replacement flavors: reward flip fires mid-run, late event never does
    mdp = one_state_mdp([1.0])
    flipped = one_state_mdp([0.0])
    experts = [det_policy([0], 1)]
    ucb = ucb_selector([2.0])
    sched = HorizonSchedule(4, 0.0)
    log = run_mab(mdp, experts, ucb, sched, iterations=10,
                  rng=np.random.default_rng(0), events=[(5, flipped)])
    np.testing.assert_array_equal(log.avg_rewards[:5], np.ones(5))
    np.testing.assert_array_equal(log.avg_rewards[5:], np.zeros(5))
    assert log.meta["events"] == "5"
    assert "unfired_events" not in log.meta

    log = run_mab(mdp, experts, ucb, sched, iterations=10,
                  rng=np.random.default_rng(0), events=[(0, flipped)])
    np.testing.assert_array_equal(log.avg_rewards, np.zeros(10))

    log = run_mab(mdp, experts, ucb, sched, iterations=10,
                  rng=np.random.default_rng(0), events=[(99, flipped)])
    np.testing.assert_array_equal(log.avg_rewards, np.ones(10))
    assert log.meta["unfired_events"] == "99"


def test_run_mab_event_dimension_mismatch():
    mdp = one_state_mdp([1.0])
    bad = make_mdp(np.ones((2, 1, 2)) / 2, np.zeros((2, 1, 2)))
    with pytest.raises(ValueError, match="event at iteration 3"):
        run_mab(mdp, [det_policy([0], 1)], ucb_selector([2.0]),
                HorizonSchedule(4, 0.0), iterations=5,
                rng=np.random.default_rng(0), events=[(3, bad)])


@pytest.mark.parametrize("when", [2, 5, 99])
def test_run_mab_rejects_an_invalid_event_mdp_before_the_first_pull(when):
    # an event's MDP was checked only when the event fired: after `when`
    # selections, or never for an event at or past the last iteration.  An
    # invalid MDP now cannot be built, so the run is never started
    mdp = one_state_mdp([1.0])
    calls = []

    def selector(state, schedule):
        calls.append(state.n)
        return 0

    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"invalid MDP: transition row sum "
                       r"0\.5 at \(s=0, a=0\)"):
        run_mab(mdp, [det_policy([0], 1)], selector, HorizonSchedule(4, 0.0),
                iterations=5, rng=rng, events=[
                    (when, replace(mdp, transition=np.full((1, 1, 1), 0.5)))])
    assert calls == [] and rng.bit_generator.state == before


def test_a_policy_edited_in_place_between_runs_samples_its_new_actions():
    # a stepper cached per policy on the MDP kept the first run's actions
    mdp, swap, stay = swap_or_stay()
    expert = replace(swap, policy=swap.policy.copy())
    runs = []
    for pi in (swap.policy, stay.policy):
        expert.policy[:] = pi
        log = run_mab(mdp, [expert], ucb_selector([2.0]),
                      HorizonSchedule(2, 0.0), iterations=3,
                      rng=np.random.default_rng(0))
        runs.append(log.avg_rewards.tolist())
    assert runs == [[0.5] * 3, [0.0] * 3]


def test_run_mab_argument_validation():
    mdp = one_state_mdp([1.0])
    experts = [det_policy([0], 1)]
    with pytest.raises(ValueError):
        run_mab(mdp, experts, ucb_selector([2.0]), HorizonSchedule(4, 0.0),
                iterations=0)
    with pytest.raises(ValueError):
        run_mab(mdp, [], ucb_selector([]), HorizonSchedule(4, 0.0),
                iterations=1)
    # a run names its selector: there is no default to fall back on
    with pytest.raises(TypeError, match="selector"):
        run_mab(mdp, experts, schedule=HorizonSchedule(4, 0.0), iterations=1)


def test_run_mab_rejects_a_policy_that_does_not_fit_the_mdp(bench):
    # a 25 x 2 policy does not fit the 4-action grid
    narrow = ExpertPolicy(policy=np.full((25, 2), 0.5))
    with pytest.raises(ValueError, match=r"invalid policy: policy shape "
                       r"\(25, 2\) does not match \(25, 4\)"):
        run_mab(bench.mdp, [narrow], lambda state, schedule: 0,
                HorizonSchedule(4, 0.0), iterations=3,
                rng=np.random.default_rng(0))


@pytest.mark.parametrize("bad", [-1, 2])
def test_run_mab_rejects_a_selector_index_out_of_range(bad):
    # -1 would otherwise run the last expert and log expert -1
    mdp, experts, _ = two_arm_bandit()
    with pytest.raises(ValueError, match=f"selector chose expert {bad} "):
        run_mab(mdp, experts, lambda state, schedule: bad,
                HorizonSchedule(4, 0.0), iterations=3,
                rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the log file


def test_runlog_csv_round_trip(tmp_path):
    mdp, experts, ucb = two_arm_bandit()
    sched = HorizonSchedule(4, 0.1)
    log = run_mab(mdp, experts, ucb, sched, iterations=25,
                  rng=np.random.default_rng(3))
    path = tmp_path / "log.csv"
    log.to_csv(path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# c=0.1"
    assert "n,expert,T_n,start_state,avg_reward,t_n" in lines
    back = RunLog.from_csv(path)
    np.testing.assert_array_equal(back.experts, log.experts)
    np.testing.assert_array_equal(back.horizons, log.horizons)
    np.testing.assert_array_equal(back.start_states, log.start_states)
    np.testing.assert_array_equal(back.avg_rewards, log.avg_rewards)  # repr exact
    np.testing.assert_array_equal(back.t_start, log.t_start)
    assert back.meta == {"t0": "4", "c": "0.1", "iterations": "25"}


def test_runlog_rerun_writes_identical_bytes(tmp_path):
    mdp, experts, ucb = two_arm_bandit()
    sched = HorizonSchedule(4, 0.1)
    paths = []
    for tag in ("a", "b"):
        log = run_mab(mdp, experts, ucb, sched, iterations=40,
                      rng=np.random.default_rng(11))
        p = tmp_path / f"{tag}.csv"
        log.to_csv(p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_runlog_from_csv_rejects_empty(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("# t0=4\nn,expert,T_n,start_state,avg_reward,t_n\n")
    with pytest.raises(ValueError, match="no data rows"):
        RunLog.from_csv(p)


GOOD_RUNLOG = ("# t0=4\n"
               "n,expert,T_n,start_state,avg_reward,t_n\n"
               "0,0,4,0,0.25,0\n"
               "1,1,4,2,0.5,4\n")


def test_runlog_from_csv_reads_a_well_formed_file(tmp_path):
    p = tmp_path / "log.csv"
    p.write_text(GOOD_RUNLOG)
    log = RunLog.from_csv(p)
    np.testing.assert_array_equal(log.experts, [0, 1])
    np.testing.assert_array_equal(log.avg_rewards, [0.25, 0.5])
    assert log.meta == {"t0": "4"}


@pytest.mark.parametrize("text, where, what", [
    (GOOD_RUNLOG.replace("T_n", "T"), "line 2", "header"),
    (GOOD_RUNLOG.replace("n,expert,T_n,start_state,avg_reward,t_n\n", ""),
     "line 2", "header"),
    (GOOD_RUNLOG + "n,expert,T_n,start_state,avg_reward,t_n\n", "line 5",
     "invalid literal"),
    (GOOD_RUNLOG.replace("1,1,4,2,0.5,4", "1,1,4,2,0.5,4,9"), "line 4",
     "expected 6"),
    (GOOD_RUNLOG.replace("0,0,4,0,0.25,0", "0,0,4,0,0.25"), "line 3",
     "expected 6"),
], ids=["other-header", "no-header", "second-header", "long-row",
        "short-row"])
def test_runlog_from_csv_rejects_malformed_files(tmp_path, text, where,
                                                 what):
    p = tmp_path / "log.csv"
    p.write_text(text)
    with pytest.raises(ValueError) as info:
        RunLog.from_csv(p)
    message = str(info.value)
    assert message.startswith(f"{p}, {where}: ") and what in message
