"""MDP containers, validation, rollout sampling, and file round-trips."""

import json
import math
import pickle
import tempfile
from bisect import bisect_right
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdpbandit import mdp as mdp_module
from mdpbandit.mdp import (
    ExpertPolicy,
    FiniteMdp,
    csv_text,
    deterministic_reward,
    load_mdp,
    load_policy,
    run_expert,
    sample_initial_state,
    save_mdp,
    save_policy,
    validate_policy,
    write_csv,
)

from oracles import joined_csv_text


def mdp_fields(P, reward_table, initial=None):
    """FiniteMdp's arguments for a transition tensor and a (S,A,S)
    mean-reward table, as writeable arrays."""
    P = np.array(P, dtype=float)
    S, A, _ = P.shape
    values, probs = deterministic_reward(reward_table)
    if initial is None:
        initial = np.zeros(S)
        initial[0] = 1.0
    return dict(n_states=S, n_actions=A, transition=P, reward_values=values,
                reward_probs=probs, initial_dist=np.array(initial, dtype=float))


def make_mdp(P, reward_table, initial=None):
    """Assemble a FiniteMdp from a transition tensor and a (S,A,S) mean-reward table."""
    return FiniteMdp(**mdp_fields(P, reward_table, initial))


def build_errors(fields):
    """The violations FiniteMdp raises on fields, one message each."""
    with pytest.raises(ValueError, match="^invalid MDP: ") as info:
        FiniteMdp(**fields)
    return str(info.value).removeprefix("invalid MDP: ").split("; ")


def write_mdp_doc(path, fields):
    """Write fields as an MDP file, valid or not: save_mdp's format, which
    only a valid FiniteMdp can reach."""
    path.write_text(json.dumps({
        "states": fields["n_states"], "actions": fields["n_actions"],
        "transition": np.asarray(fields["transition"]).tolist(),
        "reward": {"values": np.asarray(fields["reward_values"]).tolist(),
                   "probs": np.asarray(fields["reward_probs"]).tolist()},
        "initial": np.asarray(fields["initial_dist"]).tolist()}))


def one_state_mdp(action_rewards):
    """Single state, one action per reward entry, all transitions self-loops."""
    A = len(action_rewards)
    P = np.ones((1, A, 1))
    R = np.asarray(action_rewards, dtype=float).reshape(1, A, 1)
    return make_mdp(P, R)


def two_state_cycle(dest_rewards=(0.0, 1.0)):
    """Deterministic 2-cycle; reward keyed by destination state."""
    P = np.zeros((2, 1, 2))
    P[0, 0, 1] = 1.0
    P[1, 0, 0] = 1.0
    R = np.zeros((2, 1, 2))
    R[:, 0, 0] = dest_rewards[0]
    R[:, 0, 1] = dest_rewards[1]
    return make_mdp(P, R)


def det_policy(actions, n_actions, expert_id=0):
    pi = np.zeros((len(actions), n_actions))
    for s, a in enumerate(actions):
        pi[s, a] = 1.0
    return ExpertPolicy(policy=pi, expert_id=expert_id)


def random_mdp(rng, S=4, A=3, V=2):
    """Dirichlet rows, stochastic two-point rewards."""
    P = rng.dirichlet(np.ones(S), size=(S, A))
    values = np.sort(rng.random((S, A, S, V)), axis=-1)
    probs = rng.dirichlet(np.ones(V), size=(S, A, S))
    mu0 = rng.dirichlet(np.ones(S))
    return FiniteMdp(
        n_states=S, n_actions=A,
        transition=P, reward_values=values, reward_probs=probs,
        initial_dist=mu0,
    )


# ---------------------------------------------------------------------------
# validation


def test_validate_clean_mdp_returns_no_violations():
    # building an MDP is its one check: a valid one builds, read-only
    mdp = make_mdp(np.eye(2)[:, None, :], np.zeros((2, 1, 2)))
    assert not mdp.transition.flags.writeable


def test_validate_reports_bad_transition_row_with_indices():
    fields = mdp_fields(np.eye(2)[:, None, :], np.zeros((2, 1, 2)))
    fields["transition"][0, 0] = [0.5, 0.4]
    bad = build_errors(fields)
    assert len(bad) == 1
    assert "0.9" in bad[0] and "(s=0, a=0)" in bad[0]


def test_validate_reports_reward_support_outside_unit_interval():
    fields = mdp_fields(np.eye(2)[:, None, :], np.zeros((2, 1, 2)))
    fields["reward_values"][1, 0, 1, 0] = 1.5
    bad = build_errors(fields)
    assert len(bad) == 1
    assert "1.5" in bad[0] and "(s=1, a=0, s'=1)" in bad[0]


def test_validate_reports_each_malformed_block():
    # negative transition entry, reward probs not summing, bad initial
    # distribution: one message per defect.  An initial law with a negative
    # entry that sums to 1 was reported as "sum 1.0, expected 1"
    P = np.eye(2)[:, None, :].copy()
    P[0, 0] = [1.5, -0.5]
    fields = mdp_fields(P, np.zeros((2, 1, 2)), initial=[0.7, 0.7])
    fields["reward_probs"][1, 0, 0, 0] = 0.25
    bad = build_errors(fields)
    assert any("negative transition" in m for m in bad)
    assert any("reward probabilities sum" in m for m in bad)
    assert any("initial distribution sum 1.4" in m for m in bad)
    assert not any("negative initial" in m for m in bad)
    bad = build_errors({**fields, "initial_dist": [1.5, -0.5]})
    assert "negative initial distribution entry mu0(1) = -0.5" in bad
    assert not any("initial distribution sum" in m for m in bad)


def test_validate_shape_mismatch_reported_first():
    fields = mdp_fields(np.eye(2)[:, None, :], np.zeros((2, 1, 2)))
    bad = build_errors({**fields, "n_states": 3})
    assert len(bad) == 1 and "transition shape" in bad[0]


@pytest.mark.parametrize("name, field", [
    ("transition", "transition"), ("reward values", "reward_values"),
    ("reward probabilities", "reward_probs"),
    ("initial distribution", "initial_dist")])
def test_validate_reports_non_finite_entries(name, field):
    # every comparison with NaN is false, so the row-sum and sign checks
    # alone pass a row of NaN
    fields = asdict(two_state_cycle())
    fields[field][0] = np.nan
    assert f"non-finite entries in the {name}" in build_errors(fields)


def test_validate_policy_rejects_non_finite_entries():
    mdp = two_state_cycle()
    for pi in (np.full((2, 1), np.nan), np.array([[1.0], [np.inf]])):
        with pytest.raises(ValueError, match="^invalid policy: non-finite "
                           "policy entries"):
            validate_policy(ExpertPolicy(policy=pi), mdp)


def test_validate_policy_rows():
    mdp = make_mdp(np.eye(2)[:, None, :], np.zeros((2, 1, 2)))
    ok = ExpertPolicy(policy=np.array([[1.0], [1.0]]))
    assert validate_policy(ok, mdp) is None
    bad_shape = ExpertPolicy(policy=np.ones((3, 1)))
    with pytest.raises(ValueError, match=r"^invalid policy: policy shape "
                       r"\(3, 1\) does not match \(2, 1\)$"):
        validate_policy(bad_shape, mdp)
    bad_row = ExpertPolicy(policy=np.array([[0.5], [1.0]]))
    with pytest.raises(ValueError, match=r"^invalid policy: policy row sum "
                       r"0\.5 at s=0, expected 1$"):
        validate_policy(bad_row, mdp)


@pytest.mark.parametrize("field, value, message", [
    ("transition", [[[1.0]], [[0.5, 0.5]]], "inhomogeneous"),
    ("transition", [[[10**400]]], "int too large to convert to float"),
    ("reward_probs", "x", "could not convert string to float"),
    ("initial_dist", {"a": 1.0}, "float"),
])
def test_an_array_numpy_cannot_convert_names_its_field(field, value,
                                                       message):
    # numpy's own ValueError or OverflowError named no field
    fields = {**asdict(one_state_mdp([0.5])), field: value}
    with pytest.raises(ValueError, match=f"^{field}: .*{message}"):
        FiniteMdp(**fields)


def test_an_mdp_is_checked_only_when_it_is_built():
    # the MDP check ran from four places; a pickled copy comes back
    # without running it again
    with mock.patch.object(mdp_module, "_mdp_errors",
                           wraps=mdp_module._mdp_errors) as check:
        mdp = two_state_cycle()
        moved = replace(mdp, initial_dist=[0.0, 1.0])
        assert check.call_count == 2
        back = pickle.loads(pickle.dumps(moved))
        sample_initial_state(back, np.random.default_rng(0))
        run_expert(back, det_policy([0, 0], 1), 0, 3,
                   np.random.default_rng(0))
    assert check.call_count == 2


# ---------------------------------------------------------------------------
# rollouts


def test_run_expert_constant_reward_returns_it_exactly():
    mdp = one_state_mdp([0.3])
    expert = det_policy([0], 1)
    for T in (1, 5, 17):
        for seed in (0, 11):
            avg, final, traj = run_expert(mdp, expert, 0, T,
                                          np.random.default_rng(seed))
            assert math.isclose(avg, 0.3, abs_tol=1e-12)
            assert final == 0
            assert traj.states.shape == (T + 1,)


def test_run_expert_two_state_cycle_alternates():
    # from state 0: step 1 lands in 1 (reward 1), step 2 back in 0 (reward 0)
    mdp = two_state_cycle()
    expert = det_policy([0, 0], 1)
    avg, final, traj = run_expert(mdp, expert, 0, 2, np.random.default_rng(5))
    assert avg == 0.5
    assert final == 0
    np.testing.assert_array_equal(traj.states, [0, 1, 0])
    np.testing.assert_array_equal(traj.actions, [0, 0])
    np.testing.assert_array_equal(traj.rewards, [1.0, 0.0])


def swap_or_stay():
    """Two states; action 0 swaps them, action 1 stays.  Entering state 1
    pays 1, so from state 0 two swap steps average 0.5 and two stay steps
    average 0."""
    P = np.zeros((2, 2, 2))
    P[:, 0] = np.eye(2)[::-1]
    P[:, 1] = np.eye(2)
    R = np.zeros((2, 2, 2))
    R[..., 1] = 1.0
    return make_mdp(P, R), det_policy([0, 0], 2), det_policy([1, 1], 2)


def test_replaced_mdp_samples_its_own_dynamics():
    # the sampler caches its tables on the instance; a copy made with
    # dataclasses.replace must build its own, not inherit the old ones
    mdp, swap, _ = swap_or_stay()
    rng = np.random.default_rng(0)
    assert run_expert(mdp, swap, 0, 2, rng, record=False)[0] == 0.5
    held = replace(mdp, transition=mdp.transition[:, [1, 1]].copy())
    assert run_expert(held, swap, 0, 2, rng, record=False)[0] == 0.0


def test_replaced_policy_samples_its_own_actions():
    mdp, swap, stay = swap_or_stay()
    rng = np.random.default_rng(0)
    assert run_expert(mdp, swap, 0, 2, rng, record=False)[0] == 0.5
    relabeled = replace(swap, policy=stay.policy)
    assert run_expert(mdp, relabeled, 0, 2, rng, record=False)[0] == 0.0


def test_run_expert_long_average_near_steady_state():
    # uniform policy over (stay, swap) gives the chain [[.5,.5],[.5,.5]]
    # with stationary (0.5, 0.5) and steady reward 0.5 for dest rewards (0,1)
    P = np.zeros((2, 2, 2))
    P[:, 0] = np.eye(2)
    P[:, 1] = np.eye(2)[::-1]
    R = np.zeros((2, 2, 2))
    R[..., 1] = 1.0
    mdp = make_mdp(P, R)
    expert = ExpertPolicy(policy=np.full((2, 2), 0.5))
    avg, _, _ = run_expert(mdp, expert, 0, 1000, np.random.default_rng(42))
    assert abs(avg - 0.5) < 0.05


def test_run_expert_same_seed_replays_bit_for_bit():
    rng_a = np.random.default_rng(123)
    rng_b = np.random.default_rng(123)
    mdp = random_mdp(np.random.default_rng(9))
    expert = ExpertPolicy(policy=np.random.default_rng(10).dirichlet(np.ones(3), size=4))
    avg_a, fin_a, traj_a = run_expert(mdp, expert, 2, 64, rng_a)
    avg_b, fin_b, traj_b = run_expert(mdp, expert, 2, 64, rng_b)
    assert avg_a == avg_b and fin_a == fin_b
    np.testing.assert_array_equal(traj_a.states, traj_b.states)
    np.testing.assert_array_equal(traj_a.actions, traj_b.actions)
    np.testing.assert_array_equal(traj_a.rewards, traj_b.rewards)


def test_record_flag_does_not_shift_the_stream():
    # run (record off) then run again from the same generator; the second
    # rollout must match the record-on version of the same experiment
    mdp = random_mdp(np.random.default_rng(14))
    expert = ExpertPolicy(policy=np.random.default_rng(16).dirichlet(np.ones(3), size=4))

    rng_off = np.random.default_rng(77)
    avg1_off, fin1_off, traj = run_expert(mdp, expert, 0, 33, rng_off, record=False)
    assert traj is None
    avg2_off, fin2_off, _ = run_expert(mdp, expert, fin1_off, 33, rng_off, record=False)

    rng_on = np.random.default_rng(77)
    avg1_on, fin1_on, traj1 = run_expert(mdp, expert, 0, 33, rng_on, record=True)
    avg2_on, fin2_on, _ = run_expert(mdp, expert, fin1_on, 33, rng_on, record=True)

    assert (avg1_off, fin1_off) == (avg1_on, fin1_on)
    assert (avg2_off, fin2_off) == (avg2_on, fin2_on)
    assert traj1.states.shape == (34,)


@st.composite
def rollout_cases(draw):
    """(mdp, expert, s0, T, seed) on 2-6 states: a deterministic or
    stochastic policy, rewards with V = 1 or 2 support points.  Kernel rows
    have exact zeros."""
    S = draw(st.integers(2, 6))
    A = draw(st.integers(2, 3))
    V = draw(st.sampled_from([1, 2]))
    stochastic_policy = draw(st.booleans())
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rows(*shape):
        w = g.random(shape) * (g.random(shape) < 0.6)
        w += w.sum(axis=-1, keepdims=True) == 0
        return w / w.sum(axis=-1, keepdims=True)

    mdp = FiniteMdp(
        n_states=S, n_actions=A,
        transition=rows(S, A, S), reward_values=g.random((S, A, S, V)),
        reward_probs=rows(S, A, S, V),
        initial_dist=np.full(S, 1.0 / S),
    )
    policy = rows(S, A) if stochastic_policy \
        else np.eye(A)[g.integers(0, A, size=S)]
    return (mdp, ExpertPolicy(policy=policy), draw(st.integers(0, S - 1)),
            draw(st.integers(1, 50)), draw(st.integers(0, 2**32 - 1)))


@given(rollout_cases())
def test_record_flag_never_changes_the_rollout(case):
    mdp, expert, s0, T, seed = case
    rng_off = np.random.default_rng(seed)
    rng_on = np.random.default_rng(seed)
    avg_off, fin_off, none = run_expert(mdp, expert, s0, T, rng_off,
                                        record=False)
    avg_on, fin_on, traj = run_expert(mdp, expert, s0, T, rng_on,
                                      record=True)
    assert none is None
    assert (avg_off, fin_off) == (avg_on, fin_on)
    assert rng_off.random() == rng_on.random()
    assert traj.states[0] == s0 and traj.states[-1] == fin_on
    assert len(traj.states) == T + 1
    assert len(traj.actions) == len(traj.rewards) == T
    assert abs(traj.rewards.mean() - avg_on) <= 1e-12


# ---------------------------------------------------------------------------
# the support-compact sampler against a full-row reference


def full_cdf(probs):
    """Cumulative rows over the last axis; the last positive entry of each
    row and every entry after it read exactly 1.0."""
    cdf = np.cumsum(probs, axis=-1)
    for idx in np.ndindex(probs.shape[:-1]):
        cdf[idx][np.flatnonzero(probs[idx] > 0)[-1]:] = 1.0
    return cdf


def reference_run(mdp, policy, s0, T, rng, record):
    """run_expert over full rows: one bisect over every entry of a row, zero
    mass included.  Returns (avg, final state, (states, actions, rewards)
    or None)."""
    cdf = full_cdf(mdp.transition).tolist()
    rvals = mdp.reward_values.tolist()
    rcdf = full_cdf(mdp.reward_probs).tolist()
    pi = policy.policy
    stoch_pol = not ((pi > 0).sum(axis=1) == 1).all()
    stoch_rew = not ((mdp.reward_probs > 0).sum(axis=-1) == 1).all()
    act = pi.argmax(axis=1).tolist()
    # the one positive entry of each reward row, read when no row is drawn
    rpos = mdp.reward_probs.argmax(axis=-1).tolist()
    pol_cdf = full_cdf(pi).tolist()
    total, s = 0.0, s0
    states, actions, rewards = [s0], [], []
    if not (record or stoch_pol or stoch_rew):
        for x in rng.random(T).tolist():
            a = act[s]
            j = bisect_right(cdf[s][a], x)
            total += rvals[s][a][j][rpos[s][a][j]]
            s = j
    else:
        for row in rng.random((T, 1 + stoch_pol + stoch_rew)).tolist():
            a = bisect_right(pol_cdf[s], row[0]) if stoch_pol else act[s]
            j = bisect_right(cdf[s][a], row[stoch_pol])
            v = bisect_right(rcdf[s][a][j], row[-1]) if stoch_rew \
                else rpos[s][a][j]
            r = rvals[s][a][j][v]
            total += r
            states.append(j)
            actions.append(a)
            rewards.append(r)
            s = j
    return total / T, s, (states, actions, rewards) if record else None


def sparse_rows(g, shape, tenths=False):
    """Distributions over the last axis with exact zeros before, between
    and after each row's support.  With tenths, about half the rows are ten
    0.1s spread over the row, whose float sum 0.9999999999999999 stops
    short of 1."""
    w = g.random(shape) * (g.random(shape) < 0.5)
    w += (w.sum(axis=-1, keepdims=True) == 0) \
        * (np.arange(shape[-1]) == g.integers(shape[-1]))
    w /= w.sum(axis=-1, keepdims=True)
    if tenths:
        for row in w.reshape(-1, shape[-1]):
            if g.random() < 0.5:
                row[:] = 0.0
                row[g.choice(shape[-1], 10, replace=False)] = 0.1
    return w


def edge_rows(g, w):
    """Replace about half the rows of w, in place, with rows where the
    widest outcome's interval [lo, hi) is hard to get right: a single
    outcome; a lopsided row, one entry 1 - k ulp (k 1-4) and the rest tiny,
    so that tiny entries after it may add nothing to the cumulative mass;
    dyadic masses whose two widest entries have exactly equal width; or one
    entry 1.0 and 1e-10 spread over the rest, a row that is no point mass
    though its max is 1.0.  Zeros stay between the entries."""
    n = w.shape[-1]
    for row in w.reshape(-1, n):
        kind, at = g.integers(8), g.permutation(n)
        if kind > 3:
            continue
        row[:] = 0.0
        if kind == 0 or n == 1:
            row[at[0]] = 1.0
        elif kind == 1:
            k, m = g.integers(1, 5), g.integers(1, n)
            row[at[0]] = 1.0 - k * 2.0**-53
            row[at[1:m + 1]] = k * 2.0**-53 / m
        elif kind == 3:
            m = g.integers(1, n)
            row[at[0]] = 1.0
            row[at[1:m + 1]] = 1e-10 / m
        else:
            tied = [[0.5, 0.5], [0.375, 0.375, 0.25],
                    [0.375, 0.375, 0.125, 0.125], [0.25] * 4]
            masses = tied[g.integers(1 + (n > 2) + 2 * (n > 3))]
            row[at[:len(masses)]] = masses
    return w


class BoundaryDraws:
    """Generator stand-in whose draws come from pool: values where a
    bisect over full rows and one over compact rows could part."""

    def __init__(self, pool, seed):
        self.pool = pool
        self.g = np.random.default_rng(seed)
        self.used = 0

    def random(self, size=None):
        if size is None:
            return float(self.random(1)[0])
        n = math.prod(size) if isinstance(size, tuple) else size
        self.used += n
        return self.pool[self.g.integers(len(self.pool), size=n)].reshape(size)


def stream_state(rng):
    if isinstance(rng, BoundaryDraws):
        return rng.used, rng.g.bit_generator.state
    return rng.bit_generator.state


@st.composite
def sampler_cases(draw):
    """(mdp, experts, s0, pulls, rng pair): S 1-6, A 1-3; rewards with one,
    two or twelve support points (twelve allows rows of ten 0.1s);
    deterministic and stochastic experts; in half the cases, edge_rows in
    every kernel the sampler reads, the initial law included; 2-6 chained
    pulls of T 1-70, each recording or not.  The rng pair is two Generators on one seed, or two
    BoundaryDraws over 0, the largest double below 1, and every raw and
    pinned cumulative value of the MDP's and the experts' rows and the
    double just below each."""
    S, A = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    V = draw(st.sampled_from([1, 2, 12]))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edge = edge_rows if draw(st.booleans()) else lambda g, w: w
    mdp = FiniteMdp(
        n_states=S, n_actions=A,
        transition=edge(g, sparse_rows(g, (S, A, S))),
        reward_values=g.random((S, A, S, V)),
        reward_probs=edge(g, sparse_rows(g, (S, A, S, V), tenths=V >= 10)),
        initial_dist=np.full(S, 1.0 / S))
    experts = [ExpertPolicy(policy=edge(g, sparse_rows(g, (S, A)))
                            if draw(st.booleans())
                            else np.eye(A)[g.integers(0, A, size=S)])
               for _ in range(draw(st.integers(1, 3)))]
    mdp = replace(mdp, initial_dist=edge(g, sparse_rows(g, (S,))))
    pulls = draw(st.lists(st.tuples(st.integers(0, len(experts) - 1),
                                    st.integers(1, 70), st.booleans()),
                          min_size=2, max_size=6))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        kernels = [mdp.transition, mdp.reward_probs, mdp.initial_dist] \
            + [e.policy for e in experts]
        values = np.concatenate(
            [f(k).ravel() for k in kernels
             for f in (full_cdf, partial(np.cumsum, axis=-1))]
            + [[0.0, np.nextafter(1.0, 0.0)]])
        values = np.concatenate([values, np.nextafter(values, 0.0)])
        pool = np.unique(values[(values >= 0.0) & (values < 1.0)])
        rngs = BoundaryDraws(pool, seed), BoundaryDraws(pool, seed)
    else:
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    return mdp, experts, draw(st.integers(0, S - 1)), pulls, rngs


@settings(max_examples=150)
@given(sampler_cases())
def test_compact_rows_sample_what_full_rows_sample(case):
    mdp, experts, s0, pulls, (rng, ref_rng) = case
    mu0 = mdp.initial_dist
    ref_init = int(mu0.argmax()) if (mu0 > 0).sum() == 1 \
        else bisect_right(full_cdf(mu0).tolist(), ref_rng.random())
    assert sample_initial_state(mdp, rng) == ref_init
    assert stream_state(rng) == stream_state(ref_rng)
    s = ref_s = s0
    for e, T, record in pulls:
        avg, s, traj = run_expert(mdp, experts[e], s, T, rng, record)
        ref_avg, ref_s, ref = reference_run(mdp, experts[e], ref_s, T,
                                            ref_rng, record)
        assert (avg, s) == (ref_avg, ref_s)
        assert stream_state(rng) == stream_state(ref_rng)
        if record:
            assert (traj.states.tolist(), traj.actions.tolist(),
                    traj.rewards.tolist()) == ref


def test_a_pickled_warm_cache_samples_the_same_stream():
    # a pool worker receives the MDP together with its experts and the
    # sampler rows built in the parent
    g = np.random.default_rng(21)
    mdp = random_mdp(g)
    experts = [ExpertPolicy(policy=g.dirichlet(np.ones(3), size=4)),
               det_policy([0, 2, 1, 1], 3)]
    for expert in experts:
        run_expert(mdp, expert, 0, 1, np.random.default_rng(0), record=False)
    copy, copied = pickle.loads(pickle.dumps((mdp, experts)))
    rng, copy_rng = np.random.default_rng(8), np.random.default_rng(8)
    s = copy_s = 0
    for k in range(12):
        avg, s, _ = run_expert(mdp, experts[k % 2], s, 1 + 5 * k, rng,
                               record=False)
        copy_avg, copy_s, _ = run_expert(copy, copied[k % 2], copy_s,
                                         1 + 5 * k, copy_rng, record=False)
        assert (avg, s) == (copy_avg, copy_s)
        assert rng.bit_generator.state == copy_rng.bit_generator.state


def test_an_mdp_cannot_change_under_its_cached_rows():
    # an MDP edited in place after a draw was sampled from its old rows,
    # or from an initial law whose last entry took the missing mass
    P = np.full((3, 1, 3), 1.0 / 3.0)
    given = np.array([1.0, 0.0, 0.0])
    mdp = make_mdp(P, np.zeros((3, 1, 3)), initial=given)
    sample_initial_state(mdp, np.random.default_rng(0))
    with pytest.raises(ValueError, match="read-only"):
        mdp.initial_dist[:] = [0.2, 0.2, 0.2]
    with pytest.raises(ValueError, match="read-only"):
        mdp.transition[0, 0] = [5, -4, 0]
    # the MDP holds copies: the caller's arrays stay its own and editable
    given[:] = [0.0, 1.0, 0.0]
    P[0, 0] = [1.0, 0.0, 0.0]
    assert mdp.initial_dist.tolist() == [1.0, 0.0, 0.0]
    assert mdp.transition[0, 0].tolist() == [1.0 / 3.0] * 3
    moved = replace(mdp, initial_dist=given, transition=P)
    assert not moved.initial_dist.flags.writeable
    assert sample_initial_state(moved, np.random.default_rng(0)) == 1
    assert moved._rows is not mdp._rows
    # each (s, a) row keeps its next states fifth, after its interval
    assert [row[4] for row in moved._rows[0]] == [[0]]
    assert [row[4] for row in mdp._rows[0]] == [[0, 1, 2]]


def test_a_policy_edited_in_place_samples_its_new_actions():
    # a stepper cached per policy on the MDP kept sampling the old actions
    mdp, swap, stay = swap_or_stay()
    rng = np.random.default_rng(0)
    for record in (False, True):
        edited = replace(swap, policy=swap.policy.copy())
        assert run_expert(mdp, edited, 0, 2, rng, record)[0] == 0.5
        edited.policy[:] = stay.policy
        assert run_expert(mdp, edited, 0, 2, rng, record)[0] == 0.0


def test_run_expert_rejects_an_invalid_policy():
    mdp = two_state_cycle()
    half = ExpertPolicy(policy=np.array([[0.5], [0.5]]))
    with pytest.raises(ValueError, match=r"invalid policy: policy row sum "
                       r"0\.5 at s=0, expected 1; policy row sum 0\.5 at s=1"):
        run_expert(mdp, half, 0, 4, np.random.default_rng(0), record=False)
    wide = ExpertPolicy(policy=np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match=r"invalid policy: policy shape "
                       r"\(2, 2\) does not match \(2, 1\)"):
        run_expert(mdp, wide, 0, 4, np.random.default_rng(0))


def test_run_expert_rejects_an_invalid_mdp():
    # an invalid MDP cannot be built, so no rollout ever meets one
    mdp = two_state_cycle()
    P = mdp.transition.copy()
    P[0, 0] = [0.5, 0.4]
    values = mdp.reward_values.copy()
    values[1, 0, 0, 0] = 1.5
    with pytest.raises(ValueError, match=r"invalid MDP: transition row sum "
                       r"0\.9 at \(s=0, a=0\), expected 1; reward support "
                       r"value 1\.5 outside"):
        replace(mdp, transition=P, reward_values=values)


def test_run_expert_transition_frequencies_match_row():
    # all rows identical, so every step samples the same distribution
    q = np.array([0.2, 0.5, 0.3])
    P = np.tile(q, (3, 1, 1)).reshape(3, 1, 3)
    mdp = make_mdp(P, np.zeros((3, 1, 3)))
    expert = det_policy([0, 0, 0], 1)
    T = 100_000
    _, _, traj = run_expert(mdp, expert, 0, T, np.random.default_rng(8))
    freq = np.bincount(traj.states[1:], minlength=3) / T
    assert np.abs(freq - q).sum() <= 0.02


def test_run_expert_stochastic_rewards_hit_their_mean():
    # one state, reward support {0.2, 0.8} with probs (0.25, 0.75): mean 0.65
    values = np.array([0.2, 0.8]).reshape(1, 1, 1, 2)
    probs = np.array([0.25, 0.75]).reshape(1, 1, 1, 2)
    mdp = FiniteMdp(
        n_states=1, n_actions=1,
        transition=np.ones((1, 1, 1)), reward_values=values,
        reward_probs=probs, initial_dist=np.ones(1),
    )
    expert = det_policy([0], 1)
    avg, _, traj = run_expert(mdp, expert, 0, 20_000, np.random.default_rng(2))
    assert abs(avg - 0.65) < 0.01
    assert set(np.unique(traj.rewards)) <= {0.2, 0.8}


def test_run_expert_average_always_in_unit_interval():
    rng = np.random.default_rng(0)
    for trial in range(20):
        mdp = random_mdp(rng)
        expert = ExpertPolicy(policy=rng.dirichlet(np.ones(3), size=4))
        avg, final, _ = run_expert(mdp, expert, int(rng.integers(4)), 50,
                                   np.random.default_rng(trial))
        assert 0.0 <= avg <= 1.0
        assert 0 <= final < 4


def test_run_expert_rejects_bad_arguments():
    mdp = one_state_mdp([0.5])
    expert = det_policy([0], 1)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        run_expert(mdp, expert, 0, 0, rng)
    with pytest.raises(ValueError):
        run_expert(mdp, expert, -1, 5, rng)
    with pytest.raises(ValueError):
        run_expert(mdp, expert, 1, 5, rng)


def test_sample_initial_state_point_mass_consumes_no_randomness():
    mdp = replace(two_state_cycle(), initial_dist=[0.0, 1.0])
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    assert sample_initial_state(mdp, rng) == 1
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("mu0, draws", [([1e-10, 1.0], 1),
                                        ([0.0, 1.0 - 1e-10], 0)])
def test_an_initial_law_is_a_point_mass_only_with_one_positive_entry(
        mu0, draws):
    # [1e-10, 1.0] is a valid law (the MDP builds) and was read off as
    # state 1 without a draw, dropping the mass of state 0 that
    # induced_chain counts
    mdp = replace(two_state_cycle(), initial_dist=mu0)
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    s0 = sample_initial_state(mdp, rng)
    ref.random(draws)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert s0 == 1 or draws


@pytest.mark.parametrize("row, width", [([1e-10, 1.0], 2),
                                        ([0.0, 1.0 - 1e-10], 1)])
def test_a_policy_row_is_a_point_mass_only_with_one_positive_entry(
        row, width):
    # [1e-10, 1.0] passes validate_policy and was sampled as always taking
    # action 1, one uniform a step, dropping the mass of action 0
    mdp = make_mdp(np.ones((1, 2, 1)), np.zeros((1, 2, 1)))
    policy = ExpertPolicy(policy=np.array([row]))
    validate_policy(policy, mdp)
    for record in (False, True):
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        run_expert(mdp, policy, 0, 5, rng, record)
        ref.random(5 * width)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("probs, width, reward", [([1.0, 0.0], 1, 0.3),
                                                  ([0.0, 1.0], 1, 0.9),
                                                  ([0.5, 0.5], 2, None)])
def test_a_reward_row_is_a_point_mass_only_with_one_positive_entry(
        probs, width, reward):
    # a two-point reward row with one positive entry took a uniform a step
    # that could not change the reward, and kept the run off the fast path
    mdp = FiniteMdp(n_states=1, n_actions=1, transition=np.ones((1, 1, 1)),
                    reward_values=np.array([[[[0.3, 0.9]]]]),
                    reward_probs=np.array([[[probs]]]),
                    initial_dist=np.ones(1))
    for record in (False, True):
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        avg, _, _ = run_expert(mdp, det_policy([0], 1), 0, 5, rng, record)
        ref.random(5 * width)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert reward is None or avg == pytest.approx(reward, abs=1e-12)


@pytest.mark.parametrize("mu0", [[0.0, 0.0, 0.0], [0.2, 0.2, 0.2],
                                 [np.nan, 0.5, 0.5], [-0.5, 1.0, 0.5],
                                 [0.5, 0.5]])
def test_sample_initial_state_rejects_an_invalid_mdp(mu0):
    # each of these laws was sampled without a word, as state 2 or 1; now
    # an MDP holding one cannot be built
    with pytest.raises(ValueError, match="invalid MDP: .*initial"):
        make_mdp(np.ones((3, 1, 3)) / 3, np.zeros((3, 1, 3)), mu0)


def test_sample_initial_state_matches_distribution():
    mdp = replace(two_state_cycle(), initial_dist=[0.25, 0.75])
    rng = np.random.default_rng(19)
    draws = np.array([sample_initial_state(mdp, rng) for _ in range(2000)])
    assert abs(draws.mean() - 0.75) < 0.04


def test_mean_reward_collapses_the_kernel():
    mdp = one_state_mdp([0.3])
    np.testing.assert_allclose(mdp.mean_reward(), [[[0.3]]], atol=1e-15)
    values = np.array([0.2, 0.8]).reshape(1, 1, 1, 2)
    probs = np.array([0.25, 0.75]).reshape(1, 1, 1, 2)
    mdp2 = FiniteMdp(
        n_states=1, n_actions=1,
        transition=np.ones((1, 1, 1)), reward_values=values,
        reward_probs=probs, initial_dist=np.ones(1),
    )
    np.testing.assert_allclose(mdp2.mean_reward(), [[[0.65]]], atol=1e-15)


# ---------------------------------------------------------------------------
# files


def test_mdp_json_round_trip_is_exact(tmp_path):
    mdp = random_mdp(np.random.default_rng(31))
    path = tmp_path / "m.json"
    save_mdp(mdp, path)
    back = load_mdp(path)
    assert (back.n_states, back.n_actions) == (4, 3)
    np.testing.assert_array_equal(back.transition, mdp.transition)
    np.testing.assert_array_equal(back.reward_values, mdp.reward_values)
    np.testing.assert_array_equal(back.reward_probs, mdp.reward_probs)
    np.testing.assert_array_equal(back.initial_dist, mdp.initial_dist)


def stochastic(draw, shape):
    """Rows of drawn floats, normalised: arbitrary bit patterns that still
    pass validation."""
    n = math.prod(shape)
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                                 max_size=n))).reshape(shape)
    raw[..., 0] += 1.0
    return raw / raw.sum(axis=-1, keepdims=True)


@st.composite
def drawn_mdps(draw):
    S, A, V = (draw(st.integers(1, n)) for n in (4, 3, 2))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=S * A * S * V,
                           max_size=S * A * S * V))
    return FiniteMdp(
        n_states=S, n_actions=A,
        transition=stochastic(draw, (S, A, S)),
        reward_values=np.array(values).reshape(S, A, S, V),
        reward_probs=stochastic(draw, (S, A, S, V)),
        initial_dist=stochastic(draw, (S,)))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@settings(max_examples=40)
@given(drawn_mdps(),
       st.lists(st.floats(allow_nan=False), min_size=1, max_size=12),
       st.integers(-2**63, 2**63 - 1))
def test_mdp_and_policy_files_round_trip_bit_for_bit(mdp, entries, expert_id):
    # load_policy does not validate: every entry but NaN, whose payload JSON
    # does not keep, must survive
    policy = ExpertPolicy(policy=np.array(entries).reshape(len(entries), 1),
                          expert_id=expert_id)
    with tempfile.TemporaryDirectory() as tmp:
        save_mdp(mdp, Path(tmp) / "m.json")
        save_policy(policy, Path(tmp) / "p.json")
        back = load_mdp(Path(tmp) / "m.json")
        pol = load_policy(Path(tmp) / "p.json")
    assert (back.n_states, back.n_actions) == (mdp.n_states, mdp.n_actions)
    for name in ("transition", "reward_values", "reward_probs",
                 "initial_dist"):
        assert same_bits(getattr(back, name), getattr(mdp, name)), name
    assert same_bits(pol.policy, policy.policy)
    assert pol.expert_id == expert_id


def test_load_mdp_rejects_bad_files(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_mdp(bad_json)

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"states": 1}))
    with pytest.raises(ValueError, match="missing or malformed"):
        load_mdp(missing)

    invalid = tmp_path / "invalid.json"
    fields = asdict(two_state_cycle())
    fields["transition"][0, 0] = [0.5, 0.4]
    write_mdp_doc(invalid, fields)
    with pytest.raises(ValueError, match=r"invalid\.json: invalid MDP: "
                       r"transition row sum 0\.9 at \(s=0, a=0\)"):
        load_mdp(invalid)


@pytest.mark.parametrize("where, key", [(None, "discount"),
                                        ("reward", "mean")])
def test_load_mdp_rejects_unknown_keys(tmp_path, where, key):
    # a key the loader would not read must not pass without a word
    path = tmp_path / "m.json"
    save_mdp(two_state_cycle(), path)
    doc = json.loads(path.read_text())
    (doc[where] if where else doc)[key] = 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError,
                       match=rf"m\.json: unknown keys \['{key}'\]"):
        load_mdp(path)


def test_load_policy_rejects_unknown_keys(tmp_path):
    path = tmp_path / "p.json"
    save_policy(det_policy([0, 0], 1), path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"expert_id", "policy"}
    path.write_text(json.dumps({**doc, "epsilon": 0.2, "alpha": 1}))
    with pytest.raises(ValueError,
                       match=r"p\.json: unknown keys \['alpha', 'epsilon'\]"):
        load_policy(path)


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_load_mdp_rejects_non_finite_json(tmp_path, token):
    # json.loads reads NaN and Infinity as floats
    path = tmp_path / "m.json"
    save_mdp(two_state_cycle(), path)
    doc = json.loads(path.read_text())
    doc["transition"][0][0] = [0, 0]
    path.write_text(json.dumps(doc).replace("[0, 0]", f"[{token}, 0]", 1))
    with pytest.raises(ValueError, match="non-finite entries in the "
                       "transition"):
        load_mdp(path)


def test_write_csv_formats_with_str_and_replaces_the_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("old contents\n")
    rows = [(0, 0.1), (1, 1e-05), (2, float("nan")), (3, "true")]
    write_csv(path, ("n", "value"), rows, comments=["seed=7"])
    assert path.read_text() == (
        "# seed=7\nn,value\n0,0.1\n1,1e-05\n2,nan\n3,true\n")
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    assert csv_text(("n", "value"), rows, ["seed=7"]) == path.read_text()
    assert csv_text(("a",), []) == "a\n"


csv_values = st.one_of(
    st.integers(-10**20, 10**20), st.floats(allow_nan=True), st.booleans(),
    st.text(st.characters(blacklist_characters=",\n\r",
                          blacklist_categories=("Cs",)), max_size=5))


@settings(max_examples=80)
@given(st.integers(1, 4).flatmap(lambda width: st.lists(
    st.tuples(st.lists(csv_values, min_size=width, max_size=width),
              st.booleans()), max_size=8)),
       st.lists(st.sampled_from(["seed=7", "t0=4", ""]), max_size=2))
@example([([0, float("nan"), float("inf"), -0.0], False),
          ([1e-05, 1e16, 0.1 + 0.2, True], True),
          ([-float("inf"), "true", 7, 2.5], False)], ["seed=7"])
def test_csv_rows_are_their_values_joined_with_str(rows, comments):
    # the row template writes what ",".join(map(str, row)) wrote, for tuple
    # and list rows alike
    rows = [values if as_list else tuple(values) for values, as_list in rows]
    width = len(rows[0]) if rows else 2
    header = [f"c{j}" for j in range(width)]
    want = joined_csv_text(header, rows, comments)
    assert csv_text(header, rows, comments) == want
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_csv(path, header, iter(rows), comments)
        assert path.read_text() == want
        assert [p.name for p in Path(tmp).iterdir()] == ["rows.csv"]


def test_write_csv_leaves_no_tmp_file_when_a_row_fails(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("old contents\n")
    with pytest.raises(TypeError):
        write_csv(path, ("n", "value"), [(0, 0.5), (1, 0.25, "extra")])
    assert path.read_text() == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_policy_json_round_trip(tmp_path):
    expert = ExpertPolicy(
        policy=np.random.default_rng(6).dirichlet(np.ones(2), size=3),
        expert_id=2,
    )
    path = tmp_path / "p.json"
    save_policy(expert, path)
    back = load_policy(path)
    assert back.expert_id == 2
    np.testing.assert_array_equal(back.policy, expert.policy)

    (tmp_path / "bad.json").write_text("]")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_policy(tmp_path / "bad.json")
    (tmp_path / "short.json").write_text(json.dumps({"policy": [[1.0]]}))
    with pytest.raises(ValueError, match="missing or malformed"):
        load_policy(tmp_path / "short.json")


# ---------------------------------------------------------------------------
# sampling at the top of the unit interval


class TopOfUnitInterval:
    """Generator stand-in whose every draw is the largest double below 1,
    a value np.random.Generator.random can return."""

    U = float(np.nextafter(1.0, 0.0))

    def random(self, size=None):
        return self.U if size is None else np.full(size, self.U)


# ten 0.1s sum to 0.9999999999999999, which is U itself, so an unpinned
# cumulative row has no entry above U before the zero-mass index 10
SHORT_ROW = [0.1] * 10 + [0.0]


def _draw_from(kernel):
    """The index drawn at U from SHORT_ROW placed in the given kernel."""
    n = len(SHORT_ROW)
    rng = TopOfUnitInterval()
    if kernel == "initial":
        mdp = make_mdp(np.ones((n, 1, n)) / n, np.zeros((n, 1, n)),
                       initial=SHORT_ROW)
        return sample_initial_state(mdp, rng)
    if kernel == "transition":
        mdp = make_mdp(np.tile(SHORT_ROW, (n, 1, 1)), np.zeros((n, 1, n)))
        _, s, _ = run_expert(mdp, det_policy([0] * n, 1), 0, 1, rng)
        return s
    if kernel == "policy":
        mdp = make_mdp(np.ones((1, n, 1)), np.zeros((1, n, 1)))
        policy = ExpertPolicy(policy=np.array([SHORT_ROW]))
        return int(run_expert(mdp, policy, 0, 1, rng)[2].actions[0])
    mdp = replace(one_state_mdp([0.0]),
                  reward_values=np.linspace(0.0, 1.0, n).reshape(1, 1, 1, n),
                  reward_probs=np.array(SHORT_ROW).reshape(1, 1, 1, n))
    avg, _, _ = run_expert(mdp, det_policy([0], 1), 0, 1, rng)
    return int(round(avg * (n - 1)))


@pytest.mark.parametrize("kernel", ["initial", "transition", "policy",
                                    "reward"])
def test_zero_mass_outcome_is_never_drawn(kernel):
    assert _draw_from(kernel) == 9
