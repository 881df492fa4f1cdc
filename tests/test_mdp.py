"""MDP containers, validation, rollout sampling, and file round-trips."""

import json
import math
import pickle
import tempfile
from bisect import bisect_right
from dataclasses import asdict, replace
from fractions import Fraction
from functools import partial
from itertools import accumulate
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdpbandit import mdp as mdp_module
from mdpbandit.chains import induced_chain
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


@pytest.mark.parametrize("field, count", [
    ("n_states", 2.0), ("n_actions", 1.0), ("n_states", True),
    ("n_actions", 0), ("n_states", np.float64(2))])
def test_a_state_or_action_count_must_be_a_positive_integer(field, count):
    # a float count equal to the array's shape built, and
    # sample_initial_state then raised TypeError
    fields = mdp_fields(np.eye(2)[:, None, :], np.zeros((2, 1, 2)))
    assert build_errors({**fields, field: count}) == [
        f"{field} must be an integer >= 1, got {count!r}"]
    assert make_mdp(np.eye(2)[:, None, :], np.zeros((2, 1, 2))).n_states == 2
    FiniteMdp(**{**fields, "n_states": np.int64(2)})


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
    # the MDP check ran from four places; a pickled copy is built, and so
    # checked, once more, and sampling it runs no check
    with mock.patch.object(mdp_module, "_mdp_errors",
                           wraps=mdp_module._mdp_errors) as check:
        mdp = two_state_cycle()
        moved = replace(mdp, initial_dist=[0.0, 1.0])
        assert check.call_count == 2
        back = pickle.loads(pickle.dumps(moved))
        assert check.call_count == 3
        sample_initial_state(back, np.random.default_rng(0))
        run_expert(back, det_policy([0, 0], 1), 0, 3,
                   np.random.default_rng(0))
    assert check.call_count == 3


def test_a_pickled_mdp_is_a_checked_read_only_copy():
    # an unpickled MDP had writeable arrays: after initial_dist[:] = 0 and
    # initial_dist[1] = 5.0 it was sampled without a word, as state 1
    mdp = random_mdp(np.random.default_rng(2))
    back = pickle.loads(pickle.dumps(mdp))
    for name in ("transition", "reward_values", "reward_probs",
                 "initial_dist"):
        array = getattr(back, name)
        assert not array.flags.writeable, name
        assert array.tobytes() == getattr(mdp, name).tobytes(), name
    assert (back.n_states, back.n_actions) == (mdp.n_states, mdp.n_actions)
    with pytest.raises(ValueError, match="read-only"):
        back.initial_dist[:] = 0
    # a copy made from a pickle whose arrays were edited is checked
    edited = pickle.dumps(replace(mdp, initial_dist=np.eye(4)[1]))
    one, five = np.float64(1.0).tobytes(), np.float64(5.0).tobytes()
    assert edited.count(one) == 1
    with pytest.raises(ValueError, match="invalid MDP: initial distribution "
                       "sum 5.0"):
        pickle.loads(edited.replace(one, five))


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
    # a copy made with dataclasses.replace samples its own arrays, not
    # rows built for the old ones
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


def joint_masses(mdp, pi):
    """The (S, A * S * V) masses of every state's joint outcomes (a, s', v)
    in that order, pi(a|s) P(s'|s,a) q(v|s,a,s') as Python floats, zeros
    included; a policy or reward row with exactly one positive entry reads
    1.0 there."""
    def point(rows):
        return [[float(p > 0) for p in row] if sum(p > 0 for p in row) == 1
                else row for row in rows]

    S, A, V = mdp.n_states, mdp.n_actions, mdp.reward_values.shape[-1]
    P = mdp.transition.tolist()
    pol = point(pi.tolist())
    q = point(mdp.reward_probs.reshape(-1, V).tolist())
    return [[pol[s][a] * P[s][a][t] * q[(s * A + a) * S + t][v]
             for a in range(A) for t in range(S) for v in range(V)]
            for s in range(S)]


def reference_run(mdp, policy, s0, T, rng, record):
    """run_expert over full joint rows: one uniform a step, bisected over
    every outcome (a, s', v) of the state's row, zero mass included.
    Returns (avg, final state, (states, actions, rewards) or None)."""
    S, V = mdp.n_states, mdp.reward_values.shape[-1]
    cdf = []
    for row in joint_masses(mdp, policy.policy):
        cum = list(accumulate(row))
        last = max(j for j, m in enumerate(row) if m > 0)
        cdf.append(cum[:last] + [1.0] * (len(row) - last))
    rvals = mdp.reward_values.reshape(S, -1).tolist()
    total, s = 0.0, s0
    states, actions, rewards = [s0], [], []
    for u in rng.random(T).tolist():
        j = bisect_right(cdf[s], u)
        r = rvals[s][j]
        total += r
        s = j // V % S
        states.append(s)
        actions.append(j // (S * V))
        rewards.append(r)
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
    """Replace about half the rows of w, in place, with rows whose
    cumulative masses are hard to get right: a single outcome, of mass 1.0
    or 1 - 1e-10, which the sampler reads as exactly 1.0; a lopsided
    row, one entry 1 - k ulp (k 1-4) and the rest tiny, so that tiny
    entries after it may add nothing to the cumulative mass, which then
    repeats; dyadic masses whose two widest entries have exactly equal
    width; or one entry 1.0 and 1e-10 spread over the rest, a row that is
    no point mass though its max is 1.0.  Zeros stay between the
    entries."""
    n = w.shape[-1]
    for row in w.reshape(-1, n):
        kind, at = g.integers(8), g.permutation(n)
        if kind > 3:
            continue
        row[:] = 0.0
        if kind == 0 or n == 1:
            row[at[0]] = 1.0 - 1e-10 * g.integers(2)
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


def boundary_pool(kernels):
    """0, the largest double below 1, and every raw and pinned cumulative
    value of the rows of kernels and the double just below each: the
    values where a bisect over full rows and one over compact rows could
    part, and where a code changes."""
    values = np.concatenate(
        [f(k).ravel() for k in kernels
         for f in (full_cdf, partial(np.cumsum, axis=-1))]
        + [[0.0, np.nextafter(1.0, 0.0)]])
    values = np.concatenate([values, np.nextafter(values, 0.0)])
    return np.unique(values[(values >= 0.0) & (values < 1.0)])


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
    pulls of T 1-70, each recording or not.  The rng pair is two
    Generators on one seed, or two BoundaryDraws over 0, the largest
    double below 1, and every raw and pinned cumulative value of the
    initial law's and every expert's joint rows and the double just below
    each."""
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
        pool = boundary_pool([mdp.initial_dist] + [
            np.array(joint_masses(mdp, e.policy)) for e in experts])
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


U = Fraction(1, 2**53)   # unit roundoff of a double


def exact_point(row):
    """A policy or reward row as Fractions, read as exactly 1 at its one
    positive entry when it has exactly one."""
    if sum(p > 0 for p in row) == 1:
        return [Fraction(int(p > 0)) for p in row]
    return [Fraction(p) for p in row]


def test_joint_masses_are_the_exact_products_within_two_roundings():
    # each mass is pi(a|s) P(s'|s,a) q(v|s,a,s') rounded twice, once per
    # product.  A rounding to nearest is off by at most U relative, plus
    # half the smallest subnormal, 2**-1075, if the product underflows, so
    # |mass - exact| <= (2 U + U**2) exact + 2**-1073.  Each joint row's
    # cumulative masses are the left-to-right float sums of its positive
    # masses, the last set to 1.0, over outcomes (next state, reward) and
    # actions decoded from their place (a, s', v)
    g = np.random.default_rng(17)
    for case in range(24):
        S, A = int(g.integers(1, 6)), int(g.integers(1, 4))
        V = [1, 2, 12][case % 3]
        mdp = FiniteMdp(
            n_states=S, n_actions=A,
            transition=edge_rows(g, sparse_rows(g, (S, A, S))),
            reward_values=g.random((S, A, S, V)),
            reward_probs=edge_rows(g, sparse_rows(g, (S, A, S, V),
                                                  tenths=V >= 10)),
            initial_dist=np.full(S, 1.0 / S))
        pi = edge_rows(g, sparse_rows(g, (S, A))) if case % 2 \
            else np.eye(A)[g.integers(0, A, size=S)]
        mass = mdp_module._joint_masses(mdp, pi).tolist()
        P = mdp.transition.tolist()
        q = mdp.reward_probs.tolist()
        rv = mdp.reward_values.tolist()
        stepper = mdp_module._Stepper(mdp, ExpertPolicy(policy=pi))
        for s, row in enumerate(mass):
            pol = exact_point(pi[s].tolist())
            assert len(row) == A * S * V
            for a, t, v in np.ndindex(A, S, V):
                exact = pol[a] * Fraction(P[s][a][t]) \
                    * exact_point(q[s][a][t])[v]
                assert abs(Fraction(row[(a * S + t) * V + v]) - exact) \
                    <= (2 * U + U**2) * exact + Fraction(2)**-1073
            kept = [j for j, m in enumerate(row) if m > 0]
            cum = list(accumulate(row[j] for j in kept))
            cum[-1] = 1.0
            assert stepper.rows[s] == (
                cum, [(j // V % S, rv[s][j // (S * V)][j // V % S][j % V])
                      for j in kept], [j // (S * V) for j in kept])


@settings(max_examples=100)
@given(st.integers(1, 6), st.integers(1, 3), st.sampled_from([1, 2, 12]),
       st.integers(0, 2**32 - 1), st.booleans())
def test_a_joint_row_s_next_state_marginal_is_the_induced_kernel(
        S, A, V, seed, deterministic):
    # sum over a and v of a state's joint masses is the row of the kernel
    # chains.induced_chain certifies, sum_a pi(a|s) P(s'|s,a).  Exactly,
    # the two differ by at most sum_a P(s'|s,a) (|pi' - pi| + |Q - 1|) <=
    # A (dp + dq), where pi' reads a point-mass policy entry as 1 (dp is
    # the largest |pi' - pi|) and Q = sum_v q' is a reward row's sum, a
    # point-mass row read as 1 (dq is the largest |Q - 1|).  Rounding adds
    # 2 U + U**2 per mass, U for fsum and at most A U for the kernel's
    # einsum, on sums near 1: together at most 2 (A + 4) U
    g = np.random.default_rng(seed)
    mdp = random_mdp(g, S, A, V)
    mdp = replace(mdp, reward_probs=edge_rows(g, mdp.reward_probs.copy()))
    pi = np.eye(A)[g.integers(0, A, size=S)] if deterministic \
        else edge_rows(g, sparse_rows(g, (S, A)))
    kernel = induced_chain(mdp, ExpertPolicy(policy=pi)).kernel
    mass = mdp_module._joint_masses(mdp, pi).reshape(S, A, S, V)
    dp = max(abs(Fraction(p) - e) for row in pi.tolist()
             for p, e in zip(row, exact_point(row)))
    dq = max(abs(sum(exact_point(row)) - 1)
             for row in mdp.reward_probs.reshape(-1, V).tolist())
    tol = A * (dp + dq) + 2 * (A + 4) * U
    for s, t in np.ndindex(S, S):
        marginal = math.fsum(mass[s, :, t].ravel().tolist())
        assert abs(Fraction(marginal) - Fraction(kernel[s, t])) <= tol


EDGE = 2.0**-mdp_module._BUCKET_BITS   # width of a binner bucket


@st.composite
def cuts_and_draws(draw):
    """(cuts, draws): sorted cuts in [0, 1), some at a bucket edge or one
    ulp off one, some anywhere; draws at every bucket edge, at each cut
    and one ulp either side, 0, the largest double below 1, and a few
    uniforms."""
    edges = st.integers(0, int(1 / EDGE) - 1).map(lambda k: k * EDGE)
    near = edges.flatmap(lambda x: st.sampled_from(
        [x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)]))
    cuts = np.unique(draw(st.lists(st.one_of(
        near, st.floats(0.0, 1.0, exclude_max=True)), max_size=60)))
    cuts = cuts[(cuts >= 0.0) & (cuts < 1.0)]
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    draws = np.concatenate([np.arange(0.0, 1.0, EDGE), cuts,
                            np.nextafter(cuts, 0.0), np.nextafter(cuts, 1.0),
                            [0.0, np.nextafter(1.0, 0.0)], g.random(100)])
    return cuts, g.permutation(draws[(draws >= 0.0) & (draws < 1.0)])


@settings(max_examples=100)
@given(cuts_and_draws())
def test_a_binned_code_is_the_bisect_of_the_cuts(case):
    cuts, draws = case
    want = [bisect_right(cuts.tolist(), u) for u in draws.tolist()]
    assert mdp_module._binner(cuts)(draws).tolist() == want


def test_a_code_table_gives_the_outcome_a_bisect_gives():
    # read at the codes of draws at and just below every cut, each state's
    # table gives the (next state, reward) the bisect of its joint row
    # gives, for steppers on three MDPs tabulated together, also over
    # edge_rows, whose cumulative masses repeat and tie
    g = np.random.default_rng(3)
    cases = [
        (make_mdp(g.dirichlet(np.ones(4), size=(4, 3)), g.random((4, 3, 4))),
         det_policy([0, 2, 1, 1], 3)),
        (random_mdp(g), ExpertPolicy(policy=g.dirichlet(np.ones(3), size=4))),
        (FiniteMdp(n_states=5, n_actions=3,
                   transition=edge_rows(g, sparse_rows(g, (5, 3, 5))),
                   reward_values=g.random((5, 3, 5, 4)),
                   reward_probs=edge_rows(g, sparse_rows(g, (5, 3, 5, 4))),
                   initial_dist=np.full(5, 0.2)),
         ExpertPolicy(policy=edge_rows(g, sparse_rows(g, (5, 3)))))]
    steppers = [mdp_module._Stepper(mdp, policy) for mdp, policy in cases]
    codes = mdp_module._tabulate(steppers)
    pool = boundary_pool([np.array(joint_masses(mdp, policy.policy))
                          for mdp, policy in cases])
    draws = g.choice(pool, size=1500)
    for u, c in zip(draws.tolist(), codes(draws)):
        for stepper in steppers:
            for s, (cum, outcomes, _) in enumerate(stepper.rows):
                assert stepper.tab[s][c] == outcomes[bisect_right(cum, u)]


def test_a_pickled_warm_cache_samples_the_same_stream():
    # a pool worker receives the MDP together with its experts, after the
    # parent has sampled them
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


class ZeroDraws:
    """Generator stand-in whose every draw is 0.0, which picks the first
    outcome of a row."""

    def random(self, size):
        return np.zeros(size)


def reads_one_uniform_a_step(mdp, policy):
    """Whether every rollout of mdp and policy, recording or not, reads
    exactly T uniforms; T = 5."""
    for record in (False, True):
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        run_expert(mdp, policy, 0, 5, rng, record)
        ref.random(5)
        if rng.bit_generator.state != ref.bit_generator.state:
            return False
    return True


@pytest.mark.parametrize("row, actions", [([1e-10, 1.0], 2),
                                          ([0.0, 1.0 - 1e-10], 1)])
def test_a_policy_row_is_a_point_mass_only_with_one_positive_entry(
        row, actions):
    # [1e-10, 1.0] passes validate_policy and was sampled as always taking
    # action 1, dropping the mass of action 0: its joint row keeps action
    # 0, with mass 1e-10 over the two next states, while [0.0, 1 - 1e-10]
    # takes action 1 with mass exactly 1, so its two next states keep
    # their masses of 0.5 each
    mdp = make_mdp(np.full((2, 2, 2), 0.5), np.zeros((2, 2, 2)))
    policy = ExpertPolicy(policy=np.array([row, row]))
    validate_policy(policy, mdp)
    want = ([5e-11, 1e-10, 0.5 + 1e-10, 1.0], [0, 0, 1, 1]) if actions == 2 \
        else ([0.5, 1.0], [1, 1])
    for cum, _, taken in mdp_module._Stepper(mdp, policy).rows:
        assert len(set(taken)) == actions
        assert (cum, taken) == want
    traj = run_expert(mdp, policy, 0, 3, ZeroDraws())[2]
    assert traj.actions.tolist() == [2 - actions] * 3
    assert reads_one_uniform_a_step(mdp, policy)


@pytest.mark.parametrize("probs, outcomes, reward", [([1.0, 0.0], 1, 0.3),
                                                     ([0.0, 1.0], 1, 0.9),
                                                     ([0.5, 0.5], 2, None)])
def test_a_reward_row_is_a_point_mass_only_with_one_positive_entry(
        probs, outcomes, reward):
    # a two-point reward row with one positive entry is one outcome of
    # the joint row, which carries that entry's value; a spread row is one
    # outcome per support point
    mdp = FiniteMdp(n_states=1, n_actions=1, transition=np.ones((1, 1, 1)),
                    reward_values=np.array([[[[0.3, 0.9]]]]),
                    reward_probs=np.array([[[probs]]]),
                    initial_dist=np.ones(1))
    (cum, got, _), = mdp_module._Stepper(mdp, det_policy([0], 1)).rows
    assert len(got) == outcomes
    if reward is None:
        assert (cum, got) == ([0.5, 1.0], [(0, 0.3), (0, 0.9)])
    else:
        assert (cum, got) == ([1.0], [(0, reward)])
        avg = run_expert(mdp, det_policy([0], 1), 0, 5,
                         np.random.default_rng(3))[0]
        assert avg == pytest.approx(reward, abs=1e-12)
    assert reads_one_uniform_a_step(mdp, det_policy([0], 1))


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
