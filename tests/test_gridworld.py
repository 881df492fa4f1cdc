"""Gridworld construction, layout files, expert training, benchmark freeze."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpbandit.chains import check_ergodicity, gaps, induced_chain, \
    stationary_distribution
from mdpbandit.gridworld import (
    BENCHMARK_EVENT_ITERATION,
    BENCHMARK_EVENT_PERMUTATION,
    DEFAULT_T0_SWEEP,
    DOWN,
    LEFT,
    RIGHT,
    UP,
    GridworldConfig,
    LayoutError,
    benchmark_config,
    build_gridworld,
    canonical_experiments,
    format_layout,
    load_layout,
    parse_layout,
    permute_actions,
    train_expert,
)
from mdpbandit.mdp import validate_mdp

from test_mdp import make_mdp


# frozen outputs of expert training on the shipped benchmark, one greedy
# action per state, row major from the top-left cell
BENCH_POLICIES = [
    [3, 3, 3, 3, 1, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 0, 0, 2, 2, 2],
    [2, 2, 2, 2, 0, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 3, 3, 3, 1, 1, 3, 3, 3],
    [3, 3, 3, 3, 0, 3, 3, 3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 1, 1, 2, 2, 2],
    [3, 3, 3, 3, 2, 3, 3, 3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0],
]

BENCH_STEADY = [0.739090101436, 0.012284004329, 0.099635389651, 0.002105959047]
SWAP_STEADY = [0.099635389651, 0.099829818884, 0.739090101436, 0.544857887698]

CERT_ALPHA = [0.9934454012266736, 0.9802255435390194,
              0.9999222117831381, 0.9997649768435699]


# ---------------------------------------------------------------------------
# layout files


def test_benchmark_config_contents():
    cfg = benchmark_config()
    assert (cfg.width, cfg.height) == (5, 5)
    assert cfg.tiles == ("....G", "....G", "..TTT", ".....", "S....")
    assert cfg.start_state() == 20
    assert cfg.permutations == ((0, 1, 2, 3), (1, 0, 3, 2),
                                (1, 0, 2, 3), (2, 0, 1, 3))
    assert cfg.p_slip == 0.03
    assert cfg.p_escape == 0.02
    assert (cfg.reward_green, cfg.reward_trap, cfg.reward_normal) == (1.0, 0.0, 0.1)
    assert cfg.reward_on == "destination"
    assert cfg.tile_reward("G") == 1.0
    assert cfg.tile_reward("T") == 0.0
    assert cfg.tile_reward(".") == 0.1


def test_layout_round_trip_is_exact():
    cfg = benchmark_config()
    assert parse_layout(format_layout(cfg)) == cfg
    # and on a config with awkward floats
    cfg2 = GridworldConfig(width=2, height=1, tiles=("S.",), p_slip=0.1 / 3,
                           permutations=((3, 2, 1, 0),))
    assert parse_layout(format_layout(cfg2)) == cfg2


def test_load_layout_reads_a_file(tmp_path):
    p = tmp_path / "g.grid"
    p.write_text("SG\np_slip = 0.05\npermutation = 0 1 2 3\n")
    cfg = load_layout(p)
    assert cfg.tiles == ("SG",)
    assert cfg.p_slip == 0.05


def test_parse_layout_error_messages_carry_line_numbers():
    with pytest.raises(LayoutError, match="line 2: expected 'key = value'"):
        parse_layout("S.\nnot a parameter\n")
    with pytest.raises(LayoutError, match="line 2: unknown key"):
        parse_layout("S.\nwrong_name = 1\n")
    with pytest.raises(LayoutError, match="line 2: p_slip must be a number"):
        parse_layout("S.\np_slip = often\n")
    with pytest.raises(LayoutError, match="line 3: permutation entries"):
        parse_layout("S.\n\npermutation = a b c d\n")
    with pytest.raises(LayoutError, match="no tile rows"):
        parse_layout("p_slip = 0.1\n")


def test_config_validation():
    with pytest.raises(LayoutError, match="not a bijection"):
        parse_layout("S.\npermutation = 0 0 1 2\n")
    with pytest.raises(LayoutError, match="exactly one start"):
        parse_layout("SS\n")
    with pytest.raises(LayoutError, match="exactly one start"):
        parse_layout("..\n")
    with pytest.raises(LayoutError, match="does not match"):
        GridworldConfig(width=2, height=2, tiles=("S.", "..."))
    with pytest.raises(LayoutError, match="unknown tile"):
        GridworldConfig(width=2, height=1, tiles=("SX",))
    with pytest.raises(LayoutError, match="probability"):
        GridworldConfig(width=2, height=1, tiles=("S.",), p_slip=1.5)
    with pytest.raises(LayoutError, match="reward"):
        GridworldConfig(width=2, height=1, tiles=("S.",), reward_green=2.0)
    with pytest.raises(LayoutError, match="reward_on"):
        GridworldConfig(width=2, height=1, tiles=("S.",), reward_on="both")


# ---------------------------------------------------------------------------
# dynamics construction


def test_two_cell_strip_always_crosses():
    # 1x2 grid: the only in-grid direction is toward the other cell, so all
    # slip and off-grid mass funnels there and each action moves for sure
    mdp = build_gridworld(GridworldConfig(width=2, height=1, tiles=("S.",)))
    assert validate_mdp(mdp) == []
    for s in (0, 1):
        for a in range(4):
            assert mdp.transition[s, a, 1 - s] == pytest.approx(1.0, abs=1e-12)


def test_corner_cell_rows_hand_derived():
    # 2x2 grid, start cell top-left, trap bottom-right; in-grid directions
    # from the corner are DOWN (state 2) and RIGHT (state 1)
    cfg = GridworldConfig(width=2, height=2, tiles=("S.", ".T"))
    mdp = build_gridworld(cfg)
    assert validate_mdp(mdp) == []
    P = mdp.transition
    # aiming off-grid: 0.98 off mass splits 0.49/0.49 over the two in-dirs
    np.testing.assert_allclose(P[0, UP], [0, 0.5, 0.5, 0], atol=1e-12)
    np.testing.assert_allclose(P[0, LEFT], [0, 0.5, 0.5, 0], atol=1e-12)
    # aiming in-grid: the straight direction keeps 0.97 plus half of the
    # 0.02 that pointed off, the sideways in-dir gets 0.01 + 0.01
    np.testing.assert_allclose(P[0, DOWN], [0, 0.02, 0.98, 0], atol=1e-12)
    np.testing.assert_allclose(P[0, RIGHT], [0, 0.98, 0.02, 0], atol=1e-12)


def test_trap_cell_rows_hand_derived():
    # trap holds with exactly 1 - p_escape whatever is played; the escape
    # mass follows the chosen direction, rerouted if it points off-grid
    cfg = GridworldConfig(width=2, height=2, tiles=("S.", ".T"))
    P = build_gridworld(cfg).transition
    np.testing.assert_allclose(P[3, UP], [0, 0.02, 0, 0.98], atol=1e-12)
    np.testing.assert_allclose(P[3, LEFT], [0, 0, 0.02, 0.98], atol=1e-12)
    np.testing.assert_allclose(P[3, DOWN], [0, 0.01, 0.01, 0.98], atol=1e-12)
    np.testing.assert_allclose(P[3, RIGHT], [0, 0.01, 0.01, 0.98], atol=1e-12)


def test_reward_keying_destination_vs_source():
    dest = build_gridworld(GridworldConfig(width=2, height=1, tiles=("SG",)))
    assert dest.reward_values[0, RIGHT, 1, 0] == 1.0   # arriving on green
    assert dest.reward_values[1, LEFT, 0, 0] == 0.1
    src_cfg = GridworldConfig(width=2, height=1, tiles=("SG",),
                              reward_on="source")
    src = build_gridworld(src_cfg)
    assert src.reward_values[0, RIGHT, 1, 0] == 0.1    # leaving the start
    assert src.reward_values[1, LEFT, 0, 0] == 1.0


def test_benchmark_mdp_shape_and_start(bench):
    mdp = bench.mdp
    assert (mdp.n_states, mdp.n_actions) == (25, 4)
    assert validate_mdp(mdp) == []
    assert mdp.initial_dist[20] == 1.0 and mdp.initial_dist.sum() == 1.0


# ---------------------------------------------------------------------------
# action permutation


def test_permute_actions_identity_is_a_fresh_copy(bench):
    same = permute_actions(bench.mdp, (0, 1, 2, 3))
    np.testing.assert_array_equal(same.transition, bench.mdp.transition)
    np.testing.assert_array_equal(same.reward_values, bench.mdp.reward_values)
    assert not np.shares_memory(same.transition, bench.mdp.transition)


def test_permute_actions_transposition_is_an_involution(bench):
    once = permute_actions(bench.mdp, (1, 0, 3, 2))
    twice = permute_actions(once, (1, 0, 3, 2))
    np.testing.assert_array_equal(twice.transition, bench.mdp.transition)
    np.testing.assert_array_equal(twice.reward_values, bench.mdp.reward_values)
    assert not np.array_equal(once.transition, bench.mdp.transition)


def test_permute_actions_rejects_non_bijections(bench):
    with pytest.raises(ValueError, match="bijection"):
        permute_actions(bench.mdp, (0, 0, 1, 2))
    with pytest.raises(ValueError, match="bijection"):
        permute_actions(bench.mdp, (0, 1, 2))


def test_benchmark_permutations_give_distinct_dynamics(bench):
    kernels = [permute_actions(bench.mdp, sigma).transition
               for sigma in bench.config.permutations]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(kernels[i], kernels[j])


# ---------------------------------------------------------------------------
# policy iteration


def test_train_expert_picks_highest_immediate_reward():
    P = np.ones((1, 4, 1))
    R = np.array([0.2, 0.9, 0.1, 0.3]).reshape(1, 4, 1)
    expert = train_expert(make_mdp(P, R), expert_id=5)
    np.testing.assert_array_equal(expert.policy, [[0, 1, 0, 0]])
    assert expert.expert_id == 5


def test_train_expert_prefers_rewarding_cycle():
    # action 0 always pays 1 (into state 1), action 1 pays nothing
    P = np.zeros((2, 2, 2))
    P[:, 0, 1] = 1.0
    P[:, 1, 0] = 1.0
    R = np.zeros((2, 2, 2))
    R[:, 0, 1] = 1.0
    expert = train_expert(make_mdp(P, R))
    np.testing.assert_array_equal(expert.policy, [[1, 0], [1, 0]])


def test_train_expert_tie_goes_to_lowest_action():
    P = np.ones((1, 4, 1))
    R = np.array([0.5, 0.5, 0.2, 0.2]).reshape(1, 4, 1)
    expert = train_expert(make_mdp(P, R))
    np.testing.assert_array_equal(expert.policy, [[1, 0, 0, 0]])


def test_train_expert_discount_validation():
    mdp = make_mdp(np.ones((1, 1, 1)), np.zeros((1, 1, 1)))
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            train_expert(mdp, discount=bad)


@st.composite
def coarse_mdps(draw):
    """Sparse kernels and rewards on a 0.1 or 0.25 grid, so that exact and
    near ties between actions occur; returns (mdp, discount)."""
    S = draw(st.integers(1, 6))
    A = draw(st.integers(1, 4))
    weights = np.array(draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]),
                                     min_size=S * A * S, max_size=S * A * S)))
    weights = weights.reshape(S, A, S)
    # one drawn successor per (s, a) always gets mass, so every row has some
    anchor = draw(st.lists(st.integers(0, S - 1), min_size=S * A,
                           max_size=S * A))
    weights[np.repeat(np.arange(S), A), np.tile(np.arange(A), S), anchor] += 1
    step = draw(st.sampled_from([0.1, 0.25]))
    levels = draw(st.lists(st.integers(0, round(1 / step)),
                           min_size=S * A * S, max_size=S * A * S))
    rewards = np.round(np.array(levels) * step, 2).reshape(S, A, S)
    discount = draw(st.sampled_from([0.5, 0.9, 0.95]))
    P = weights / weights.sum(axis=2, keepdims=True)
    return make_mdp(P, rewards), discount


def value_iteration_q(mdp, discount, tol=1e-12):
    """Oracle: the value-iteration loop that trained the experts before
    policy iteration, run to tol; returns the q table of its values."""
    P = mdp.transition
    r_sa = np.einsum("saj,saj->sa", P, mdp.mean_reward())
    v = np.zeros(mdp.n_states)
    for _ in range(100000):
        v_new = (r_sa + discount * (P @ v)).max(axis=1)
        if np.abs(v_new - v).max() < tol:
            return r_sa + discount * (P @ v_new)
        v = v_new
    raise AssertionError(f"value iteration did not reach tol={tol}")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(coarse_mdps())
def test_train_expert_is_optimal_and_agrees_with_value_iteration(case):
    mdp, discount = case
    S = mdp.n_states
    actions = train_expert(mdp, discount).policy.argmax(axis=1)
    # exact value of the returned policy: no action improves on it
    P = mdp.transition
    r_sa = np.einsum("saj,saj->sa", P, mdp.mean_reward())
    states = np.arange(S)
    v = np.linalg.solve(np.eye(S) - discount * P[states, actions],
                        r_sa[states, actions])
    assert ((r_sa + discount * (P @ v)).max(axis=1) - v).max() <= 1e-12
    # the oracle decides every state whose best action is clear of the
    # runner-up; exact ties may go either way by a rounding
    q = value_iteration_q(mdp, discount)
    top = np.sort(np.c_[np.full(S, -np.inf), q], axis=1)
    clear = top[:, -1] - top[:, -2] > 1e-8
    np.testing.assert_array_equal(actions[clear], q.argmax(axis=1)[clear])


# ---------------------------------------------------------------------------
# the frozen benchmark


def test_benchmark_expert_policies_frozen(bench):
    assert len(bench.experts) == 4
    for j, expert in enumerate(bench.experts):
        assert expert.expert_id == j
        np.testing.assert_array_equal(expert.policy.argmax(axis=1),
                                      BENCH_POLICIES[j])
        assert set(np.unique(expert.policy)) == {0.0, 1.0}


def test_benchmark_expert_chains_are_ergodic(bench):
    for expert in bench.experts:
        flags = check_ergodicity(induced_chain(bench.mdp, expert))
        assert flags == {"irreducible": True, "aperiodic": True}


def test_benchmark_steady_rewards_frozen(bench):
    np.testing.assert_allclose(bench.rbar, BENCH_STEADY, atol=1e-9)
    assert bench.e_star == 0
    np.testing.assert_allclose(
        gaps(bench.rbar)[1],
        [0.0, BENCH_STEADY[0] - BENCH_STEADY[1],
         BENCH_STEADY[0] - BENCH_STEADY[2],
         BENCH_STEADY[0] - BENCH_STEADY[3]], atol=1e-9)


def test_benchmark_swap_makes_expert_two_best(bench):
    np.testing.assert_allclose(bench.swap_rbar, SWAP_STEADY, atol=1e-9)
    assert bench.swap_e_star == 2
    assert bench.swap_r_star == pytest.approx(bench.r_star, abs=1e-9)
    # the moderate arm: close enough to keep getting pulled after the swap
    assert gaps(bench.swap_rbar)[1][3] == pytest.approx(0.194, abs=1e-3)


def test_benchmark_certified_profiles_frozen(certified):
    _, profiles = certified
    alphas = [p.slem for p in profiles]
    np.testing.assert_allclose(alphas, CERT_ALPHA, atol=1e-9)
    cs = [p.mix_const for p in profiles]
    for c, (lo, hi) in zip(cs, [(2.09, 2.10), (2.51, 2.53),
                                (2.0, 2.05), (2.0, 2.02)]):
        assert lo <= c <= hi
    for p in profiles:
        assert p.k_const == p.mix_const / (1.0 - p.slem)
    ks = [p.k_const for p in profiles]
    for k, (lo, hi) in zip(ks, [(300, 340), (120, 135),
                                (24000, 27500), (8000, 9000)]):
        assert lo <= k <= hi


def test_benchmark_stationary_masses_concentrate_near_the_goals(bench):
    # the winning expert spends most of its time cycling the green cells;
    # its loop cuts through the trap next to the goal column (state 14)
    # but barely touches the rest of the trap band
    mu = stationary_distribution(induced_chain(bench.mdp, bench.experts[0]))
    assert mu[[4, 9]].sum() > 0.5
    assert mu[14] < 0.3
    assert mu[12:14].sum() < 0.01


# ---------------------------------------------------------------------------
# canonical experiment specs


def test_canonical_experiments_cover_sweep_and_perturbation(tmp_path):
    specs = canonical_experiments(tmp_path / "exp")
    assert len(specs) == 4
    sweep = specs[:3]
    assert [s.t0 for s in sweep] == list(DEFAULT_T0_SWEEP)
    for s in specs:
        assert s.c == 0.1
        assert s.seeds == list(range(10))
    assert [s.iterations for s in sweep] == [5000, 5000, 5000]
    pert = specs[3]
    assert pert.label == "perturbation"
    assert pert.iterations == 10000
    assert pert.events == [{"iteration": BENCHMARK_EVENT_ITERATION,
                            "permutation": list(BENCHMARK_EVENT_PERMUTATION)}]
    assert pert.out.endswith("perturbation")
