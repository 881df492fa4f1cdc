"""Online expert selection over finite MDPs.

A bandit chooses among fixed expert policies, each pull runs the chosen
expert on the live MDP for a growing number of steps without resetting the
state, and a UCB index corrected by the experts' mixing constants drives
the choice.  Submodules:

  mdp        finite MDPs, validation, seeded rollouts, file formats
  chains     induced-chain analysis: stationary laws, mixing certificates
  bandit     the selection loop, horizon schedule, UCB index, run logs
  regret     regret curves, the exact decomposition, bound curves
  gridworld  the benchmark family and its permuted experts
  experiment specs, the multi-seed runner, sweeps
  cli        command line entry point
"""

from .bandit import BanditState, HorizonSchedule, RunLog, confidence_bound, \
    horizon, run_mab, select_ucb, ucb_selector
from .chains import InducedChain, MixingProfile, NotErgodicError, \
    check_ergodicity, gaps, induced_chain, mixing_constants, profile_expert, \
    slem, stationary_distribution, steady_state_reward, with_gaps
from .experiment import ExperimentSpec, load_spec, nominal_profiles, \
    run_spec, save_spec, sweep_spec
from .gridworld import GridworldConfig, LayoutError, benchmark_config, \
    build_experts, build_gridworld, canonical_experiments, format_layout, \
    parse_layout, permute_actions, train_expert
from .mdp import ExpertPolicy, FiniteMdp, Trajectory, deterministic_reward, \
    load_mdp, load_policy, run_expert, save_mdp, save_policy, validate_mdp
from .regret import GapTooSmallError, RegretCurve, aggregate_runs, \
    cumulative_regret, cumulative_reward_time, decomposition_terms, \
    regret_from_rewards, ucb_regret_bounds

__version__ = "0.1.0"
