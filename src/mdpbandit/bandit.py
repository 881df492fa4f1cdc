"""Expert selection over a live MDP: growing horizons, UCB index, run loop.

The loop departs from a classical bandit in one essential way: the
environment state carries over from one pull to the next.  Iteration n runs
the chosen expert for T_n steps starting wherever iteration n - 1 left the
chain, so a bad expert does not just earn little, it also hands the next
expert a bad starting state.  The K_e / T_0 term in the confidence bound is
what pays for that coupling.  ucb_selector binds the paper's index to one
K_e per expert.  The selector runs once per pull on a handful of experts,
so its state and index are plain lists and floats, not numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mdp import _is_int, _Stepper, _tabulate, sample_initial_state, \
    write_csv

__all__ = [
    "HorizonSchedule",
    "BanditState",
    "RunLog",
    "select_ucb",
    "ucb_selector",
    "run_mab",
]

# the run-log CSV header, shared by RunLog.to_csv and RunLog.from_csv
RUNLOG_COLUMNS = ("n", "expert", "T_n", "start_state", "avg_reward", "t_n")

_BLOCK = 4096   # uniforms run_mab draws at a time


@dataclass(frozen=True)
class HorizonSchedule:
    """T_n = max(T0, round(T0 + slope * n)); slope 0 is a constant schedule."""

    t0: int
    slope: float = 0.0

    def __post_init__(self):
        if not _is_int(self.t0) or not 1 <= self.t0 < 2**63:
            raise ValueError(f"T0 must be a positive integer below 2**63, "
                             f"got {self.t0!r}")
        if not (math.isfinite(self.slope) and self.slope >= 0):
            raise ValueError(f"need a finite slope >= 0, got {self.slope!r}")

    def horizons(self, iterations: int) -> np.ndarray:
        """T_0, ..., T_{iterations - 1} as int64, or ValueError when one
        reaches 2**63, where the cast would wrap it to a negative count."""
        # T_n never decreases, so the last one is the longest
        longest = self.t0 + self.slope * (iterations - 1)
        if longest >= 2**63:
            raise ValueError(f"horizon T_{iterations - 1} = {longest:.6g} "
                             f"does not fit a 64-bit step count")
        # rint rounds half to even: T_n stays within half a step of
        # T0 + slope n, which is all regret._harmonic_bound assumes
        return np.maximum(self.t0, np.rint(
            self.t0 + self.slope * np.arange(iterations))).astype(np.int64)


@dataclass
class BanditState:
    """Selector state as plain lists (numpy arrays work too, but slower)."""

    pulls: list         # k_e, one count per expert
    sums: list          # S_e, cumulative per-pull average rewards
    n: int = 0          # iterations completed, equals sum(pulls)

    @classmethod
    def fresh(cls, n_experts: int) -> "BanditState":
        return cls(pulls=[0] * n_experts, sums=[0.0] * n_experts)


def select_ucb(state: BanditState, k_consts, schedule: HorizonSchedule) -> int:
    """Argmax of S_e/k_e + K_e/T0 + sqrt(8 ln n / k_e), unplayed first.

    Both the cold-start rule and the argmax break ties toward the lowest
    expert index, so a run is reproducible down to the choice sequence.
    """
    pulls, sums, n, t0 = state.pulls, state.sums, state.n, schedule.t0
    if len(pulls) == 0:
        raise ValueError("no experts to select from")
    if 0 in pulls:
        return list(pulls).index(0)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # the index's terms in this order, with 8 ln n taken once
    log8 = 8.0 * math.log(n)
    best, best_index = 0, -math.inf
    for e, k in enumerate(pulls):
        index = sums[e] / k + (k_consts[e] / t0 + math.sqrt(log8 / k))
        if index > best_index:
            best, best_index = e, index
    return best


def ucb_selector(k_consts):
    """Bind per-expert constants into a selector usable by run_mab."""
    consts = [float(k) for k in k_consts]

    def _select(state: BanditState, schedule: HorizonSchedule) -> int:
        return select_ucb(state, consts, schedule)

    return _select


@dataclass
class RunLog:
    """Per-iteration record of one run; column names match the CSV schema."""

    experts: np.ndarray       # expert chosen at iteration n
    horizons: np.ndarray      # T_n
    start_states: np.ndarray  # state the rollout started from
    avg_rewards: np.ndarray   # R_k, the per-step average of the pull
    t_start: np.ndarray       # MDP time when the iteration began
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.experts)

    def to_csv(self, path) -> None:
        write_csv(path, RUNLOG_COLUMNS,
                  zip(range(len(self)), self.experts.tolist(),
                      self.horizons.tolist(), self.start_states.tolist(),
                      np.asarray(self.avg_rewards, dtype=float).tolist(),
                      self.t_start.tolist()),
                  [f"{key}={self.meta[key]}" for key in sorted(self.meta)])

    @classmethod
    def from_csv(cls, path) -> "RunLog":
        """Read a to_csv file.  '# key=value' lines fill meta; the first
        other line must be the RUNLOG_COLUMNS header, and every later line a
        row of one number per column, or ValueError names the line."""
        header = ",".join(RUNLOG_COLUMNS)
        meta = {}
        rows = None
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, value = line[1:].strip().partition("=")
                    meta[key] = value
                    continue
                if rows is None:
                    if line != header:
                        raise ValueError(f"{path}, line {lineno}: header "
                                         f"{line!r}, expected {header!r}")
                    rows = []
                    continue
                try:
                    _, e, h, s, r, t = line.split(",")
                    rows.append((int(e), int(h), int(s), float(r), int(t)))
                except ValueError as exc:
                    raise ValueError(f"{path}, line {lineno}: {exc}") from None
        if not rows:
            raise ValueError(f"{path}: no data rows")
        experts, horizons, starts, rewards, t_start = map(np.array, zip(*rows))
        return cls(experts=experts, horizons=horizons, start_states=starts,
                   avg_rewards=rewards, t_start=t_start, meta=meta)


def run_mab(mdp, experts, selector, schedule: HorizonSchedule,
            iterations: int = 1, rng: np.random.Generator | None = None,
            events=()) -> RunLog:
    """The generic selection loop: choose, roll out T_n steps, update.

    selector(state, schedule) returns the index of the expert to pull;
    ucb_selector(k_consts) is the paper's.  events is a list of (iteration,
    replacement FiniteMdp); each replacement is installed before its
    iteration's selection, and the environment state survives the swap.
    Every expert is checked against each MDP, the starting one and every
    replacement whether it fires or not, before the first draw, and
    ValueError names what does not fit.  Uniforms are drawn from rng ahead
    of use (the RNG stream contract in mdp), so rng may end past the last
    one used.  Each block of them is binned once to the codes of the run's
    tables, and each pull walks by table lookup; a run whose tables would
    be too large walks by bisect on the uniforms (mdp._tabulate).
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if not experts:
        raise ValueError("need at least one expert")
    hors = schedule.horizons(iterations)
    if rng is None:
        rng = np.random.default_rng()

    events = sorted(events, key=lambda ev: ev[0])
    for when, replacement in events:
        if (replacement.n_states, replacement.n_actions) \
                != (mdp.n_states, mdp.n_actions):
            raise ValueError(
                f"event at iteration {when}: replacement MDP has "
                f"{replacement.n_states} states / {replacement.n_actions} "
                f"actions, expected {mdp.n_states} / {mdp.n_actions}")
    steppers = [_Stepper(mdp, p) for p in experts]
    pending = [(when, [_Stepper(m, p) for p in experts])
               for when, m in events]
    binned = _tabulate(steppers + [st for _, group in pending for st in group])

    n_exp = len(experts)
    state = BanditState.fresh(n_exp)
    s = sample_initial_state(mdp, rng)

    t_start = np.concatenate(([0], np.cumsum(hors[:-1])))
    # preallocated columns: lists would keep a Python float and int per pull
    # alive to the end of the run (+0.8 MB peak RSS over 20000 pulls)
    chosen = np.zeros(iterations, dtype=np.int64)
    starts = np.zeros(iterations, dtype=np.int64)
    rewards = np.zeros(iterations)

    # uniforms are drawn ahead in blocks, the stream per-pull draws make,
    # and binned to their codes, or kept as floats when the run walks by
    # bisect: a pull walks on T * width of them
    block, i = binned(np.empty(0)), 0
    sums, pulls = state.sums, state.pulls
    for n, T in enumerate(hors.tolist()):
        while pending and pending[0][0] <= n:
            steppers = pending.pop(0)[1]
        e = selector(state, schedule)
        if not 0 <= e < n_exp:
            raise ValueError(f"selector chose expert {e!r} at iteration {n}; "
                             f"expected an index in range({n_exp})")
        stepper = steppers[e]
        end = i + T * stepper.width
        if end > len(block):
            block = block[i:] + binned(rng.random(max(_BLOCK,
                                                      end - len(block))))
            i, end = 0, end - i
        starts[n] = s
        total, s = stepper.walk(s, block[i:end])
        i = end
        chosen[n] = e
        rewards[n] = avg = total / T
        sums[e] += avg
        pulls[e] += 1
        state.n = n + 1

    meta = {"t0": schedule.t0, "c": schedule.slope, "iterations": iterations}
    if events:
        meta["events"] = ";".join(str(w) for w, _ in events)
    if pending:
        # events scheduled at or beyond the end never fired; record that
        meta["unfired_events"] = ",".join(str(w) for w, _ in pending)
    return RunLog(experts=chosen, horizons=hors, start_states=starts,
                  avg_rewards=rewards, t_start=t_start, meta=meta)
