"""Gridworld benchmark family: construction, permuted experts, canonical runs.

Cells are row major, row 0 at the top.  Actions are the four cardinal
moves.  A normal cell follows the chosen direction with 1 - p_slip and
slips to each other direction with p_slip / 3; a trap cell holds the agent
with 1 - p_escape and releases it in the chosen direction with p_escape.
Any movement mass pointing off the grid is redistributed uniformly over the
directions that stay inside.  Rewards are deterministic and keyed on the
destination cell by default (green 1.0, trap 0.0, anything else 0.1).

Experts differ only in how their action labels map to directions: expert j
is trained by policy iteration on the MDP with its actions permuted by
sigma_j, then deployed on the true dynamics.  The benchmark's perturbation
event re-permutes the true dynamics mid-run, which silently changes which
expert's training assumption is the right one.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

import numpy as np

from .mdp import ExpertPolicy, FiniteMdp, deterministic_reward

__all__ = [
    "UP", "DOWN", "LEFT", "RIGHT",
    "GridworldConfig",
    "LayoutError",
    "parse_layout",
    "format_layout",
    "load_layout",
    "benchmark_config",
    "build_gridworld",
    "permute_actions",
    "train_expert",
    "build_experts",
    "canonical_experiments",
    "BENCHMARK_EVENT_ITERATION",
    "BENCHMARK_EVENT_PERMUTATION",
    "DEFAULT_T0_SWEEP",
]

UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3
_STEPS = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1)}
_TILE_CHARS = set("SGT.")

BENCHMARK_EVENT_ITERATION = 5000
BENCHMARK_EVENT_PERMUTATION = (1, 0, 2, 3)
DEFAULT_T0_SWEEP = (4, 16, 64)


class LayoutError(ValueError):
    """Malformed grid layout file or inconsistent configuration."""


@dataclass(frozen=True)
class GridworldConfig:
    width: int
    height: int
    tiles: tuple          # row strings of S G T .
    p_slip: float = 0.03
    p_escape: float = 0.02
    reward_green: float = 1.0
    reward_trap: float = 0.0
    reward_normal: float = 0.1
    reward_on: str = "destination"
    permutations: tuple = ((0, 1, 2, 3),)

    def __post_init__(self):
        if self.height != len(self.tiles) \
                or any(len(row) != self.width for row in self.tiles):
            raise LayoutError(
                f"tile map does not match declared {self.width}x{self.height}")
        flat = "".join(self.tiles)
        if set(flat) - _TILE_CHARS:
            raise LayoutError(
                f"unknown tile characters {sorted(set(flat) - _TILE_CHARS)}")
        if flat.count("S") != 1:
            raise LayoutError(f"need exactly one start cell, found "
                              f"{flat.count('S')}")
        for p in (self.p_slip, self.p_escape):
            if not 0.0 <= p <= 1.0:
                raise LayoutError(f"probability {p} outside [0, 1]")
        for rw in (self.reward_green, self.reward_trap, self.reward_normal):
            if not 0.0 <= rw <= 1.0:
                raise LayoutError(f"reward {rw} outside [0, 1]")
        if self.reward_on not in ("destination", "source"):
            raise LayoutError(f"reward_on must be destination or source, "
                              f"got {self.reward_on!r}")
        for sigma in self.permutations:
            if sorted(sigma) != [0, 1, 2, 3]:
                raise LayoutError(f"permutation {sigma} is not a bijection "
                                  f"on the four actions")

    def start_state(self) -> int:
        flat = "".join(self.tiles)
        return flat.index("S")

    def tile_reward(self, ch: str) -> float:
        if ch == "G":
            return self.reward_green
        if ch == "T":
            return self.reward_trap
        return self.reward_normal


_FLOAT_KEYS = ("p_slip", "p_escape", "reward_green", "reward_trap",
               "reward_normal")


def parse_layout(text: str) -> GridworldConfig:
    """Parse the grid file format: tile rows, then key = value lines,
    with one permutation line per expert."""
    grid_rows = []
    params = {}
    perms = []
    in_grid = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if in_grid:
            if line and set(line) <= _TILE_CHARS:
                grid_rows.append(line)
                continue
            in_grid = False
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise LayoutError(f"line {lineno}: expected 'key = value', "
                              f"got {raw!r}")
        if key == "permutation":
            try:
                perms.append(tuple(int(x) for x in value.split()))
            except ValueError:
                raise LayoutError(f"line {lineno}: permutation entries must "
                                  f"be integers, got {value!r}") from None
        elif key in _FLOAT_KEYS:
            try:
                params[key] = float(value)
            except ValueError:
                raise LayoutError(f"line {lineno}: {key} must be a number, "
                                  f"got {value!r}") from None
        elif key == "reward_on":
            params[key] = value
        else:
            raise LayoutError(f"line {lineno}: unknown key {key!r}")
    if not grid_rows:
        raise LayoutError("no tile rows found")
    if perms:
        params["permutations"] = tuple(perms)
    return GridworldConfig(width=len(grid_rows[0]), height=len(grid_rows),
                           tiles=tuple(grid_rows), **params)


def format_layout(config: GridworldConfig) -> str:
    lines = list(config.tiles)
    lines.append("")
    for key in _FLOAT_KEYS:
        lines.append(f"{key} = {getattr(config, key)!r}")
    lines.append(f"reward_on = {config.reward_on}")
    lines.append("")
    for sigma in config.permutations:
        lines.append("permutation = " + " ".join(str(x) for x in sigma))
    return "\n".join(lines) + "\n"


def load_layout(path) -> GridworldConfig:
    return parse_layout(Path(path).read_text())


def benchmark_config() -> GridworldConfig:
    """The layout shipped with the package (see data/benchmark.grid)."""
    return parse_layout(
        files("mdpbandit.data").joinpath("benchmark.grid").read_text())


def build_gridworld(config: GridworldConfig) -> FiniteMdp:
    H, W = config.height, config.width
    S = H * W
    A = 4
    P = np.zeros((S, A, S))
    for r in range(H):
        for c in range(W):
            s = r * W + c
            tile = config.tiles[r][c]
            in_dirs = [d for d in range(A)
                       if 0 <= r + _STEPS[d][0] < H
                       and 0 <= c + _STEPS[d][1] < W]
            for a in range(A):
                mass = [0.0] * A
                if tile == "T":
                    stay = 1.0 - config.p_escape
                    mass[a] = config.p_escape
                else:
                    stay = 0.0
                    for d in range(A):
                        mass[d] = 1.0 - config.p_slip if d == a \
                            else config.p_slip / 3.0
                # off-grid movement comes back in a random in-grid direction
                off = sum(mass[d] for d in range(A) if d not in in_dirs)
                share = off / len(in_dirs)
                P[s, a, s] += stay
                for d in in_dirs:
                    nr, nc = r + _STEPS[d][0], c + _STEPS[d][1]
                    P[s, a, nr * W + nc] += mass[d] + share

    r_cell = np.array([config.tile_reward(ch)
                       for row in config.tiles for ch in row])
    if config.reward_on == "destination":
        table = np.broadcast_to(r_cell, (S, A, S)).copy()
    else:
        table = np.broadcast_to(r_cell[:, None, None], (S, A, S)).copy()
    values, probs = deterministic_reward(table)

    initial = np.zeros(S)
    initial[config.start_state()] = 1.0
    return FiniteMdp(n_states=S, n_actions=A, transition=P,
                     reward_values=values, reward_probs=probs,
                     initial_dist=initial)


def permute_actions(mdp: FiniteMdp, permutation) -> FiniteMdp:
    """Relabel actions: P'(s, a, s') = P(s, sigma(a), s'), rewards alike."""
    sigma = list(permutation)
    if sorted(sigma) != list(range(mdp.n_actions)):
        raise ValueError(f"{permutation} is not a bijection on "
                         f"{mdp.n_actions} actions")
    return FiniteMdp(n_states=mdp.n_states, n_actions=mdp.n_actions,
                     transition=mdp.transition[:, sigma, :],
                     reward_values=mdp.reward_values[:, sigma],
                     reward_probs=mdp.reward_probs[:, sigma],
                     initial_dist=mdp.initial_dist)


def train_expert(mdp: FiniteMdp, discount: float = 0.95,
                 expert_id: int = 0) -> ExpertPolicy:
    """Discounted policy iteration on mean rewards, greedy extraction.

    Each policy is evaluated exactly by one linear solve.  A state moves
    only to a strictly better action, so only float rounding could bring a
    policy back; the loop stops at the first repeat.  Ties in the final
    greedy step go to the lowest action index.
    """
    if not 0.0 < discount < 1.0:
        raise ValueError(f"discount must be in (0, 1), got {discount}")
    P = mdp.transition
    r_sa = np.einsum("saj,saj->sa", P, mdp.mean_reward())
    states = np.arange(mdp.n_states)
    actions = np.zeros(mdp.n_states, dtype=int)
    seen = set()
    while actions.tobytes() not in seen:
        seen.add(actions.tobytes())
        P_pi, r_pi = P[states, actions], r_sa[states, actions]
        v = np.linalg.solve(np.eye(mdp.n_states) - discount * P_pi, r_pi)
        q = r_sa + discount * (P @ v)
        greedy = q.argmax(axis=1)
        actions = np.where(q[states, greedy] > q[states, actions], greedy,
                           actions)
    pi = np.zeros((mdp.n_states, mdp.n_actions))
    pi[states, greedy] = 1.0
    return ExpertPolicy(policy=pi, expert_id=expert_id)


def build_experts(mdp: FiniteMdp, config: GridworldConfig):
    """One expert per configured permutation, trained on its own permuted
    view of the dynamics and deployed on the true ones."""
    return [train_expert(permute_actions(mdp, sigma), expert_id=j)
            for j, sigma in enumerate(config.permutations)]


def canonical_experiments(out_dir: str = "experiments"):
    """The benchmark's standard runs: a T0 sweep and a perturbation run.

    Sweep: T0 in {4, 16, 64}, c = 0.1, 5000 iterations, seeds 0..9.
    Perturbation: T0 = 4, 10000 iterations, dynamics re-permuted by
    (1, 0, 2, 3) at iteration 5000 so a different expert becomes best.
    """
    from .experiment import ExperimentSpec
    out = str(out_dir)
    specs = []
    for t0 in DEFAULT_T0_SWEEP:
        specs.append(ExperimentSpec(
            label=f"sweep-t0-{t0}", t0=t0, c=0.1, iterations=5000,
            seeds=list(range(10)), events=[],
            out=f"{out}/t0_{t0}"))
    specs.append(ExperimentSpec(
        label="perturbation", t0=4, c=0.1, iterations=10000,
        seeds=list(range(10)),
        events=[{"iteration": BENCHMARK_EVENT_ITERATION,
                 "permutation": list(BENCHMARK_EVENT_PERMUTATION)}],
        out=f"{out}/perturbation"))
    return specs
