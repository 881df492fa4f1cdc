"""Finite MDP representation, validation, seeded expert rollouts, and the
package's file formats (MDP and policy JSON, and the one CSV writer).

The simulator is the inner loop of everything else in this package, so the
sampling path is deliberately plain Python over precomputed cumulative rows,
which benchmarks far faster than any vectorized per-step alternative for the
short horizons we run.  Per draw it tests one interval and bisects only when
the draw falls outside it (see below).

RNG stream contract (what a seeded rollout of T steps consumes): T * d
uniforms, d = 1 plus one per stochastic source (policy, reward kernel),
read step by step as (action draw, transition draw, reward draw), whether
or not the rollout records; a deterministic source reads 0.0 instead,
which picks the one entry of its row [1.0].  A source is deterministic when
each row has exactly one positive entry (_point_masses), whatever its value.
bandit.run_mab draws these values ahead, a few thousand at a time, which
is the same stream: a run uses the same values in the same order, but the
caller's generator may end past the last value the run used.

The sampler keeps each row on its positive entries only.  Per MDP, built
on first use and shared by its experts, each (s, a) row holds the next
states, their cumulative mass and their reward rows, each reward row on its
support points of positive probability.  Per (MDP, expert), a stepper holds,
for each state, the policy's cumulative row over the actions it takes and
those actions' MDP rows; a deterministic policy has the row [1.0].  These
rows draw what full rows would: bisect_right returns the first entry whose
cumulative mass exceeds u, and a zero-mass entry repeats the value before
it, so that entry has positive mass unless u lies past the last positive
entry, which _cdf pins to exactly 1.0 > u.

Each row the walk reads also carries the interval [lo, hi) = [cum[k-1],
cum[k]) of its widest outcome k, cum[-1] read as 0.0, and the walk tests
lo <= u < hi before it bisects.  On a compact row bisect_right(cum, u)
returns k exactly when cum[k-1] <= u < cum[k], so a hit picks the outcome
the bisect would pick and a miss runs the bisect: the test changes no
draw's outcome, and no output byte.  The MDP's transition and reward rows
get their intervals once, with the rows; a stepper adds its action rows'.
The bench rows are lopsided (a normal cell moves the intended way with
probability 0.97), so most draws hit.  The fast path keeps a split layout:
per state a 4-field hot row (lo, hi, next state, reward), and the full
row, read only on a miss.

_Stepper.walk has a fast step loop for a deterministic policy with
deterministic rewards and a general one for every other case; only a
fast-path stepper builds the split layout.  run_expert walks, or with
record=True runs a recording loop that bisects every draw, on the same
draws, and returns a Trajectory of the states, actions and rewards, so the
record flag never shifts what a seeded run draws.

The MDP's rows are cached on the instance.  A stepper costs little next
to them and is not cached: run_expert builds one per call and
bandit.run_mab one per (MDP, expert) before its first draw, so a policy
edited between runs is sampled as edited.  Building the rows runs
validate_mdp and building a stepper runs validate_policy; either raises
ValueError.
"""

from __future__ import annotations

import json
import numbers
import os
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

__all__ = [
    "FiniteMdp",
    "ExpertPolicy",
    "Trajectory",
    "deterministic_reward",
    "validate_mdp",
    "run_expert",
    "sample_initial_state",
    "save_mdp",
    "load_mdp",
    "save_policy",
    "load_policy",
    "load_policies",
    "csv_text",
    "write_csv",
]

_ATOL = 1e-9  # stochasticity tolerance shared by all row checks


@dataclass
class FiniteMdp:
    """Finite MDP (S, A, P, R, mu0), a discrete reward law per (s, a, s').

    reward_values / reward_probs have shape (S, A, S, V): support points in
    [0, 1] and their probabilities.  Deterministic rewards are the V = 1
    special case, see :func:`deterministic_reward`.  Instances are treated
    as immutable after construction; the sampler caches the MDP's rows on
    the instance (_rows), and dataclasses.replace starts the copy without
    them.
    """

    n_states: int
    n_actions: int
    transition: np.ndarray          # (S, A, S)
    reward_values: np.ndarray       # (S, A, S, V)
    reward_probs: np.ndarray        # (S, A, S, V)
    initial_dist: np.ndarray        # (S,)

    @cached_property
    def _rows(self) -> list:
        """The sampler's rows (see _mdp_rows), built on first use."""
        return _mdp_rows(self)

    def mean_reward(self) -> np.ndarray:
        """Expected reward per (s, a, s'), shape (S, A, S)."""
        return (self.reward_values * self.reward_probs).sum(axis=-1)


@dataclass
class ExpertPolicy:
    """Stationary stochastic policy pi(s, a), shape (S, A)."""

    policy: np.ndarray
    expert_id: int = 0


@dataclass
class Trajectory:
    states: np.ndarray   # length T + 1, final state recorded
    actions: np.ndarray  # length T
    rewards: np.ndarray  # length T, each in [0, 1]


def deterministic_reward(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wrap a (S, A, S) reward table as a single-support distribution."""
    table = np.asarray(table, dtype=float)
    return table[..., None].copy(), np.ones(table.shape + (1,))


def validate_mdp(mdp: FiniteMdp) -> list[str]:
    """Return every stochasticity violation with indices; empty means valid."""
    bad = [f"non-finite entries in the {name}" for name, arr in (
        ("transition", mdp.transition), ("reward values", mdp.reward_values),
        ("reward probabilities", mdp.reward_probs),
        ("initial distribution", mdp.initial_dist))
        if not np.isfinite(arr).all()]
    P = mdp.transition
    if P.shape != (mdp.n_states, mdp.n_actions, mdp.n_states):
        bad.append(f"transition shape {P.shape} does not match "
                   f"({mdp.n_states}, {mdp.n_actions}, {mdp.n_states})")
        return bad  # index checks below assume consistent shapes
    for s, a, t in zip(*np.where(P < 0)):
        bad.append(f"negative transition entry P({s},{a},{t}) = {P[s, a, t]}")
    sums = P.sum(axis=2)
    for s, a in zip(*np.where(np.abs(sums - 1.0) > _ATOL)):
        bad.append(f"transition row sum {sums[s, a]} at (s={s}, a={a}), expected 1")

    rv, rp = mdp.reward_values, mdp.reward_probs
    if rv.shape != rp.shape or rv.shape[:3] != P.shape:
        bad.append(f"reward table shapes {rv.shape} / {rp.shape} inconsistent "
                   f"with transition shape {P.shape}")
        return bad
    psums = rp.sum(axis=-1)
    for s, a, t in zip(*np.where(np.abs(psums - 1.0) > _ATOL)):
        bad.append(f"reward probabilities sum {psums[s, a, t]} at "
                   f"(s={s}, a={a}, s'={t}), expected 1")
    off = (rv < 0) | (rv > 1)
    for s, a, t, v in zip(*np.where(off)):
        bad.append(f"reward support value {rv[s, a, t, v]} outside [0, 1] at "
                   f"(s={s}, a={a}, s'={t})")
    for s, a, t, v in zip(*np.where(rp < 0)):
        bad.append(f"negative reward probability at (s={s}, a={a}, s'={t})")

    mu0 = mdp.initial_dist
    if mu0.shape != (mdp.n_states,):
        bad.append(f"initial distribution shape {mu0.shape} does not match "
                   f"({mdp.n_states},)")
        return bad
    for (s,) in zip(*np.where(mu0 < 0)):
        bad.append(f"negative initial distribution entry mu0({s}) = {mu0[s]}")
    if abs(float(mu0.sum()) - 1.0) > _ATOL:
        bad.append(f"initial distribution sum {float(mu0.sum())}, expected 1")
    return bad


def validate_policy(policy: ExpertPolicy, mdp: FiniteMdp) -> list[str]:
    pi = policy.policy
    bad = []
    if pi.shape != (mdp.n_states, mdp.n_actions):
        return [f"policy shape {pi.shape} does not match "
                f"({mdp.n_states}, {mdp.n_actions})"]
    if not np.isfinite(pi).all():
        bad.append("non-finite policy entries")
    if (pi < 0).any() or (pi > 1).any():
        bad.append("policy entries outside [0, 1]")
    rows = pi.sum(axis=1)
    for (s,) in zip(*np.where(np.abs(rows - 1.0) > _ATOL)):
        bad.append(f"policy row sum {rows[s]} at s={s}, expected 1")
    return bad


def _is_int(value) -> bool:
    """The integer rule for every file field: JSON true/false are not 1/0."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _int_field(doc: dict, key: str) -> int:
    value = doc[key]
    if not _is_int(value):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative rows over the last axis, to draw from by bisect_right.

    bisect_right(row, u) is the first index whose cumulative mass exceeds u.
    An index with zero mass repeats the entry before it, so it can only be
    drawn past the last index with positive mass, when a float cumsum stops
    short of 1 (ten 0.1s sum to 0.9999999999999999) and u lands in the gap;
    Generator.random returns values up to the largest double below 1.  That
    entry and every entry after it are therefore set to exactly 1.0.
    """
    probs = np.asarray(probs, dtype=float)
    cdf = np.cumsum(probs, axis=-1)
    width = probs.shape[-1]
    last = width - 1 - np.argmax(probs[..., ::-1] > 0, axis=-1)
    cdf[np.arange(width) >= last[..., None]] = 1.0
    return cdf


def _row(cum: list, *items) -> tuple:
    """(lo, hi, k, cum, *items), where [lo, hi) = [cum[k-1], cum[k]) is the
    widest interval of the cumulative row cum, cum[-1] read as 0.0; k is
    the lowest on ties."""
    widths = [hi - lo for lo, hi in zip([0.0, *cum], cum)]
    k = widths.index(max(widths))
    return (cum[k - 1] if k else 0.0), cum[k], k, cum, *items


def _compact(probs: np.ndarray, items: list) -> list:
    """_row(cumulative mass, items) of each row of probs, on its positive
    entries only."""
    keep = (probs > 0).tolist()
    return [_row(cum, xs) if all(ks) else _row(
        [c for c, k in zip(cum, ks) if k], [x for x, k in zip(xs, ks) if k])
        for cum, xs, ks in zip(_cdf(probs).tolist(), items, keep)]


def _point_masses(probs: np.ndarray) -> np.ndarray:
    """Whether each row over the last axis has exactly one positive entry,
    which makes it a point mass on its argmax, sampled without a draw."""
    return np.count_nonzero(probs > 0, axis=-1) == 1


def _mdp_rows(mdp: FiniteMdp) -> list:
    """rows[s][a] = _row(cumulative mass, next states, reward rows, a),
    where a reward row is _row(cumulative mass, values)."""
    bad = validate_mdp(mdp)
    if bad:
        raise ValueError("invalid MDP: " + "; ".join(bad))
    P = mdp.transition
    idx = np.nonzero(P > 0)
    rows = [[([], [], []) for _ in range(mdp.n_actions)]
            for _ in range(mdp.n_states)]
    rewards = _compact(mdp.reward_probs[idx], mdp.reward_values[idx].tolist())
    for s, a, j, c, r in zip(*(i.tolist() for i in idx),
                             _cdf(P)[idx].tolist(), rewards):
        cum, nxt, rew = rows[s][a]
        cum.append(c)
        nxt.append(j)
        rew.append(r)
    return [[_row(cum, nxt, rew, a) for a, (cum, nxt, rew) in enumerate(row)]
            for row in rows]


class _Stepper:
    """One expert's sampler on one MDP.

    rows[s] is (lo, hi, j, cumulative mass, MDP rows) over the actions taken
    in s, each MDP row (lo, hi, k, cumulative mass, next states, reward
    rows, a) and each reward row (lo, hi, v, cumulative mass, values);
    (lo, hi, index) is a row's widest interval (_row).  A deterministic
    source has the row [1.0], whose interval [0.0, 1.0) holds the 0.0 it
    reads; for a deterministic policy that row holds the argmax action.
    With a deterministic policy and deterministic rewards (the fast path)
    the walk reads hot and flat instead: hot[s] is (lo, hi, next state,
    reward) of the widest outcome of the one action's row and flat[s] is
    that row, (cumulative mass, next states, rewards).  Otherwise hot and
    flat are None."""

    __slots__ = ("stoch_pol", "stoch_rew", "width", "rows", "flat", "hot")

    def __init__(self, mdp: FiniteMdp, policy: ExpertPolicy):
        bad = validate_policy(policy, mdp)
        if bad:
            raise ValueError("invalid policy: " + "; ".join(bad))
        pi = policy.policy
        # a policy or reward row with exactly one positive entry is a point
        # mass on its argmax, whatever the entry's value; others are drawn
        self.stoch_pol = not _point_masses(pi).all()
        self.stoch_rew = not _point_masses(mdp.reward_probs).all()
        self.width = 1 + self.stoch_pol + self.stoch_rew   # uniforms a step
        self.rows = _compact(pi, mdp._rows) if self.stoch_pol else [
            (0.0, 1.0, 0, [1.0], [row[a]])
            for row, a in zip(mdp._rows, pi.argmax(axis=1).tolist())]
        if self.stoch_pol or self.stoch_rew:
            self.flat = self.hot = None
            return
        self.flat, self.hot = [], []
        for _, _, _, _, ((lo, hi, k, cum, nxt, rew, _),) in self.rows:
            rewards = [row[-1][0] for row in rew]
            self.flat.append((cum, nxt, rewards))
            self.hot.append((lo, hi, nxt[k], rewards[k]))

    def draws(self, uniforms: list):
        """The (action, transition, reward) draw of each step; a
        deterministic source reads 0.0, which picks the one entry of its
        row [1.0]."""
        it = iter(uniforms)
        return zip(it if self.stoch_pol else repeat(0.0), it,
                   it if self.stoch_rew else repeat(0.0))

    def walk(self, s: int, uniforms: list) -> tuple:
        """Step from s on uniforms, width of them a step; returns (total
        reward, final state).  Each draw u is tested against its row's
        widest interval first, and bisected only when it falls outside."""
        total = 0.0
        if self.hot is not None:
            # fast path: deterministic policy and rewards, one uniform a step
            hot, flat = self.hot, self.flat
            for x in uniforms:
                lo, hi, t, r = hot[s]
                if lo <= x < hi:
                    total += r
                    s = t
                else:
                    cum, nxt, rew = flat[s]
                    k = bisect_right(cum, x)
                    total += rew[k]
                    s = nxt[k]
            return total, s
        rows = self.rows
        for xa, xt, xr in self.draws(uniforms):
            lo, hi, j, acum, arows = rows[s]
            if not lo <= xa < hi:
                j = bisect_right(acum, xa)
            lo, hi, k, cum, nxt, rew, _ = arows[j]
            if not lo <= xt < hi:
                k = bisect_right(cum, xt)
            lo, hi, v, rcum, rvals = rew[k]
            if not lo <= xr < hi:
                v = bisect_right(rcum, xr)
            total += rvals[v]
            s = nxt[k]
        return total, s


def run_expert(mdp: FiniteMdp, policy: ExpertPolicy, s0: int, T: int,
               rng: np.random.Generator, record: bool = True):
    """Run one expert for T steps from s0; returns (avg_reward, final_state, trajectory).

    avg_reward is the per-step mean, the R_k fed to the selector.  With
    record=False the trajectory is None but the consumed RNG stream is
    identical, so logs with and without trajectories replay bit for bit.
    An MDP or policy that fails validation raises ValueError.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not 0 <= s0 < mdp.n_states:
        raise ValueError(f"invalid state index {s0} for {mdp.n_states} states")
    stepper = _Stepper(mdp, policy)
    uniforms = rng.random(T * stepper.width).tolist()
    if not record:
        total, s = stepper.walk(s0, uniforms)
        return total / T, s, None

    total, s = 0.0, s0
    states, actions, rewards = [s0], [], []
    for xa, xt, xr in stepper.draws(uniforms):
        *_, acum, arows = stepper.rows[s]
        *_, cum, nxt, rew, a = arows[bisect_right(acum, xa)]
        k = bisect_right(cum, xt)
        *_, rcum, rvals = rew[k]
        r = rvals[bisect_right(rcum, xr)]
        total += r
        s = nxt[k]
        states.append(s)
        actions.append(a)
        rewards.append(r)
    return total / T, s, Trajectory(
        states=np.asarray(states), actions=np.asarray(actions),
        rewards=np.asarray(rewards))


def sample_initial_state(mdp: FiniteMdp, rng: np.random.Generator) -> int:
    """Draw s0 from mu0.  A law with exactly one positive entry
    (_point_masses) is read off without consuming RNG."""
    mu0 = mdp.initial_dist
    if _point_masses(mu0):
        return int(mu0.argmax())
    return bisect_right(_cdf(mu0).tolist(), float(rng.random()))


# ---------------------------------------------------------------------------
# file formats.  Every CSV file the package writes goes through write_csv.

def _csv_lines(header, rows, comments):
    yield from (f"# {line}\n" for line in comments)
    yield ",".join(header) + "\n"
    template = ",".join(["%s"] * len(header)) + "\n"
    for row in rows:
        yield template % tuple(row)


def csv_text(header, rows, comments=()) -> str:
    """'# ' comment lines, the header, then one line per row.

    Values are written with str() (the %s of the row template), one per
    header column; callers pass Python scalars (tolist()), so a float is
    written as its shortest repr and reads back exactly.
    """
    return "".join(_csv_lines(header, rows, comments))


def write_csv(path, header, rows, comments=()) -> None:
    """Stream csv_text's lines into a sibling .tmp file, then replace path
    with it, so a reader never sees a partly written file; a write that
    fails removes the .tmp file and leaves path as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            fh.writelines(_csv_lines(header, rows, comments))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


# MDPs are JSON with keys
#   states, actions, transition, reward, initial
# reward is {"values": nested S x A x S x V, "probs": same shape}.  Floats
# serialize through repr so load(save(m)) reproduces every array bit for bit.
# The loaders accept exactly the keys the savers write, and in an MDP file
# also the legacy observation keys of older files, read and ignored whatever
# their value: the model is fully observed.

_MDP_KEYS = {"states", "actions", "transition", "reward", "initial",
             "observations", "observation_kernel"}
_REWARD_KEYS = {"values", "probs"}
_POLICY_KEYS = {"expert_id", "policy"}


def _reject_unknown(path, doc, known: set) -> None:
    """Raise ValueError naming the keys of a JSON object outside known;
    any other value is left to the field checks."""
    if isinstance(doc, dict) and doc.keys() - known:
        raise ValueError(f"{path}: unknown keys {sorted(doc.keys() - known)}")


def _read_json(path, known: set):
    """The JSON document in path; see _reject_unknown."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    _reject_unknown(path, doc, known)
    return doc


def _to_jsonable(mdp: FiniteMdp) -> dict:
    return {
        "states": mdp.n_states,
        "actions": mdp.n_actions,
        "transition": mdp.transition.tolist(),
        "reward": {"values": mdp.reward_values.tolist(),
                   "probs": mdp.reward_probs.tolist()},
        "initial": mdp.initial_dist.tolist(),
    }


def save_mdp(mdp: FiniteMdp, path) -> None:
    Path(path).write_text(json.dumps(_to_jsonable(mdp), indent=1) + "\n")


def load_mdp(path) -> FiniteMdp:
    doc = _read_json(path, _MDP_KEYS)
    try:
        _reject_unknown(path, doc["reward"], _REWARD_KEYS)
        mdp = FiniteMdp(
            n_states=_int_field(doc, "states"),
            n_actions=_int_field(doc, "actions"),
            transition=np.asarray(doc["transition"], dtype=float),
            reward_values=np.asarray(doc["reward"]["values"], dtype=float),
            reward_probs=np.asarray(doc["reward"]["probs"], dtype=float),
            initial_dist=np.asarray(doc["initial"], dtype=float),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: missing or malformed field ({exc})") from exc
    bad = validate_mdp(mdp)
    if bad:
        raise ValueError(f"{path}: invalid MDP: " + "; ".join(bad[:5]))
    return mdp


def save_policy(policy: ExpertPolicy, path) -> None:
    doc = {"expert_id": policy.expert_id, "policy": policy.policy.tolist()}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_policy(path) -> ExpertPolicy:
    doc = _read_json(path, _POLICY_KEYS)
    try:
        return ExpertPolicy(policy=np.asarray(doc["policy"], dtype=float),
                            expert_id=_int_field(doc, "expert_id"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: missing or malformed field ({exc})") from exc


def load_policies(paths, mdp: FiniteMdp) -> list:
    """load_policy for each path; a policy validate_policy rejects against
    mdp, or an expert_id an earlier file holds, raises ValueError naming
    the file (and that earlier file)."""
    policies, seen = [], {}
    for path in paths:
        policy = load_policy(path)
        bad = validate_policy(policy, mdp)
        if bad:
            raise ValueError(f"{path}: invalid policy: " + "; ".join(bad))
        if policy.expert_id in seen:
            raise ValueError(f"{path}: expert_id {policy.expert_id} is also "
                             f"the expert_id of {seen[policy.expert_id]}")
        seen[policy.expert_id] = path
        policies.append(policy)
    return policies
