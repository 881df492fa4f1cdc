"""Finite MDP representation, validation, seeded expert rollouts, and the
package's file formats (MDP and policy JSON, and the one CSV writer).

The simulator is the inner loop of everything else in this package, so the
sampling path is deliberately plain Python over precomputed rows, which
benchmarks far faster than any vectorized per-step alternative for the
short horizons we run.

RNG stream contract (what a seeded rollout of T steps consumes): T
uniforms, one a step, whether or not the rollout records.  Each picks the
step's action, next state and reward at once.  bandit.run_mab draws these
values ahead, a few thousand at a time, which is the same stream: a run
uses the same values in the same order, but the caller's generator may
end past the last value the run used.

The sampler draws from compact rows, kept on their positive entries only;
_compact builds every one of them.  Per (MDP, expert), a stepper holds
one joint row per state s over the outcomes (a, s', v), in that order,
each of mass pi(a|s) P(s'|s,a) q(v|s,a,s') (_joint_masses); a policy or
reward row with exactly one positive entry (_point_masses) counts as
exactly 1.0 there, whatever its value.  A row's marginal on s' is, up
to rounding, the induced chain's kernel that chains.induced_chain
certifies.  sample_initial_state draws from the initial law's row, or
reads a point mass off without a draw.  run_expert walks the joint rows
by bisect_right, one bisect a step.

bandit.run_mab walks by table lookup instead (_tabulate), on one kind of
table.  Its cut points are every cumulative mass below 1.0 of its
steppers' rows, and each block of uniforms is binned once, in numpy, to
the codes c = bisect_right(cuts, u).  A row's cumulative masses are among
the cuts, so bisect_right(row, u) depends on u only through c, and each
row becomes a table indexed by c that gives the row's outcome, (next
state, reward): the draw picks the outcome a bisect would pick, and
every expert walks s, r = tab[s][c].  A run whose tables would hold more
than _TABLE_CAP entries (rows x codes) builds none and walks by bisect on
the uniforms themselves, on the same draws.

Nothing is cached: run_expert builds a stepper per call and bandit.run_mab
one per (MDP, expert) before its first draw, so a policy edited between
runs is sampled as edited.  A FiniteMdp holds read-only arrays and is
checked once, when it is built, a pickled copy included, and
validate_policy checks a policy wherever it meets an MDP; either raises
ValueError.
"""

from __future__ import annotations

import json
import numbers
import os
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

__all__ = [
    "FiniteMdp",
    "ExpertPolicy",
    "Trajectory",
    "deterministic_reward",
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


@dataclass(frozen=True)
class FiniteMdp:
    """Finite MDP (S, A, P, R, mu0), a discrete reward law per (s, a, s').

    reward_values / reward_probs have shape (S, A, S, V): support points in
    [0, 1] and their probabilities.  Deterministic rewards are the V = 1
    special case, see :func:`deterministic_reward`.  An instance holds
    read-only float copies of its arrays, so an in-place edit raises
    ValueError.  Building one checks it, and an invalid MDP raises
    ValueError; dataclasses.replace and unpickling build a new MDP, so a
    copy is checked and read-only too.
    """

    n_states: int
    n_actions: int
    transition: np.ndarray          # (S, A, S)
    reward_values: np.ndarray       # (S, A, S, V)
    reward_probs: np.ndarray        # (S, A, S, V)
    initial_dist: np.ndarray        # (S,)

    def __post_init__(self):
        for name in ("transition", "reward_values", "reward_probs",
                     "initial_dist"):
            try:
                values = np.array(getattr(self, name), dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{name}: {exc}") from None
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        bad = _mdp_errors(self)
        if bad:
            raise ValueError("invalid MDP: " + "; ".join(bad[:5]))

    def __reduce__(self):
        # a copy, such as a worker's, is built, and so checked, again
        return type(self), (self.n_states, self.n_actions, self.transition,
                            self.reward_values, self.reward_probs,
                            self.initial_dist)

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


def _mdp_errors(mdp: FiniteMdp) -> list[str]:
    """Every violation of mdp's counts and stochasticity violation of its
    arrays, with indices."""
    counts = [f"{name} must be an integer >= 1, got {count!r}"
              for name, count in (("n_states", mdp.n_states),
                                  ("n_actions", mdp.n_actions))
              if not (_is_int(count) and count >= 1)]
    bad = counts + [f"non-finite entries in the {name}" for name, arr in (
        ("transition", mdp.transition), ("reward values", mdp.reward_values),
        ("reward probabilities", mdp.reward_probs),
        ("initial distribution", mdp.initial_dist))
        if not np.isfinite(arr).all()]
    if counts:
        return bad  # the shape checks below compare against the counts
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


def validate_policy(policy: ExpertPolicy, mdp: FiniteMdp) -> None:
    """Raise ValueError unless policy is stochastic on mdp's (S, A)."""
    pi = policy.policy
    if pi.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(f"invalid policy: policy shape {pi.shape} does not "
                         f"match ({mdp.n_states}, {mdp.n_actions})")
    bad = []
    if not np.isfinite(pi).all():
        bad.append("non-finite policy entries")
    if (pi < 0).any() or (pi > 1).any():
        bad.append("policy entries outside [0, 1]")
    rows = pi.sum(axis=1)
    for (s,) in zip(*np.where(np.abs(rows - 1.0) > _ATOL)):
        bad.append(f"policy row sum {rows[s]} at s={s}, expected 1")
    if bad:
        raise ValueError("invalid policy: " + "; ".join(bad))


def _is_int(value) -> bool:
    """The integer rule for every file field: JSON true/false are not 1/0."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _int_field(doc: dict, key: str) -> int:
    value = doc[key]
    if not _is_int(value):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def _compact(mass: np.ndarray) -> tuple:
    """(row, col, cum) over the positive entries of a 2-D array of masses,
    in row major order: cum is each row's float cumulative mass over them,
    summed left to right, with its last entry set to exactly 1.0.

    bisect_right over a row's cum picks the entry a bisect over the full
    row would: a zero-mass entry adds an exact 0.0 to the sum, and u may
    lie past a float sum that stops short of 1 (ten 0.1s sum to
    0.9999999999999999), as Generator.random returns values up to the
    largest double below 1.  A row with one positive entry is [1.0]."""
    row, col = np.nonzero(mass)
    cum = np.cumsum(mass, axis=1)[row, col]
    cum[np.diff(row, append=len(mass)) > 0] = 1.0
    return row, col, cum


def _point_masses(probs: np.ndarray) -> np.ndarray:
    """probs with each row over the last axis that has exactly one
    positive entry, a point mass on it whatever its value, set to exactly
    1.0 there."""
    one = np.count_nonzero(probs > 0, axis=-1) == 1
    return np.where(one[..., None], probs > 0, probs)


def _joint_masses(mdp: FiniteMdp, pi: np.ndarray) -> np.ndarray:
    """mass[s, (a, s', v)] = pi(a|s) P(s'|s,a) q(v|s,a,s'), shape (S, A S V),
    multiplied in that order, over _point_masses of the policy and reward
    rows."""
    return ((_point_masses(pi)[..., None] * mdp.transition)[..., None]
            * _point_masses(mdp.reward_probs)).reshape(mdp.n_states, -1)


class _Stepper:
    """One expert's sampler on one MDP.

    rows[s] is (cumulative mass, outcomes, actions): the compact joint row
    of state s over the outcomes (a, s', v) of positive _joint_masses, in
    that order, each outcome (next state, reward) and its action a.  tab is
    None, or the code tables _tabulate gives it: tab[s][c] is the outcome
    of row s at code c."""

    __slots__ = ("rows", "tab")

    def __init__(self, mdp: FiniteMdp, policy: ExpertPolicy):
        validate_policy(policy, mdp)
        S, V = mdp.n_states, mdp.reward_values.shape[-1]
        row, col, cum = _compact(_joint_masses(mdp, policy.policy))
        rewards = mdp.reward_values.reshape(S, -1)[row, col]
        outcomes = list(zip((col // V % S).tolist(), rewards.tolist()))
        actions = (col // (S * V)).tolist()
        ends = np.cumsum(np.bincount(row, minlength=S)).tolist()
        cum = cum.tolist()
        self.rows = [(cum[lo:hi], outcomes[lo:hi], actions[lo:hi])
                     for lo, hi in zip([0] + ends, ends)]
        self.tab = None

    def walk(self, s: int, draws: list, trail: list | None = None) -> tuple:
        """Step from s on draws, one a step; returns (total reward, final
        state).  Without tables the draws are uniforms, each bisected in
        its row, and trail, if given, gets (next state, action, reward) of
        each step; with tables they are codes, each looked up."""
        total = 0.0
        tab = self.tab
        if tab is None:
            rows = self.rows
            for u in draws:
                cum, outcomes, actions = rows[s]
                k = bisect_right(cum, u)
                s, r = outcomes[k]
                total += r
                if trail is not None:
                    trail.append((s, actions[k], r))
        else:
            for c in draws:
                s, r = tab[s][c]
                total += r
        return total, s


_TABLE_CAP = 2**20    # table entries (rows x codes) past which a run bisects
_BUCKET_BITS = 14     # the binner's buckets split [0, 1) in 2**14 parts


def _tabulate(steppers: list):
    """Give each stepper its code tables and return the binner, which maps
    a float array of uniforms to the sequence of their codes.  When the
    tables would hold more than _TABLE_CAP entries it builds none and
    returns np.ndarray.tolist: the steppers walk the uniforms by bisect.

    The cuts are every cumulative mass below 1.0 of the steppers' rows;
    code c covers the u with bisect_right(cuts, u) == c.  The outcome a row
    gives at c, the number of its masses at or below each such u, is
    counted in numpy for every row at once, and the tables are gathered
    from an object array of the outcomes.  A mass of 1.0 is no cut, as
    u < 1.0, so a row with one positive entry gives that entry at every
    code."""
    rows = [row for st in steppers for row in st.rows]
    lens = np.fromiter((len(cum) for cum, _, _ in rows), np.intp, len(rows))
    flat = np.fromiter(chain.from_iterable(cum for cum, _, _ in rows), float,
                       lens.sum())
    # sorted without repeats; not np.unique, whose first call in a process
    # takes about 9 ms, nor a Python set, which takes a second a million
    cuts = np.sort(flat[flat < 1.0])
    cuts = cuts[np.diff(cuts, prepend=-1.0) > 0]
    n = len(cuts) + 1   # codes 0 ... len(cuts)
    if len(rows) * n > _TABLE_CAP:
        return np.ndarray.tolist
    # a mass counts from code col on; col n (a mass of 1.0) never does
    col = np.searchsorted(cuts, flat) + 1
    at = np.repeat(np.arange(len(rows)) * (n + 1), lens) + col
    # index[i, c]: the place in flat of the outcome row i gives at code c
    index = np.bincount(at, minlength=len(rows) * (n + 1)).reshape(
        -1, n + 1)[:, :n].cumsum(axis=1) + (lens.cumsum() - lens)[:, None]
    objects = np.fromiter(chain.from_iterable(
        outcomes for _, outcomes, _ in rows), object, len(flat))
    tabs = iter(objects[index].tolist())
    for st in steppers:
        st.tab = list(islice(tabs, len(st.rows)))
    return _binner(cuts)


def _binner(cuts: np.ndarray):
    """The function that maps a float array of uniforms in [0, 1) to the
    array of their codes bisect_right(cuts, u), cuts sorted.  It reads a
    code off a table of 2**14 equal buckets of [0, 1), exact as u * 2**14
    is, and bisects the cuts only for the u in a bucket that holds a cut
    inside it, where the code depends on u.  The codes come as an
    array.array, which a walk iterates as fast as a list and which takes
    a copy of the bytes to build, where a list takes a Python int each."""
    size = 2**_BUCKET_BITS
    edges = np.arange(size + 1) / size
    lo = np.searchsorted(cuts, edges[:-1], side="right")
    bucket = np.where(np.searchsorted(cuts, edges[1:]) > lo, -1, lo).astype(
        np.int64)

    def codes(uniforms: np.ndarray) -> array:
        c = bucket[(uniforms * size).astype(np.intp)]
        mixed = np.flatnonzero(c < 0)
        c[mixed] = np.searchsorted(cuts, uniforms[mixed], side="right")
        return array("q", c.tobytes())

    return codes


def run_expert(mdp: FiniteMdp, policy: ExpertPolicy, s0: int, T: int,
               rng: np.random.Generator, record: bool = True):
    """Run one expert for T steps from s0; returns (avg_reward, final_state, trajectory).

    avg_reward is the per-step mean, the R_k fed to the selector.  The
    rollout reads T uniforms and bisects each in the current state's joint
    row, one loop whether it records or not.  With record=False the
    trajectory is None but the consumed RNG stream is identical, so logs
    with and without trajectories replay bit for bit.  A policy that
    validate_policy rejects on mdp raises ValueError.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not 0 <= s0 < mdp.n_states:
        raise ValueError(f"invalid state index {s0} for {mdp.n_states} states")
    stepper = _Stepper(mdp, policy)
    trail = [] if record else None
    total, s = stepper.walk(s0, rng.random(T).tolist(), trail)
    if not record:
        return total / T, s, None
    states, actions, rewards = zip(*trail)
    return total / T, s, Trajectory(
        states=np.asarray((s0, *states)), actions=np.asarray(actions),
        rewards=np.asarray(rewards))


def sample_initial_state(mdp: FiniteMdp, rng: np.random.Generator) -> int:
    """Draw s0 from mu0's compact row.  A law with exactly one positive
    entry is read off without consuming RNG."""
    _, states, cum = _compact(mdp.initial_dist[None])
    return int(states[0] if len(cum) == 1 else
               states[bisect_right(cum.tolist(), rng.random())])


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


def _reject_unknown(doc, known: set) -> None:
    """Raise ValueError naming the keys of a JSON object outside known;
    any other value is left to the field checks."""
    if isinstance(doc, dict) and doc.keys() - known:
        raise ValueError(f"unknown keys {sorted(doc.keys() - known)}")


@contextmanager
def _reading(path, known: set):
    """Yield the JSON document in path (see _reject_unknown); an error in
    the block becomes a ValueError naming path."""
    try:
        doc = json.loads(Path(path).read_text())
        _reject_unknown(doc, known)
        yield doc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: missing or malformed field ({exc})")
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
    with _reading(path, _MDP_KEYS) as doc:
        _reject_unknown(doc["reward"], _REWARD_KEYS)
        return FiniteMdp(
            n_states=_int_field(doc, "states"),
            n_actions=_int_field(doc, "actions"),
            transition=doc["transition"],
            reward_values=doc["reward"]["values"],
            reward_probs=doc["reward"]["probs"],
            initial_dist=doc["initial"],
        )


def save_policy(policy: ExpertPolicy, path) -> None:
    doc = {"expert_id": policy.expert_id, "policy": policy.policy.tolist()}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_policy(path) -> ExpertPolicy:
    with _reading(path, _POLICY_KEYS) as doc:
        return ExpertPolicy(policy=np.asarray(doc["policy"], dtype=float),
                            expert_id=_int_field(doc, "expert_id"))


def load_policies(paths, mdp: FiniteMdp) -> list:
    """load_policy for each path; a policy validate_policy rejects against
    mdp, or an expert_id an earlier file holds, raises ValueError naming
    the file (and that earlier file)."""
    policies, seen = [], {}
    for path in paths:
        policy = load_policy(path)
        try:
            validate_policy(policy, mdp)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if policy.expert_id in seen:
            raise ValueError(f"{path}: expert_id {policy.expert_id} is also "
                             f"the expert_id of {seen[policy.expert_id]}")
        seen[policy.expert_id] = path
        policies.append(policy)
    return policies
