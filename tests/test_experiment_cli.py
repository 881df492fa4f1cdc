"""Experiment specs, the run/sweep pipeline, and the command line."""

import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures import Future
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdpbandit
from mdpbandit import chains, experiment
from mdpbandit import mdp as mdp_module
from mdpbandit.bandit import HorizonSchedule, RunLog
from mdpbandit.cli import main
from mdpbandit.experiment import (
    ExperimentSpec,
    load_spec,
    nominal_profiles,
    resolve_environment,
    run_spec,
    save_spec,
    sweep_spec,
)
from mdpbandit.gridworld import BENCHMARK_EVENT_PERMUTATION, load_layout, \
    permute_actions
from mdpbandit.mdp import ExpertPolicy, FiniteMdp, load_mdp, save_mdp, \
    save_policy
from mdpbandit.regret import ucb_regret_bounds
from oracles import log_linear_fit
from test_mdp import det_policy, make_mdp, mdp_fields, random_mdp, \
    write_mdp_doc

# tiny 1x2 gridworld; the sticky trap keeps the induced chain aperiodic
# (a plain "S." strip would be a deterministic 2-cycle), R_bar = 0.002/1.02
STRIP = "ST\n"


def strip_layout(tmp_path):
    p = tmp_path / "strip.grid"
    p.write_text(STRIP)
    return p


def tiny_spec(tmp_path, **kw):
    defaults = dict(label="tiny", t0=4, c=0.1, iterations=30,
                    seeds=[0, 1], out=str(tmp_path / "out"),
                    layout=str(strip_layout(tmp_path)))
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def identity_mdp_files(tmp_path):
    """A non-ergodic two-state environment on disk (self-loops only)."""
    mdp = make_mdp(np.eye(2)[:, None, :], np.zeros((2, 1, 2)))
    save_mdp(mdp, tmp_path / "m.json")
    save_policy(det_policy([0, 0], 1), tmp_path / "p.json")
    return tmp_path / "m.json", tmp_path / "p.json"


# ---------------------------------------------------------------------------
# specs


def test_spec_round_trip(tmp_path):
    spec = tiny_spec(tmp_path, events=[{"iteration": 10,
                                        "permutation": [1, 0, 2, 3]}])
    save_spec(spec, tmp_path / "spec.json")
    back = load_spec(tmp_path / "spec.json")
    assert back == spec


@st.composite
def specs(draw, base):
    """Valid specs with absolute paths (load_spec resolves relative ones)
    that name no files, so that loading needs nothing on disk."""
    seeds = st.integers(0, 2**63 - 1)
    events = st.fixed_dictionaries({"iteration": st.integers(1, 10**6),
                                    "permutation": st.permutations(range(4))})
    # quotes, escapes, non-ASCII and a lone surrogate in the label
    return ExperimentSpec(
        label=draw(st.text("a é\u2603\"\\\n\ud800")),
        t0=draw(st.integers(1, 10**6)), c=draw(st.floats(0.0, 1e6)),
        iterations=draw(st.integers(1, 10**9)),
        seeds=draw(st.lists(seeds, min_size=1, max_size=5, unique=True)),
        out=str(base / draw(st.text("abc_", min_size=1, max_size=8))),
        events=draw(st.lists(events, max_size=3)),
        bound_k=draw(st.floats(0.0, 1e6, exclude_min=True)))


@settings(max_examples=40)
@given(st.data())
def test_spec_save_load_round_trip(data):
    with tempfile.TemporaryDirectory() as tmp:
        spec = data.draw(specs(Path(tmp)))
        save_spec(spec, Path(tmp) / "spec.json")
        assert load_spec(Path(tmp) / "spec.json") == spec


def test_load_spec_resolves_relative_paths(tmp_path):
    strip_layout(tmp_path)
    doc = {"label": "rel", "t0": 4, "c": 0.1, "iterations": 5,
           "seeds": [0], "out": "results", "layout": "strip.grid"}
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    spec = load_spec(tmp_path / "spec.json")
    assert spec.layout == str(tmp_path / "strip.grid")
    assert spec.out == str(tmp_path / "results")


def test_load_spec_rejects_malformed_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_spec(bad)

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"label": "x", "t0": 4, "c": 0.1,
                                   "iterations": 5, "seeds": [0],
                                   "out": "o", "tzero": 9}))
    with pytest.raises(ValueError, match=r"unknown keys \['tzero'\]"):
        load_spec(unknown)

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"label": "x", "t0": 4}))
    with pytest.raises(ValueError, match="missing spec keys"):
        load_spec(missing)

    dangling = tmp_path / "dangling.json"
    dangling.write_text(json.dumps({"label": "x", "t0": 4, "c": 0.1,
                                    "iterations": 5, "seeds": [0], "out": "o",
                                    "layout": "nowhere.grid"}))
    with pytest.raises(ValueError, match="does not exist"):
        load_spec(dangling)


def test_spec_validation():
    with pytest.raises(ValueError, match="iterations"):
        ExperimentSpec(label="x", t0=4, c=0.1, iterations=0, seeds=[0], out="o")
    with pytest.raises(ValueError, match="seed"):
        ExperimentSpec(label="x", t0=4, c=0.1, iterations=5, seeds=[], out="o")
    with pytest.raises(ValueError, match="expert"):
        ExperimentSpec(label="x", t0=4, c=0.1, iterations=5, seeds=[0],
                       out="o", mdp="m.json")
    with pytest.raises(ValueError, match="event"):
        ExperimentSpec(label="x", t0=4, c=0.1, iterations=5, seeds=[0],
                       out="o", events=[{"permutation": [1, 0, 2, 3]}])
    with pytest.raises(ValueError, match="event"):
        ExperimentSpec(label="x", t0=4, c=0.1, iterations=5, seeds=[0],
                       out="o", events=[{"iteration": 3}])
    # a count past int64 named no field: "int too large to convert to float"
    for name in ("t0", "iterations"):
        for value in (2**63, 10**400):
            with pytest.raises(ValueError, match=f"^{name} is too large"):
                ExperimentSpec(**{"label": "x", "t0": 4, "c": 0.0,
                                  "iterations": 5, "seeds": [0], "out": "o",
                                  name: value})
        ExperimentSpec(**{"label": "x", "t0": 4, "c": 0.0, "iterations": 5,
                          "seeds": [0], "out": "o", name: 2**63 - 1})


# ---------------------------------------------------------------------------
# environment resolution


def test_resolve_environment_default_is_the_benchmark(tmp_path):
    spec = ExperimentSpec(label="d", t0=4, c=0.1, iterations=5, seeds=[0],
                          out=str(tmp_path / "o"))
    mdp, experts, events = resolve_environment(spec)
    assert mdp.n_states == 25
    assert len(experts) == 4
    assert events == []


def test_resolve_environment_from_layout(tmp_path):
    spec = tiny_spec(tmp_path)
    mdp, experts, events = resolve_environment(spec)
    assert mdp.n_states == 2
    assert len(experts) == 1


def test_resolve_environment_from_mdp_files(tmp_path):
    mdp_path, pol_path = identity_mdp_files(tmp_path)
    spec = ExperimentSpec(label="f", t0=4, c=0.1, iterations=5, seeds=[0],
                          out=str(tmp_path / "o"), mdp=str(mdp_path),
                          experts=[str(pol_path)])
    mdp, experts, _ = resolve_environment(spec)
    np.testing.assert_array_equal(mdp.transition[:, 0, :], np.eye(2))
    assert len(experts) == 1 and isinstance(experts[0], ExpertPolicy)


def test_resolve_environment_events_permute_the_original(tmp_path):
    sigma = [1, 0, 2, 3]
    spec = tiny_spec(tmp_path, events=[{"iteration": 3, "permutation": sigma},
                                       {"iteration": 6, "permutation": sigma}])
    mdp, _, events = resolve_environment(spec)
    assert [when for when, _ in events] == [3, 6]
    expected = permute_actions(mdp, sigma).transition
    # both events permute the pristine dynamics, not each other's output
    np.testing.assert_array_equal(events[0][1].transition, expected)
    np.testing.assert_array_equal(events[1][1].transition, expected)


def test_nominal_profiles_are_the_certified_steady_rewards(bench, certified):
    rbar = nominal_profiles(bench.mdp, bench.experts)
    assert all(type(r) is float for r in rbar)
    assert rbar == [p.steady_reward for p in certified[1]]
    e_star, deltas = chains.gaps(rbar)
    assert e_star == 0 and deltas[0] == 0.0
    assert all(deltas[1:] > 0.6)


def test_bound_k_reaches_the_selector_and_the_bound_column(bench, tmp_path):
    spec = ExperimentSpec(label="k", t0=16, c=0.1, iterations=40,
                          seeds=[0, 1], out=str(tmp_path), bound_k=3.5)
    with mock.patch.object(experiment, "ucb_selector",
                           wraps=experiment.ucb_selector) as selector:
        run_spec(spec)
    assert selector.call_args_list == [mock.call([3.5] * 4)] * 2
    *_, bound = read_aggregate(tmp_path / "aggregate.csv")
    assert bound[1:].tolist() == ucb_regret_bounds(
        [3.5] * 4, bench.rbar, HorizonSchedule(16, 0.1), range(1, 41)).tolist()


# ---------------------------------------------------------------------------
# run_spec


def read_aggregate(path):
    rows = np.genfromtxt(path, delimiter=",", skip_header=1)
    return rows[:, 0].astype(int), rows[:, 1], rows[:, 2], rows[:, 3]


def test_run_spec_writes_the_full_file_set(tmp_path):
    spec = tiny_spec(tmp_path, seeds=[0, 1, 5])
    summary = run_spec(spec)
    out = Path(spec.out)
    for s in (0, 1, 5):
        assert (out / f"runlog_seed{s}.csv").exists()
        assert (out / f"regret_seed{s}.csv").exists()
    log = RunLog.from_csv(out / "runlog_seed5.csv")
    assert len(log) == 30
    assert log.meta["seed"] == "5"

    n, mean, std, bound = read_aggregate(out / "aggregate.csv")
    assert len(n) == 31 and n[0] == 0 and n[-1] == 30
    assert bound[0] == 0.0
    assert np.isfinite(bound).all()
    # single expert: pure transient growth, starting from K/T0 = 2.0/4
    assert bound[1] == pytest.approx(0.5, abs=1e-12)
    assert (np.diff(bound[1:]) > 0).all()
    assert bound[-1] > 1.0

    rt = (out / "reward_time.csv").read_text().splitlines()
    assert rt[0] == "t,mean_cumulative_reward"
    assert len(rt) == 32

    assert summary["label"] == "tiny"
    assert summary["best_expert"] == 0
    assert summary["bound_status"] == "ok"
    assert summary["r_star"] == pytest.approx(0.002 / 1.02, abs=1e-8)
    assert summary["gaps"] == [0.0]
    assert summary["mean_final_regret"] == pytest.approx(float(mean[-1]),
                                                         abs=1e-9)


def test_run_spec_reruns_are_byte_identical(tmp_path):
    spec_a = tiny_spec(tmp_path, out=str(tmp_path / "a"))
    spec_b = replace(spec_a, out=str(tmp_path / "b"))
    run_spec(spec_a)
    run_spec(spec_b)
    for name in ("runlog_seed0.csv", "runlog_seed1.csv", "regret_seed0.csv",
                 "aggregate.csv", "reward_time.csv"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_run_spec_aggregate_matches_per_seed_files(tmp_path):
    spec = tiny_spec(tmp_path)
    run_spec(spec)
    out = Path(spec.out)
    per_seed = []
    for s in (0, 1):
        rows = np.genfromtxt(out / f"regret_seed{s}.csv", delimiter=",",
                             skip_header=1)
        per_seed.append(rows[:, 1])
    stack = np.stack(per_seed)
    _, mean, std, _ = read_aggregate(out / "aggregate.csv")
    np.testing.assert_allclose(mean, stack.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(std, stack.std(axis=0, ddof=1), atol=1e-12)


def test_run_spec_parallel_workers_match_serial(tmp_path):
    spec_serial = tiny_spec(tmp_path, out=str(tmp_path / "serial"))
    spec_par = replace(spec_serial, out=str(tmp_path / "par"))
    run_spec(spec_serial, workers=1)
    run_spec(spec_par, workers=2)
    for name in ("runlog_seed0.csv", "runlog_seed1.csv", "aggregate.csv",
                 "reward_time.csv"):
        assert (tmp_path / "serial" / name).read_bytes() \
            == (tmp_path / "par" / name).read_bytes()


@st.composite
def small_specs(draw, base):
    """Short runs on the built-in grid: 2-3 seeds, T0 2-8, c 0 or 0.1,
    5-60 iterations, and no event or one action permutation."""
    iterations = draw(st.integers(5, 60))
    events = draw(st.lists(st.fixed_dictionaries({
        "iteration": st.integers(1, iterations),
        "permutation": st.permutations(range(4))}), max_size=1))
    return ExperimentSpec(
        label="pool", t0=draw(st.integers(2, 8)),
        c=draw(st.sampled_from([0.0, 0.1])), iterations=iterations,
        seeds=draw(st.lists(st.integers(0, 2**32 - 1), min_size=2,
                            max_size=3, unique=True)),
        out=str(base / "serial"), events=events)


@settings(max_examples=12)
@given(st.data())
def test_two_workers_write_the_serial_files_byte_for_byte(data):
    with tempfile.TemporaryDirectory() as tmp:
        spec = data.draw(small_specs(Path(tmp)))
        pooled = replace(spec, out=str(Path(tmp) / "pool"))
        with warnings.catch_warnings():
            # events and small gaps blank the bound with a warning
            warnings.simplefilter("ignore", UserWarning)
            run_spec(spec)
            run_spec(pooled, workers=2)
        names = sorted(p.name for p in Path(spec.out).iterdir())
        assert names == sorted(p.name for p in Path(pooled.out).iterdir())
        for name in names:
            assert (Path(spec.out) / name).read_bytes() \
                == (Path(pooled.out) / name).read_bytes(), name


@settings(max_examples=6)
@given(st.data())
def test_a_pooled_sweep_writes_the_serial_files_byte_for_byte(data):
    # one pool runs every (T0, seed) task, and the T0s are aggregated while
    # later seeds still run; no file may tell
    with tempfile.TemporaryDirectory() as tmp:
        base = data.draw(small_specs(Path(tmp)))
        t0_values = data.draw(st.lists(st.integers(1, 16), min_size=2,
                                       max_size=3, unique=True))
        pooled = replace(base, out=str(Path(tmp) / "pool"))
        with warnings.catch_warnings():
            # events and small gaps blank the bound with a warning
            warnings.simplefilter("ignore", UserWarning)
            sweep_spec(base, t0_values)
            sweep_spec(pooled, t0_values, workers=2)
        names = sorted(p.relative_to(base.out).as_posix()
                       for p in Path(base.out).rglob("*") if p.is_file())
        assert names == sorted(
            p.relative_to(pooled.out).as_posix()
            for p in Path(pooled.out).rglob("*") if p.is_file())
        # per T0: two files per seed and the two aggregates; two combined
        assert len(names) == len(t0_values) * (2 * len(base.seeds) + 2) + 2
        for name in names:
            assert (Path(base.out) / name).read_bytes() \
                == (Path(pooled.out) / name).read_bytes(), name


def test_run_spec_gap_failure_blanks_the_bound(tmp_path):
    # two experts with identical behavior: the runner-up's gap is zero, the
    # logarithmic bound has no denominator to work with
    layout = tmp_path / "twins.grid"
    layout.write_text(STRIP + "permutation = 0 1 2 3\n"
                              "permutation = 1 0 2 3\n")
    spec = tiny_spec(tmp_path, layout=str(layout), iterations=12)
    with pytest.warns(UserWarning, match="theory bound unavailable"):
        summary = run_spec(spec)
    assert summary["bound_status"].startswith("gap precondition failed")
    _, _, _, bound = read_aggregate(Path(spec.out) / "aggregate.csv")
    assert bound[0] == 0.0
    assert np.isnan(bound[1:]).all()


def test_run_spec_events_blank_the_bound_and_fire(tmp_path):
    spec = tiny_spec(tmp_path, iterations=8,
                     events=[{"iteration": 3, "permutation": [1, 0, 2, 3]}])
    with pytest.warns(UserWarning, match="events change the dynamics"):
        summary = run_spec(spec)
    assert "events" in summary["bound_status"]
    log = RunLog.from_csv(Path(spec.out) / "runlog_seed0.csv")
    assert log.meta["events"] == "3"
    _, _, _, bound = read_aggregate(Path(spec.out) / "aggregate.csv")
    assert np.isnan(bound[1:]).all()


# ---------------------------------------------------------------------------
# sweep_spec


def test_sweep_single_t0_matches_a_direct_run(tmp_path):
    base = tiny_spec(tmp_path, t0=8, out=str(tmp_path / "sweep"))
    direct = replace(base, out=str(tmp_path / "direct"))
    run_spec(direct)
    sweep_spec(base, [8])
    sub = tmp_path / "sweep" / "t0_8"
    for name in ("runlog_seed0.csv", "runlog_seed1.csv", "aggregate.csv",
                 "reward_time.csv"):
        assert (sub / name).read_bytes() \
            == (tmp_path / "direct" / name).read_bytes()
    assert (tmp_path / "sweep" / "combined.csv").exists()


def test_sweep_combined_files_are_long_format(tmp_path):
    base = tiny_spec(tmp_path, iterations=20, out=str(tmp_path / "sweep"))
    result = sweep_spec(base, [6, 8])
    assert [r["label"] for r in result["runs"]] == ["tiny-t0-6", "tiny-t0-8"]
    lines = (tmp_path / "sweep" / "combined.csv").read_text().splitlines()
    assert lines[0] == "t0,n,mean_regret,std_regret,theory_bound"
    assert len(lines) == 1 + 2 * 21
    t0_col = [ln.split(",")[0] for ln in lines[1:]]
    assert t0_col == ["6"] * 21 + ["8"] * 21

    rt = (tmp_path / "sweep" / "combined_reward_time.csv").read_text().splitlines()
    assert rt[0] == "t0,t,mean_cumulative_reward"
    assert len(rt) == 1 + 2 * 21


def test_sweep_combined_rows_are_the_per_t0_rows_and_no_tmp_is_left(tmp_path):
    base = tiny_spec(tmp_path, iterations=12, out=str(tmp_path / "sweep"))
    sweep_spec(base, [6, 8])
    out = tmp_path / "sweep"
    for name, combined in (("aggregate.csv", "combined.csv"),
                           ("reward_time.csv", "combined_reward_time.csv")):
        expected = []
        for v in (6, 8):
            header, *rows = (out / f"t0_{v}" / name).read_text().splitlines()
            expected += [f"{v},{row}" for row in rows]
        assert (out / combined).read_text() \
            == "\n".join([f"t0,{header}"] + expected) + "\n"
    assert list(out.rglob("*.tmp")) == []


def test_sweep_rejects_bad_t0_lists(tmp_path):
    base = tiny_spec(tmp_path)
    with pytest.raises(ValueError, match="empty"):
        sweep_spec(base, [])
    # each T0's spec is built, and so checked, before anything is written
    with pytest.raises(ValueError, match="t0 must be an integer >= 1"):
        sweep_spec(replace(base, out=str(tmp_path / "zero")), [4, 0])
    with pytest.raises(ValueError, match="duplicate T0"):
        sweep_spec(replace(base, out=str(tmp_path / "dup")), [8, 8])
    assert not (tmp_path / "dup").exists()
    assert not (tmp_path / "zero").exists()


def test_duplicate_t0_values_in_a_sweep_exit_one(tmp_path):
    # a repeated T0 would run twice into the same t0_<v> directory and write
    # its rows of combined.csv twice
    save_spec(tiny_spec(tmp_path), tmp_path / "spec.json")
    out = tmp_path / "sweep"
    code, stdout, err = run_cli(["sweep", "--config",
                                 str(tmp_path / "spec.json"), "--t0", "8,8",
                                 "--out", str(out)])
    assert code == 1 and "duplicate T0 values" in err
    assert stdout == "" and not out.exists()


def test_bound_warnings_point_at_the_public_caller(tmp_path):
    # twin experts: every run warns that the gap precondition fails
    layout = tmp_path / "twins.grid"
    layout.write_text(STRIP + "permutation = 0 1 2 3\n"
                              "permutation = 1 0 2 3\n")
    spec = tiny_spec(tmp_path, layout=str(layout), iterations=6)
    with pytest.warns(UserWarning) as caught:
        run_spec(spec)
        sweep_spec(replace(spec, out=str(tmp_path / "sweep")), [4, 8])
    assert [str(w.message).split(":")[0] for w in caught] \
        == ["tiny", "tiny-t0-4", "tiny-t0-8"]
    assert [w.filename for w in caught] == [__file__] * 3


@pytest.mark.parametrize("command, flag, value", [
    ("sweep", "--t0", ""),
    ("sweep", "--t0", "4,,8"),
    ("sweep", "--t0", "4,"),
    ("run", "--seeds", "1,,2"),
    ("run", "--t0", "abc"),
])
def test_malformed_integer_lists_exit_one(tmp_path, command, flag, value):
    # unchecked, sweep --t0 "" ran the default sweep, empty items were
    # dropped, and run --t0 abc reported int()'s message without the flag
    save_spec(tiny_spec(tmp_path), tmp_path / "spec.json")
    out = tmp_path / "override"
    code, stdout, err = run_cli([command, "--config",
                                 str(tmp_path / "spec.json"), flag, value,
                                 "--out", str(out)])
    assert code == 1
    assert f"{flag} expects comma-separated integers, got {value!r}" in err
    assert stdout == "" and not out.exists()


def test_sweep_regret_rate_decays_at_every_t0(sweep_runs):
    # the long benchmark sweeps: per-iteration regret keeps falling, and
    # each T0's mean curve tracks a ln n trend over the second half
    for t0 in (4, 16, 64):
        mean = sweep_runs[t0]["mean"]
        rates = [mean[100] / 100, mean[1000] / 1000, mean[5000] / 5000]
        assert rates[2] < rates[1] < rates[0]
        ns = np.arange(2500, 5001)
        _, _, r2 = log_linear_fit(ns, mean[2500:5001])
        assert r2 >= 0.9


# ---------------------------------------------------------------------------
# command line


def run_cli(argv):
    # capture stdout/stderr directly so the suite can run with -s
    out_buf, err_buf = io.StringIO(), io.StringIO()
    with redirect_stdout(out_buf), redirect_stderr(err_buf):
        code = main(argv)
    return code, out_buf.getvalue(), err_buf.getvalue()


def test_cli_bench_then_analyze_then_run_then_sweep(tmp_path):
    work = tmp_path / "bench"
    code, out, err = run_cli(["bench", "--out", str(work)])
    assert code == 0
    for name in ("benchmark.grid", "mdp.json", "expert_0.json",
                 "expert_1.json", "expert_2.json", "expert_3.json",
                 "sweep_t0_4.json", "sweep_t0_16.json", "sweep_t0_64.json",
                 "perturbation.json", "sweep_base.json"):
        assert (work / name).exists()
    assert "next steps" in out

    csv_path = tmp_path / "profiles.csv"
    code, out, err = run_cli(
        ["analyze", str(work / "mdp.json")]
        + [str(work / f"expert_{j}.json") for j in range(4)]
        + ["--out", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "expert,alpha,C,K,R_bar,Delta"
    assert len(lines) == 5
    deltas = [float(ln.split(",")[5]) for ln in lines[1:]]
    assert sum(1 for d in deltas if d == 0.0) == 1
    # Delta_e = R_bar* - R_bar_e, to the last bit
    rbars = [float(ln.split(",")[4]) for ln in lines[1:]]
    assert deltas == [max(rbars) - r for r in rbars]
    ks = [float(ln.split(",")[3]) for ln in lines[1:]]
    assert all(k > 100 for k in ks)  # certified constants, not the nominal 2.0

    # run the perturbation spec briefly, overriding scale and output
    run_out = tmp_path / "short"
    code, out, err = run_cli(
        ["run", "--config", str(work / "perturbation.json"),
         "--iterations", "40", "--seeds", "0,1", "--out", str(run_out)])
    assert code == 0
    assert "best expert 0" in out
    assert (run_out / "runlog_seed0.csv").exists()
    assert (run_out / "aggregate.csv").exists()

    sweep_out = tmp_path / "sw"
    code, out, err = run_cli(
        ["sweep", "--config", str(work / "sweep_base.json"),
         "--t0", "8,16", "--iterations", "30", "--seeds", "0",
         "--out", str(sweep_out)])
    assert code == 0
    assert (sweep_out / "t0_8" / "aggregate.csv").exists()
    assert (sweep_out / "t0_16" / "aggregate.csv").exists()
    assert (sweep_out / "combined.csv").exists()
    assert (sweep_out / "combined_reward_time.csv").exists()


def test_cli_analyze_stdout_for_a_small_chain(tmp_path):
    # two-state chain with slem 0.7: certified constants are printable and
    # the row count matches the expert list
    P = np.array([[[0.9, 0.1]], [[0.2, 0.8]]])
    R = np.zeros((2, 1, 2))
    R[1, 0, :] = 1.0
    save_mdp(make_mdp(P, R), tmp_path / "m.json")
    save_policy(det_policy([0, 0], 1, expert_id=0), tmp_path / "p.json")
    code, out, err = run_cli(
        ["analyze", str(tmp_path / "m.json"), str(tmp_path / "p.json")])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "expert,alpha,C,K,R_bar,Delta"
    cols = lines[1].split(",")
    assert float(cols[1]) == pytest.approx(0.7, abs=1e-9)
    assert float(cols[2]) == 2.0
    assert float(cols[3]) == pytest.approx(2.0 / 0.3, abs=1e-9)
    assert len(cols) == 6


@pytest.mark.parametrize("name, key, value", [
    ("p.json", "expert_id", 2.7),
    ("p.json", "expert_id", True),
    ("m.json", "states", 2.9),
    ("m.json", "actions", True),
])
def test_cli_analyze_integer_file_fields_must_be_json_integers(
        tmp_path, name, key, value):
    # int() would label expert 2.7 as expert 2 and true as expert 1, and
    # read 2.9 states as 2, each with exit 0
    P = np.array([[[0.9, 0.1]], [[0.2, 0.8]]])
    save_mdp(make_mdp(P, np.zeros((2, 1, 2))), tmp_path / "m.json")
    save_policy(det_policy([0, 0], 1, expert_id=2), tmp_path / "p.json")
    doc = json.loads((tmp_path / name).read_text())
    (tmp_path / name).write_text(json.dumps({**doc, key: value}))
    code, out, err = run_cli(
        ["analyze", str(tmp_path / "m.json"), str(tmp_path / "p.json")])
    assert code == 1 and out == ""
    assert f"{key} must be an integer, got {value!r}" in err


def test_cli_analyze_out_file_matches_stdout(tmp_path):
    mdp, pol, _, _ = nan_files(tmp_path)
    code, out, _ = run_cli(["analyze", str(mdp), str(pol)])
    assert code == 0
    target = tmp_path / "analyze.csv"
    code, _, _ = run_cli(["analyze", str(mdp), str(pol), "--out",
                          str(target)])
    assert code == 0 and target.read_text() == out
    assert not (tmp_path / "analyze.csv.tmp").exists()


def test_cli_analyze_non_ergodic_exits_two(tmp_path):
    mdp_path, pol_path = identity_mdp_files(tmp_path)
    code, out, err = run_cli(["analyze", str(mdp_path), str(pol_path)])
    assert code == 2
    assert "precondition violation" in err
    assert "not" in err and "ergodic" in err
    assert f"expert 0 ({pol_path})" in err


def test_cli_analyze_checks_each_chain_once(bench, tmp_path):
    save_mdp(bench.mdp, tmp_path / "mdp.json")
    paths = []
    for expert in bench.experts:
        paths.append(str(tmp_path / f"expert_{expert.expert_id}.json"))
        save_policy(expert, paths[-1])
    with mock.patch.object(chains, "check_ergodicity",
                           wraps=chains.check_ergodicity) as check:
        code, out, _ = run_cli(["analyze", str(tmp_path / "mdp.json")]
                               + paths)
    assert code == 0 and len(out.splitlines()) == 5
    assert check.call_count == 4


def test_nominal_profiles_checks_each_chain_once(bench):
    with mock.patch.object(chains, "check_ergodicity",
                           wraps=chains.check_ergodicity) as check:
        nominal_profiles(bench.mdp, bench.experts)
    assert check.call_count == len(bench.experts)


def test_cli_run_non_ergodic_exits_two(tmp_path):
    mdp_path, pol_path = identity_mdp_files(tmp_path)
    doc = {"label": "sad", "t0": 4, "c": 0.0, "iterations": 5, "seeds": [0],
           "out": "o", "mdp": "m.json", "experts": ["p.json"]}
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    code, out, err = run_cli(["run", "--config", str(tmp_path / "spec.json")])
    assert code == 2
    assert "precondition violation" in err


def test_cli_usage_and_parse_errors_exit_one(tmp_path):
    assert run_cli([])[0] == 1
    assert run_cli(["frobnicate"])[0] == 1

    code, _, err = run_cli(["analyze", str(tmp_path / "absent.json"),
                            str(tmp_path / "also_absent.json")])
    assert code == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{")
    pol = tmp_path / "p.json"
    save_policy(det_policy([0], 1), pol)
    code, _, err = run_cli(["analyze", str(bad), str(pol)])
    assert code == 1
    assert "not valid JSON" in err

    code, _, err = run_cli(["run", "--config", str(tmp_path / "nope.json")])
    assert code == 1

    spec = tiny_spec(tmp_path)
    save_spec(spec, tmp_path / "spec.json")
    code, _, err = run_cli(["run", "--config", str(tmp_path / "spec.json"),
                            "--t0", "4,16"])
    assert code == 1
    assert "use sweep" in err

    code, _, err = run_cli(["run", "--config", str(tmp_path / "spec.json"),
                            "--iterations", "soon"])
    assert code == 1
    assert "error:" in err


def test_duplicate_seeds_in_a_spec_exit_one(tmp_path):
    # a repeated seed would run twice, count twice in the aggregate and,
    # under --workers 2, have two processes write the same .tmp file
    with pytest.raises(ValueError, match="duplicate seeds"):
        tiny_spec(tmp_path, seeds=[0, 0])
    doc = {"label": "dup", "t0": 4, "c": 0.1, "iterations": 5,
           "seeds": [0, 0], "out": "dup", "layout": "strip.grid"}
    strip_layout(tmp_path)
    (tmp_path / "dup.json").write_text(json.dumps(doc))
    code, _, err = run_cli(["run", "--config", str(tmp_path / "dup.json")])
    assert code == 1 and "duplicate seeds" in err
    assert not (tmp_path / "dup").exists()


MALFORMED_FIELDS = {
    "t0-float": ("t0", 4.5),
    "t0-zero": ("t0", 0),
    "t0-bool": ("t0", True),
    "iterations-string": ("iterations", "10"),
    "seeds-string-entry": ("seeds", ["a"]),
    "seeds-nested": ("seeds", [[0]]),
    "seeds-bool-entry": ("seeds", [False]),
    "seeds-not-a-list": ("seeds", 3),
    # unchecked, numpy rejects it only when that seed's run starts
    "seeds-negative-entry": ("seeds", [-1]),
    "c-string": ("c", "x"),
    "c-negative": ("c", -0.1),
    "c-infinite": ("c", float("inf")),
    "bound_k-negative": ("bound_k", -1),
    "bound_k-zero": ("bound_k", 0),
    "bound_k-nan": ("bound_k", float("nan")),
    "label-number": ("label", 7),
    "out-number": ("out", 5),
    "layout-number": ("layout", 3),
    "event-iteration-float": ("events", [{"iteration": 2.5,
                                          "permutation": [0, 1, 2, 3]}]),
    # unchecked, all four run: a zero or negative iteration swaps the
    # dynamics before the first pull while regret is still measured against
    # the original R_bar*, both keys silently take the file, "mpd" is lost
    "event-iteration-zero": ("events", [{"iteration": 0,
                                         "permutation": [1, 0, 2, 3]}]),
    "event-iteration-negative": ("events", [{"iteration": -3,
                                             "permutation": [1, 0, 2, 3]}]),
    "event-permutation-and-mdp": ("events", [{"iteration": 2,
                                              "permutation": [1, 0, 2, 3],
                                              "mdp": "swap.json"}]),
    "event-misspelled-key": ("events", [{"iteration": 2,
                                         "permutation": [1, 0, 2, 3],
                                         "mpd": "swap.json"}]),
    # unchecked, the first two end in a TypeError and an IndexError (exit
    # 3), and the third runs as [1, 0, 2, 3]
    "event-permutation-number": ("events", [{"iteration": 2,
                                             "permutation": 5}]),
    "event-permutation-float-entry": (
        "events", [{"iteration": 2, "permutation": [1.0, 0, 2, 3]}]),
    "event-permutation-bool-entries": (
        "events", [{"iteration": 2, "permutation": [True, False, 2, 3]}]),
}


@pytest.mark.parametrize("case", list(MALFORMED_FIELDS))
def test_malformed_spec_field_exits_one(tmp_path, case):
    # unchecked, these end in a TypeError (exit 3) or, like a negative
    # bound_k, in a run that prints "theory bound: ok"
    key, value = MALFORMED_FIELDS[case]
    doc = {"label": "bad", "t0": 4, "c": 0.1, "iterations": 5,
           "seeds": [0], "out": "bad", "layout": "strip.grid", key: value}
    # a valid replacement MDP, so that an event naming it would run
    save_mdp(resolve_environment(tiny_spec(tmp_path))[0],
             tmp_path / "swap.json")
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    code, out, err = run_cli(["run", "--config", str(tmp_path / "bad.json")])
    assert code == 1, err
    assert err.startswith("error: ") and key.rstrip("s") in err
    assert out == "" and not (tmp_path / "bad").exists()


def test_a_horizon_past_int64_exits_one_before_the_first_pull(tmp_path):
    # cast to int64, T_2 = 2e300 wrapped to -2**63: the run exited 0 and
    # wrote T_n = -9223372036854775808 and avg_reward -0.0
    save_spec(tiny_spec(tmp_path), tmp_path / "spec.json")
    out = tmp_path / "huge"
    code, stdout, err = run_cli(["run", "--config",
                                 str(tmp_path / "spec.json"), "--c", "1e300",
                                 "--iterations", "3", "--out", str(out)])
    assert code == 1 and "does not fit a 64-bit step count" in err
    assert stdout == "" and not list(out.glob("*.csv"))


def test_a_sweep_past_int64_exits_one_and_makes_no_directory(tmp_path):
    # the check ran in each seed task, after every t0_<v> directory was
    # made, so the sweep exited 1 and left three empty directories
    save_spec(tiny_spec(tmp_path), tmp_path / "spec.json")
    out = tmp_path / "huge"
    code, stdout, err = run_cli(["sweep", "--config",
                                 str(tmp_path / "spec.json"), "--t0",
                                 "4,16,64", "--c", "1e300", "--iterations",
                                 "3", "--workers", "2", "--out", str(out)])
    assert code == 1 and "does not fit a 64-bit step count" in err
    assert stdout == "" and not out.exists()


def test_bench_writes_the_sweep_base_it_always_wrote(tmp_path):
    # sweep_base.json is derived from the first canonical spec; these are
    # the bytes of the spec the command used to spell out for itself
    code, _, _ = run_cli(["bench", "--out", str(tmp_path)])
    assert code == 0
    want = {"label": "sweep", "t0": 4, "c": 0.1, "iterations": 5000,
            "seeds": list(range(10)), "out": "./sweep", "events": [],
            "mdp": None, "experts": None, "layout": "benchmark.grid",
            "bound_k": 2.0}
    assert (tmp_path / "sweep_base.json").read_text() \
        == json.dumps(want, indent=1) + "\n"


def test_spec_file_must_be_an_object(tmp_path):
    (tmp_path / "list.json").write_text("[1, 2]")
    code, _, err = run_cli(["run", "--config", str(tmp_path / "list.json")])
    assert code == 1 and "JSON object" in err


def test_duplicate_seed_overrides_exit_one(tmp_path):
    # the overrides go back through ExperimentSpec's validation
    save_spec(tiny_spec(tmp_path), tmp_path / "spec.json")
    for command in ("run", "sweep"):
        out = tmp_path / f"{command}_override"
        code, _, err = run_cli([command, "--config",
                                str(tmp_path / "spec.json"), "--seeds", "1,1",
                                "--out", str(out)])
        assert code == 1 and "duplicate seeds" in err
        assert not out.exists()


def test_negative_seed_overrides_exit_one(tmp_path):
    # unchecked, run --seeds 5,-1 wrote seed 5's files before numpy
    # rejected -1
    save_spec(tiny_spec(tmp_path), tmp_path / "spec.json")
    for command in ("run", "sweep"):
        out = tmp_path / f"{command}_override"
        code, stdout, err = run_cli([command, "--config",
                                     str(tmp_path / "spec.json"), "--seeds",
                                     "5,-1", "--out", str(out)])
        assert code == 1 and "seeds must be" in err and "-1" in err
        assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("workers", ["0", "-4"])
def test_workers_below_one_exit_one(tmp_path, command, workers):
    save_spec(tiny_spec(tmp_path), tmp_path / "spec.json")
    out = tmp_path / "workers"
    code, stdout, err = run_cli([command, "--config",
                                 str(tmp_path / "spec.json"), "--workers",
                                 workers, "--out", str(out)])
    assert code == 1 and "workers must be >= 1" in err
    assert stdout == "" and not out.exists()


def test_run_spec_asks_for_at_most_one_worker_per_seed(tmp_path,
                                                       monkeypatch):
    # an in-process stand-in records the pool size without starting any
    # process: with the fork start method every worker starts up front
    asked = []

    class InlinePool:
        def __init__(self, max_workers=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InlinePool)
    spec = tiny_spec(tmp_path, seeds=[0, 1], out=str(tmp_path / "pool"))
    run_spec(spec, workers=3)
    assert asked == [2]
    run_spec(replace(spec, out=str(tmp_path / "serial")))
    assert asked == [2]
    for name in ("runlog_seed0.csv", "runlog_seed1.csv", "aggregate.csv"):
        assert (tmp_path / "pool" / name).read_bytes() \
            == (tmp_path / "serial" / name).read_bytes()


def test_run_spec_runs_a_single_seed_in_process(tmp_path, monkeypatch):
    # a pool of one process would fork and pickle for nothing
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-seed run started a process pool")

    spec = tiny_spec(tmp_path, seeds=[3], out=str(tmp_path / "serial"))
    run_spec(spec)
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", no_pool)
    run_spec(replace(spec, out=str(tmp_path / "w2")), workers=2)
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "w2").iterdir())
    for name in names:
        assert (tmp_path / "w2" / name).read_bytes() \
            == (tmp_path / "serial" / name).read_bytes()


class _LazyFuture(Future):
    """A future whose task runs when its result is first asked for."""

    def __init__(self, fn, args):
        super().__init__()
        self.task = (fn, args)

    def result(self, timeout=None):
        if not self.done():
            fn, args = self.task
            try:
                self.set_result(fn(*args))
            except Exception as exc:
                self.set_exception(exc)
        return super().result(timeout)


class QueuedPool:
    """A stand-in pool whose workers have not reached a task until its
    result is asked for; shutdown(cancel_futures=True) cancels the rest."""

    def __init__(self, max_workers=None):
        self.futures = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.futures.append(_LazyFuture(fn, args))
        return self.futures[-1]

    def shutdown(self, wait=True, cancel_futures=False):
        for future in self.futures if cancel_futures else ():
            future.cancel()


def test_a_sweep_resolves_once_and_starts_one_pool(tmp_path, monkeypatch):
    # 3 T0 values x 2 seeds are six tasks for one pool of two processes
    asked = []

    def pool(max_workers):
        asked.append(max_workers)
        return QueuedPool(max_workers)

    base = tiny_spec(tmp_path, seeds=[0, 1], out=str(tmp_path / "serial"))
    sweep_spec(base, [4, 6, 8])
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", pool)
    with mock.patch.object(experiment, "resolve_environment",
                           wraps=resolve_environment) as resolve, \
            mock.patch.object(experiment, "nominal_profiles",
                              wraps=nominal_profiles) as nominal:
        sweep_spec(replace(base, out=str(tmp_path / "pool")), [4, 6, 8],
                   workers=2)
    assert asked == [2]
    assert resolve.call_count == 1 and nominal.call_count == 1
    names = sorted(p.relative_to(tmp_path / "serial").as_posix()
                   for p in (tmp_path / "serial").rglob("*") if p.is_file())
    assert len(names) == 3 * (2 * 2 + 2) + 2
    for name in names:
        assert (tmp_path / "pool" / name).read_bytes() \
            == (tmp_path / "serial" / name).read_bytes(), name


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_seed_task_stops_the_sweep(tmp_path, monkeypatch, workers):
    # the error reaches the caller, and no task queued behind it runs: the
    # one-process pool never submits them, a real pool cancels them
    ran, pools = [], []
    seed_task = experiment._seed_task

    def failing_task(env, schedule, iterations, seed, out_dir):
        ran.append((schedule.t0, seed))
        if (schedule.t0, seed) == (6, 0):
            raise RuntimeError("seed task failed")
        return seed_task(env, schedule, iterations, seed, out_dir)

    def pool(max_workers):
        pools.append(QueuedPool(max_workers))
        return pools[-1]

    monkeypatch.setattr(experiment, "_seed_task", failing_task)
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", pool)
    base = tiny_spec(tmp_path, seeds=[0, 1])
    with pytest.raises(RuntimeError, match="seed task failed"):
        sweep_spec(base, [4, 6, 8], workers=workers)
    assert ran == [(4, 0), (4, 1), (6, 0)]
    if workers > 1:
        assert [f.cancelled() for f in pools[0].futures] \
            == [False] * 3 + [True] * 3
    else:
        assert pools == []


def nan_files(tmp_path):
    """The small two-state chain and its policy on disk, plus a copy of each
    with a NaN entry: (mdp, policy, nan mdp, nan policy)."""
    P = np.array([[[0.9, 0.1]], [[0.2, 0.8]]])
    save_mdp(make_mdp(P, np.zeros((2, 1, 2))), tmp_path / "m.json")
    save_policy(det_policy([0, 0], 1), tmp_path / "p.json")
    P[1, 0] = np.nan
    write_mdp_doc(tmp_path / "m_nan.json", mdp_fields(P, np.zeros((2, 1, 2))))
    save_policy(ExpertPolicy(policy=np.full((2, 1), np.nan)),
                tmp_path / "p_nan.json")
    return [tmp_path / name for name in ("m.json", "p.json", "m_nan.json",
                                         "p_nan.json")]


@pytest.mark.parametrize("bad", ["mdp", "policy"])
def test_cli_non_finite_inputs_exit_one(tmp_path, bad):
    mdp, pol, mdp_nan, pol_nan = nan_files(tmp_path)
    if bad == "mdp":
        mdp, what = mdp_nan, f"{mdp_nan}: invalid MDP: non-finite entries " \
            "in the transition"
    else:
        pol, what = pol_nan, f"{pol_nan}: invalid policy: non-finite " \
            "policy entries"
    code, _, err = run_cli(["analyze", str(mdp), str(pol)])
    assert code == 1 and what in err
    doc = {"label": "nan", "t0": 4, "c": 0.0, "iterations": 5, "seeds": [0],
           "out": "o", "mdp": mdp.name, "experts": [pol.name]}
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    code, _, err = run_cli(["run", "--config", str(tmp_path / "spec.json")])
    assert code == 1 and what in err


def test_each_mdp_is_validated_once(tmp_path):
    # a file-spec run checked its MDP twice, when it was loaded and when its
    # sampler rows were built; a layout run never checked the permuted MDPs
    # its experts are trained on
    mdp, pol, _, _ = nan_files(tmp_path)
    for name, doc in (("file", {"mdp": mdp.name, "experts": [pol.name]}),
                      ("layout", {"layout": strip_layout(tmp_path).name})):
        (tmp_path / "spec.json").write_text(json.dumps({
            "label": name, "t0": 4, "c": 0.0, "iterations": 5,
            "seeds": [0, 1], "out": name, **doc}))
        with mock.patch.object(mdp_module, "_mdp_errors",
                               wraps=mdp_module._mdp_errors) as check, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, _, err = run_cli(["run", "--config",
                                    str(tmp_path / "spec.json")])
        assert code == 0, err
        built = 1 if name == "file" else \
            1 + len(load_layout(tmp_path / "strip.grid").permutations)
        assert check.call_count == built, name


@pytest.mark.parametrize("name, key", [("m.json", "discount"),
                                       ("p.json", "epsilon")])
def test_cli_an_unknown_file_key_exits_one(tmp_path, name, key):
    mdp, pol, _, _ = nan_files(tmp_path)
    doc = json.loads((tmp_path / name).read_text())
    (tmp_path / name).write_text(json.dumps({**doc, key: 0.2}))
    code, _, err = run_cli(["analyze", str(mdp), str(pol)])
    assert code == 1
    assert f"{name}: unknown keys ['{key}']" in err


@pytest.fixture(scope="module")
def probe_dir(bench, tmp_path_factory):
    """A directory with the bench's MDP and expert files and a short run
    spec over them, with a permutation event and an MDP-file event."""
    work = tmp_path_factory.mktemp("probe")
    save_mdp(bench.mdp, work / "mdp.json")
    experts = [f"expert_{e.expert_id}.json" for e in bench.experts]
    for name, expert in zip(experts, bench.experts):
        save_policy(expert, work / name)
    (work / "spec.json").write_text(json.dumps({
        "label": "probe", "t0": 4, "c": 0.1, "iterations": 12, "seeds": [0],
        "out": "out", "mdp": "mdp.json", "experts": experts, "bound_k": 2.0,
        "events": [{"iteration": 4,
                    "permutation": list(BENCHMARK_EVENT_PERMUTATION)},
                   {"iteration": 8, "mdp": "mdp.json"}]}))
    return work


# what a mutation puts in place of a value: JSON's odd values, an integer
# too large for a float, numbers near the valid ones, and wrong types
MUTANTS = [None, True, False, math.nan, math.inf, -math.inf, 2**70, 10**400,
           -1, 0, 0.5, 1, 2, 1e-300, "", "x", [], [0.5], {}, {"states": 1}]
NUDGES = [1e-12, -1e-12, 1e-8, -1e-8, 1, -1]


def mutate(rng, doc) -> str:
    """Make one change to doc in place, and describe it: delete a key,
    replace a value from MUTANTS, or nudge a number.  The change is made
    below the top level, one level further down with probability 3/4 until
    it reaches a leaf, so most changes hit the numbers of the arrays."""
    parent, path, node = None, [], doc
    while isinstance(node, (dict, list)) and node and (
            parent is None or rng.random() < 0.75):
        key = rng.choice(sorted(node) if isinstance(node, dict)
                         else range(len(node)))
        parent, node = node, node[key]
        path.append(key)
    kinds = ["replace"]
    if isinstance(parent, dict):
        kinds.append("delete")
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        kinds.append("nudge")
    kind = rng.choice(kinds)
    if kind == "delete":
        del parent[key]
        return f"delete {path}"
    new = rng.choice(MUTANTS) if kind == "replace" \
        else node + rng.choice(NUDGES)
    parent[key] = new
    return f"{path} = {new!r:.40}"


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_a_mutated_input_file_never_exits_three(probe_dir, seed):
    # every bad value a file can hold is a validation error (1) or a
    # precondition violation (2), never an escaped exception (3)
    rng = random.Random(seed)
    name = rng.choice(["mdp.json", f"expert_{rng.randrange(4)}.json",
                       "spec.json"])
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        work = Path(shutil.copytree(probe_dir, Path(tmp) / "probe"))
        doc = json.loads((work / name).read_text())
        change = f"{name}: " + mutate(rng, doc)
        (work / name).write_text(json.dumps(doc))
        experts = [str(work / f"expert_{j}.json") for j in range(4)]
        for argv in (["analyze", str(work / "mdp.json")] + experts,
                     ["run", "--config", str(work / "spec.json")]):
            code, _, err = run_cli(argv)
            assert code in (0, 1, 2), f"{change}; {argv[0]}: {err}"
            # a bad MDP or expert file is named by the loader that reads it
            assert code != 1 or name == "spec.json" \
                or str(work / name) in err, f"{change}; {argv[0]}: {err}"


def mutated_probe(probe_dir, tmp_path, name, path, value):
    """A copy of probe_dir whose file name holds value at path."""
    work = Path(shutil.copytree(probe_dir, tmp_path / "probe"))
    doc = json.loads((work / name).read_text())
    *up, key = path
    node = doc
    for step in up:
        node = node[step]
    node[key] = value
    (work / name).write_text(json.dumps(doc))
    return work


@pytest.mark.parametrize("name, path, value, message", [
    ("mdp.json", ["transition", 0, 0], [0.5], "transition: "),
    ("mdp.json", ["reward", "probs", 0, 0, 0, 0], "x",
     "reward_probs: could not convert string to float"),
    ("expert_0.json", ["policy", 0], [1.0], ""),
    ("spec.json", ["t0"], 0, "t0 must be an integer >= 1, got 0")])
def test_a_malformed_file_is_named_in_its_error(probe_dir, tmp_path, name,
                                                path, value, message):
    # a ragged array, a string in an array or a bad spec field exited 1
    # with a message that named neither the file nor the field
    work = mutated_probe(probe_dir, tmp_path, name, path, value)
    commands = [["run", "--config", str(work / "spec.json")]]
    if name != "spec.json":
        commands.append(["analyze", str(work / "mdp.json"),
                         str(work / "expert_0.json")])
    for argv in commands:
        code, _, err = run_cli(argv)
        assert code == 1 and f"error: {work / name}: {message}" in err, err


@pytest.mark.parametrize("name, path", [
    ("mdp.json", ["transition", 0, 0, 0]), ("expert_0.json", ["policy", 0, 0]),
    ("spec.json", ["c"]), ("spec.json", ["bound_k"]),
    ("spec.json", ["iterations"])])
def test_an_integer_too_large_for_a_float_exits_one(probe_dir, tmp_path,
                                                    name, path):
    # converting 10**400 to a float raised OverflowError, which the command
    # line reported as a runtime failure (exit 3).  A file's loader names
    # the file, and the spec names the field too: iterations is a valid
    # integer, and exited 1 with "int too large to convert to float"
    work = mutated_probe(probe_dir, tmp_path, name, path, 10**400)
    commands = [["run", "--config", str(work / "spec.json")]]
    if name != "spec.json":
        commands.append(["analyze", str(work / "mdp.json"),
                         str(work / "expert_0.json")])
    for argv in commands:
        code, _, err = run_cli(argv)
        assert code == 1 and "too large" in err, err
        assert f"error: {work / name}: " in err, err
        assert path != ["iterations"] or "iterations is too large" in err, err


def test_cli_the_legacy_observation_keys_are_read_and_ignored(tmp_path):
    # the model is fully observed: an MDP file's "observations" and
    # "observation_kernel" are read and ignored whatever their value, and
    # save_mdp writes neither.  A file without them failed with "missing or
    # malformed field"
    g = np.random.default_rng(5)
    save_mdp(random_mdp(g, S=3, A=2), tmp_path / "m.json")
    doc = json.loads((tmp_path / "m.json").read_text())
    assert set(doc) == {"states", "actions", "transition", "reward",
                        "initial"}
    for j in range(2):
        pi = 0.9 * np.eye(2)[g.integers(0, 2, size=3)] + 0.05
        save_policy(ExpertPolicy(policy=pi, expert_id=j),
                    tmp_path / f"p{j}.json")
    variants = {
        "blurred": {"observations": 4,
                    "observation_kernel": g.dirichlet(np.ones(4),
                                                      size=3).tolist()},
        "malformed": {"observations": 2.0,
                      "observation_kernel": [[0.5, 0.7], [-1.0]]},
        "absent": {}}
    loaded, written = [], []
    for name, keys in variants.items():
        (tmp_path / "m.json").write_text(json.dumps({**doc, **keys}))
        loaded.append(load_mdp(tmp_path / "m.json"))
        spec = {"label": "obs", "t0": 4, "c": 0.1, "iterations": 40,
                "seeds": [0, 1], "out": name, "mdp": "m.json",
                "experts": ["p0.json", "p1.json"]}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        with warnings.catch_warnings():
            # the gap precondition fails: no theory bound, the same warning
            # on each run
            warnings.simplefilter("ignore")
            code, _, err = run_cli(["run", "--config",
                                    str(tmp_path / "spec.json")])
        assert code == 0, err
        written.append({p.name: p.read_bytes()
                        for p in (tmp_path / name).glob("*.csv")})
    assert {"aggregate.csv", "runlog_seed0.csv", "runlog_seed1.csv"} \
        <= set(written[0])
    assert written[0] == written[1] == written[2]
    for mdp in loaded[1:]:
        for field in ("transition", "reward_values", "reward_probs",
                      "initial_dist"):
            assert getattr(mdp, field).tobytes() \
                == getattr(loaded[0], field).tobytes()


def test_cli_analyze_rejects_a_repeated_expert_id(tmp_path):
    # two rows with one id cannot be told apart in the output
    mdp, pol, _, _ = nan_files(tmp_path)
    save_policy(det_policy([0, 0], 1, expert_id=3), tmp_path / "q.json")
    save_policy(det_policy([0, 0], 1, expert_id=3), tmp_path / "r.json")
    for experts, eid in (([pol, pol], 0),
                         ([tmp_path / "q.json", pol, tmp_path / "r.json"], 3)):
        code, out, err = run_cli(["analyze", str(mdp), *map(str, experts)])
        assert code == 1 and out == ""
        assert (f"{experts[-1]}: expert_id {eid} is also the expert_id of "
                f"{experts[0]}") in err


def test_cli_run_rejects_a_repeated_expert_id(tmp_path):
    mdp, _, _, _ = nan_files(tmp_path)
    save_policy(det_policy([0, 0], 1, expert_id=1), tmp_path / "q.json")
    save_policy(det_policy([0, 0], 1, expert_id=1), tmp_path / "r.json")
    doc = {"label": "twice", "t0": 4, "c": 0.0, "iterations": 5,
           "seeds": [0], "out": "o", "mdp": mdp.name,
           "experts": ["q.json", "r.json"]}
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    code, _, err = run_cli(["run", "--config", str(tmp_path / "spec.json")])
    assert code == 1
    assert (f"{tmp_path / 'r.json'}: expert_id 1 is also the expert_id of "
            f"{tmp_path / 'q.json'}") in err
    assert not (tmp_path / "o").exists()


def test_cli_run_checks_policies_against_the_mdp(tmp_path):
    mdp, _, _, _ = nan_files(tmp_path)
    save_policy(det_policy([0, 0, 0], 1), tmp_path / "p3.json")
    doc = {"label": "shape", "t0": 4, "c": 0.0, "iterations": 5,
           "seeds": [0], "out": "o", "mdp": mdp.name, "experts": ["p3.json"]}
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    code, _, err = run_cli(["run", "--config", str(tmp_path / "spec.json")])
    assert code == 1
    assert "p3.json: invalid policy: policy shape (3, 1)" in err


def test_cli_run_seed_override_writes_one_log(tmp_path):
    spec = tiny_spec(tmp_path, iterations=10)
    save_spec(spec, tmp_path / "spec.json")
    solo = tmp_path / "solo"
    code, out, err = run_cli(["run", "--config", str(tmp_path / "spec.json"),
                              "--seed", "7", "--out", str(solo)])
    assert code == 0
    assert (solo / "runlog_seed7.csv").exists()
    assert not (solo / "runlog_seed0.csv").exists()
    log = RunLog.from_csv(solo / "runlog_seed7.csv")
    assert log.meta["seed"] == "7"


def run_fresh_python(code):
    """Run code in a fresh interpreter that imports the same package this
    suite imports."""
    root = str(Path(mdpbandit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)


def test_importing_the_cli_loads_no_scipy():
    # numpy is the one runtime dependency: importing scipy takes longer
    # than the rest of the package start-up
    out = run_fresh_python(
        "import sys, mdpbandit.cli; print(sorted(m for m in sys.modules "
        "if m.partition('.')[0] == 'scipy'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_declared_entry_point_serves_help():
    # what pyproject.toml declares as the console script must exist and
    # answer --help, whether or not the package is installed
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"mdpbandit": "mdpbandit.cli:main"}

    module, func = scripts["mdpbandit"].split(":")
    # run the target the way a console-script wrapper does
    out = run_fresh_python(f"import sys; from {module} import {func}; "
                           f"sys.argv = ['mdpbandit', '--help']; "
                           f"sys.exit({func}())")
    assert out.returncode == 0, out.stderr
    for word in ("analyze", "run", "sweep", "bench"):
        assert word in out.stdout


@pytest.mark.skipif(shutil.which("mdpbandit") is None,
                    reason="no mdpbandit console script on PATH; "
                           "install the package to run this check")
def test_console_script_is_installed(tmp_path):
    out = subprocess.run(["mdpbandit", "--help"], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0
    for word in ("analyze", "run", "sweep", "bench"):
        assert word in out.stdout


# ---------------------------------------------------------------------------
# run-log bytes


# sha256 of each run log below.  A run log holds only what the sampler drew
# and the selector chose, so a change to either shows here first; a change
# meant to shift the stream updates these and says so in CHANGES.md.
RUNLOG_DIGESTS = {
    "event/runlog_seed0.csv":
        "8ac48eb5e161e5e6ec95775efaf3cfaad4ea6d2ed209ced2671b0bc4c1796b3e",
    "event/runlog_seed1.csv":
        "327482ee660b208f066438573b28d0eebad8c38ce58fedd9b747f0845bd89050",
    "general/runlog_seed0.csv":
        "afb33ba02955e3d7acc64f9d5de55f89fa4af928affea9f6a2ddff13c8ffb1d4",
    "general/runlog_seed1.csv":
        "02cecdb38b6458ba969931ea4717de04e100aabac859dbf04bafce32e4ef0145",
    "sweep/t0_16/runlog_seed0.csv":
        "e71518b43694d66d53cf362c26d589e7f2273127653b50f30b553e32b916debe",
    "sweep/t0_16/runlog_seed1.csv":
        "a2d247bb8489667bcbe924d41e4ebb6c06ef6fcd14f72cd8ddf1220eb8664765",
    "sweep/t0_4/runlog_seed0.csv":
        "bde3dd9e46a53754bbbd04be5fa9cbcf0ebd290ae9be0f38574448b6f273f94e",
    "sweep/t0_4/runlog_seed1.csv":
        "4dc1df8bc14d31c5343ff598adba11a1b85662befd6abd36262e54a1d0961e94",
}


def general_path_files(directory):
    """An MDP on 4 states and 3 actions with two-point rewards, a spread
    initial law and two eps-mixed experts, from a fixed generator, saved
    as files: every state's joint row spreads over actions, next states
    and rewards."""
    g = np.random.default_rng(20261020)
    S, A = 4, 3

    def rows(shape):
        w = g.random(shape) + 0.05
        return w / w.sum(axis=-1, keepdims=True)

    save_mdp(FiniteMdp(n_states=S, n_actions=A, transition=rows((S, A, S)),
                       reward_values=g.random((S, A, S, 2)),
                       reward_probs=rows((S, A, S, 2)),
                       initial_dist=rows((S,))), directory / "mdp.json")
    experts = []
    for e, eps in enumerate((0.1, 0.4)):
        greedy = np.eye(A)[(g.random(S) * A).astype(int)]
        experts.append(str(directory / f"expert_{e}.json"))
        save_policy(ExpertPolicy(policy=(1.0 - eps) * greedy + eps / A,
                                 expert_id=e), experts[-1])
    return str(directory / "mdp.json"), experts


def test_run_log_bytes_are_pinned(tmp_path):
    mdp, experts = general_path_files(tmp_path)
    bench = dict(c=0.1, iterations=200, seeds=[0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # bound unavailable at T0 = 4
        sweep_spec(ExperimentSpec(label="sweep", t0=4, out=str(
            tmp_path / "sweep"), **bench), [4, 16])
        run_spec(ExperimentSpec(
            label="event", t0=4, out=str(tmp_path / "event"), events=[
                {"iteration": 100,
                 "permutation": list(BENCHMARK_EVENT_PERMUTATION)}],
            **bench))
        run_spec(ExperimentSpec(label="general", t0=3, c=0.5, iterations=150,
                                seeds=[0, 1], out=str(tmp_path / "general"),
                                mdp=mdp, experts=experts))
    got = {p.relative_to(tmp_path).as_posix():
           hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.rglob("runlog_seed*.csv"))}
    assert got == RUNLOG_DIGESTS, \
        "new run-log digests:\n" + json.dumps(got, indent=1)
