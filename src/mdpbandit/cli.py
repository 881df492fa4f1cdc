"""Command line front end.

Subcommands:
  analyze  certified per-expert chain profiles (CSV)
  run      execute one experiment spec across its seeds
  sweep    run one spec at several T0 values and combine the aggregates
  bench    materialize the built-in benchmark and its canonical specs

Exit codes: 0 success, 1 validation or parse error, 2 precondition
violation (non-ergodic chain, gap too small), 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .chains import NotErgodicError, gaps, profile_expert
from .experiment import ExperimentSpec, load_spec, run_spec, save_spec, \
    sweep_spec
from .gridworld import DEFAULT_T0_SWEEP, benchmark_config, build_experts, \
    build_gridworld, canonical_experiments, format_layout
from .mdp import csv_text, load_mdp, load_policies, save_mdp, save_policy, \
    write_csv
from .regret import GapTooSmallError

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _parse_int_list(text: str, flag: str) -> list:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated integers, "
                          f"got {text!r}") from None


def cmd_analyze(args) -> int:
    mdp = load_mdp(args.mdp)
    policies = load_policies(args.expert, mdp)
    profiles = []
    for path, policy in zip(args.expert, policies):
        try:
            profiles.append(profile_expert(mdp, policy))
        except NotErgodicError as exc:
            raise NotErgodicError(
                f"expert {policy.expert_id} ({path}): {exc}") from None
    _, deltas = gaps([p.steady_reward for p in profiles])
    header = ("expert", "alpha", "C", "K", "R_bar", "Delta")
    rows = [(policy.expert_id, float(p.slem), float(p.mix_const),
             float(p.k_const), float(p.steady_reward), delta)
            for policy, p, delta in zip(policies, profiles, deltas.tolist())]
    if args.out:
        write_csv(args.out, header, rows)
    else:
        sys.stdout.write(csv_text(header, rows))
    return 0


def _spec_with_overrides(args, **changes) -> ExperimentSpec:
    """The --config spec with the command-line overrides, and the changes
    the command parsed itself, applied through dataclasses.replace, so
    ExperimentSpec validates the result again."""
    if args.seeds is not None:
        changes["seeds"] = _parse_int_list(args.seeds, "--seeds")
    if args.c is not None:
        changes["c"] = args.c
    if args.iterations is not None:
        changes["iterations"] = args.iterations
    if args.out is not None:
        changes["out"] = args.out
    return replace(load_spec(args.config), **changes)


def _print_summary(summary: dict) -> None:
    print(f"[{summary['label']}] wrote {summary['out']}")
    print(f"  best expert {summary['best_expert']}, "
          f"R_bar* = {summary['r_star']:.6f}, gaps = "
          + ", ".join(f"{g:.4f}" for g in summary["gaps"]))
    print(f"  mean final regret {summary['mean_final_regret']:.3f}; "
          f"theory bound: {summary['bound_status']}")


def cmd_run(args) -> int:
    changes = {}
    if args.t0 is not None:
        if "," in args.t0:
            raise _UsageError("run takes a single --t0; use sweep for a list")
        [changes["t0"]] = _parse_int_list(args.t0, "--t0")
    spec = _spec_with_overrides(args, **changes)
    summary = run_spec(spec, workers=args.workers)
    _print_summary(summary)
    return 0


def cmd_sweep(args) -> int:
    spec = _spec_with_overrides(args)
    t0_values = list(DEFAULT_T0_SWEEP) if args.t0 is None \
        else _parse_int_list(args.t0, "--t0")
    result = sweep_spec(spec, t0_values, workers=args.workers)
    for summary in result["runs"]:
        _print_summary(summary)
    print(f"[{result['label']}] combined files under {result['out']}")
    return 0


def cmd_bench(args) -> int:
    """Write the benchmark grid, MDP, trained experts and canonical specs."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = benchmark_config()
    (out / "benchmark.grid").write_text(format_layout(config))
    mdp = build_gridworld(config)
    save_mdp(mdp, out / "mdp.json")
    experts = build_experts(mdp, config)
    expert_files = []
    for policy in experts:
        name = f"expert_{policy.expert_id}.json"
        save_policy(policy, out / name)
        expert_files.append(name)

    specs = canonical_experiments(out_dir=".")
    spec_files = []
    for spec in specs:
        spec.layout = "benchmark.grid"
        name = ("perturbation.json" if spec.label == "perturbation"
                else f"sweep_t0_{spec.t0}.json")
        save_spec(spec, out / name)
        spec_files.append(name)
    # the first canonical spec is the sweep at its smallest T0
    save_spec(replace(specs[0], label="sweep", out="./sweep"),
              out / "sweep_base.json")

    print(f"benchmark materialized under {out}")
    print("  grid + mdp.json + " + ", ".join(expert_files))
    print("  specs: " + ", ".join(spec_files) + ", sweep_base.json")
    print("next steps:")
    print(f"  mdpbandit analyze {out}/mdp.json "
          + " ".join(f"{out}/{f}" for f in expert_files))
    print(f"  mdpbandit sweep --config {out}/sweep_base.json --t0 "
          + ",".join(str(v) for v in DEFAULT_T0_SWEEP))
    print(f"  mdpbandit run --config {out}/perturbation.json")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="mdpbandit",
                     description="expert selection over finite MDPs")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("analyze",
                       help="certified chain profiles for experts on an MDP")
    p.add_argument("mdp", help="MDP definition file (JSON)")
    p.add_argument("expert", nargs="+", help="expert policy files (JSON)")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_analyze)

    for name, func, help_text in (
            ("run", cmd_run, "run one experiment spec"),
            ("sweep", cmd_sweep, "run a spec across several T0 values")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment spec JSON")
        p.add_argument("--seeds", help="comma-separated seed list override")
        p.add_argument("--t0", help="T0 override (run: one integer; "
                       "sweep: comma-separated list)")
        p.add_argument("--c", type=float, help="schedule slope override")
        p.add_argument("--iterations", type=int, help="iteration count "
                       "override")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel seed workers (default 1)")
        p.set_defaults(func=func)

    p = sub.add_parser("bench",
                       help="materialize the benchmark and canonical specs")
    p.add_argument("--out", default="bench", help="target directory "
                   "(default ./bench)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotErgodicError, GapTooSmallError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
