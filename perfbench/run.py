"""Benchmark for mdpbandit: runs the CLI on seeded workloads and times it.

Usage, from the repository root:

    python3 perfbench/run.py --workload canonical --seed 1 --seconds 30 \
        --trace 0

Workloads (see README.md for why each exists):
  canonical    sweep over T0 = 4, 16, 64 and the perturbation run
  short-pulls  constant 8-step pulls, many iterations
  stochastic   generated epsilon-mixed experts, two-point rewards
  certify      analyze on the benchmark MDP and on the stochastic MDP

Every CLI invocation is a fresh interpreter (perfbench/child.py).  With
--trace 0 the run makes serial passes and passes with two workers, in the
order serial, w2, w2, serial, while the next pass of its kind fits in
--seconds (at least two of each), and reports the end-to-end metrics.
With --trace 1 the run makes rounds of an untraced serial pass, a
two-worker pass and a traced serial pass while another round fits (at
least one), and reports the per-layer metrics of the
traced passes, their self-time shares, and the tracing overhead and pool
speedup paired within each round.

Every output of the first serial pass is checked (checks.py); every later
pass, the two-worker and traced ones included, must reproduce its CSV files
byte for byte.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A fuller record (environment,
per-pass samples, CSV digests, failures) is written to
.perfbench/results/<workload>-seed<n>-trace<t>.json.
"""

import os

# BLAS pools of one thread, inherited by every child, so that two workers
# use two cores
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from layers import PER_LAYER, SpanTable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
HARD_LIMIT_S = 165.0   # every child is killed by then; the run must end by 180
MIN_PASSES = 2         # of each kind in a --trace 0 run, even past --seconds

END_TO_END = {"setup_s": "s", "wall_s": "s", "wall_s_w2": "s",
              "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(inputs.SIZES), default="full",
                   help="input size; 'smoke' is for the smoke test only")
    return p.parse_args(argv)


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "platform": platform.platform(),
    }


class Runner:
    """Runs passes of one workload and keeps their samples and failures."""

    def __init__(self, workload, work: Path, deadline_hard: float):
        self.workload = workload
        self.work = work
        self.deadline_hard = deadline_hard
        self.count = 0
        self.passes = []
        self.reference = None      # CSV digests of the first serial pass
        self.content_failures = {}
        self.attempted = 0
        self.failed = 0

    # -- processes ---------------------------------------------------------

    def _spawn(self, args, record: Path, mode: str, trace_id: str):
        argv = [sys.executable, str(HERE / "child.py"), str(record), mode,
                "--"] + args
        env = dict(os.environ, PERFBENCH_TRACE_ID=trace_id)
        err = open(record.with_suffix(".stderr"), "w")
        try:
            env["PERFBENCH_SPAWN"] = repr(time.monotonic())
            return subprocess.Popen(argv, cwd=ROOT, env=env,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    start_new_session=True)
        finally:
            err.close()

    def _wait(self, procs) -> dict:
        """Wait for every process; returns {pid: (exit code, maxrss MB)}.
        Processes still running at the hard deadline are killed with their
        process group (pool workers included), and TimeoutError is raised
        once all have been reaped."""
        killed = threading.Event()

        def kill_all():
            killed.set()
            for proc in procs:
                _kill_group(proc)

        timer = threading.Timer(
            max(0.0, self.deadline_hard - time.monotonic()), kill_all)
        timer.start()
        done = {}
        try:
            for proc in procs:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                done[proc.pid] = (proc.returncode, usage.ru_maxrss / 1024.0)
        finally:
            timer.cancel()
            for proc in procs:
                if proc.pid not in done:
                    _kill_group(proc)
                    proc.wait()
        if killed.is_set():
            raise TimeoutError
        return done

    # -- passes ------------------------------------------------------------

    def run_pass(self, kind: str) -> dict:
        """kind: serial, w2 or traced."""
        mode = "trace" if kind == "traced" else "warm"
        self.count += 1
        pass_dir = self.work / f"pass{self.count}-{kind}"
        pass_dir.mkdir(parents=True)
        steps = self.workload.parallel if kind == "w2" \
            else self.workload.serial
        setups = []            # one per process: spawn to end of set-up
        wall = rss = 0.0
        errors = []
        table = SpanTable() if mode == "trace" else None
        for k, step in enumerate(steps):
            procs, records = [], []
            for j, template in enumerate(step):
                args = [a.replace("{out}", str(pass_dir)) for a in template]
                record = pass_dir / f"record-{k}-{j}.json"
                trace_id = f"{self.workload.name}/{kind}{self.count}/" \
                           f"{args[0]}{k}"
                procs.append(self._spawn(args, record, mode, trace_id))
                records.append(record)
            try:
                outcome = self._wait(procs)
            except TimeoutError:
                errors.append("killed at the hard time limit")
                break
            times = []
            for proc, record in zip(procs, records):
                code, maxrss = outcome[proc.pid]
                rss = max(rss, maxrss)
                info = json.loads(record.read_text()) \
                    if record.exists() else {}
                if code != 0 or info.get("t_setup") is None:
                    tail = record.with_suffix(".stderr").read_text()[-400:]
                    errors.append(f"{' '.join(proc.args[5:7])}: exit {code}"
                                  f"; {tail.strip()}")
                    continue
                times.append(info)
                spans = Path(str(record) + ".spans.json")
                if table is not None and spans.exists():
                    table.add(json.loads(spans.read_text())["spans"],
                              info["t_setup"])
            setups += [t["t_setup"] - t["t_spawn"] for t in times]
            if len(times) == len(procs):
                # side by side, the step works from when all are set up
                wall += max(t["t_end"] for t in times) \
                    - max(t["t_setup"] for t in times)

        result = {"kind": kind, "setup_s": setups, "wall_s": wall,
                  "peak_rss_mb": rss, "errors": errors,
                  "csv_bytes": checks.csv_bytes(pass_dir),
                  "digests": checks.digests(pass_dir)}
        if table is not None:
            result["layers"] = table.metrics()
            result["shares"] = table.shares()
        self._account(result, pass_dir)
        shutil.rmtree(pass_dir, ignore_errors=True)
        self.passes.append(result)
        return result

    def _account(self, result: dict, pass_dir: Path) -> None:
        """Charge failed operations: the reference pass is checked for
        content; every other pass must reproduce its CSV files."""
        ops = self.workload.operations()
        failed = {}
        if result["errors"]:
            failed = {op: result["errors"] for op in self._all_ops()}
        elif self.reference is None:
            self.reference = result["digests"]
            self.content_failures = self._check_content(pass_dir)
        else:
            for rel in sorted(set(self.reference) | set(result["digests"])):
                if self.reference.get(rel) != result["digests"].get(rel):
                    for op in self._ops_of(rel):
                        failed.setdefault(op, []).append(
                            f"{rel} differs from the first serial pass")
        for op, reasons in self.content_failures.items():
            failed.setdefault(op, []).extend(reasons)
        result["failed_ops"] = {op: sorted(set(r)) for op, r in failed.items()}
        self.attempted += ops
        self.failed += len(failed)

    def _all_ops(self):
        ops = [f"{s.label}/seed{seed}" for s in self.workload.specs
               for seed in s.seeds]
        ops += [f"{csv}#{i}" for csv, _, experts in self.workload.analyses
                for i in range(len(experts))]
        return ops

    def _ops_of(self, rel: str):
        for spec in self.workload.specs:
            if rel.startswith(spec.out + "/"):
                name = rel[len(spec.out) + 1:]
                seeds = [s for s in spec.seeds if name.endswith(
                    f"_seed{s}.csv")] or spec.seeds
                return [f"{spec.label}/seed{s}" for s in seeds]
        for csv, _, experts in self.workload.analyses:
            if rel == csv:
                return [f"{csv}#{i}" for i in range(len(experts))]
        # combined files of a sweep belong to every spec beneath them
        parent = rel.rsplit("/", 1)[0] + "/" if "/" in rel else ""
        return [f"{s.label}/seed{seed}" for s in self.workload.specs
                if s.out.startswith(parent) for seed in s.seeds] \
            or self._all_ops()

    def _check_content(self, pass_dir: Path) -> dict:
        failures = {}
        cache = {}
        try:
            for spec in self.workload.specs:
                for seed, reasons in checks.check_run(
                        spec, pass_dir, cache).items():
                    failures[f"{spec.label}/seed{seed}"] = reasons
            for csv, mdp, experts in self.workload.analyses:
                for i, reasons in checks.check_analysis(
                        pass_dir / csv, mdp, experts).items():
                    failures[f"{csv}#{i}"] = reasons
        except Exception as exc:  # noqa: BLE001 - a malformed output
            failures = {op: [f"check raised {type(exc).__name__}: {exc}"]
                        for op in self._all_ops()}
        return failures


def _kill_group(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(samples: dict, units: dict) -> dict:
    return {name: {"value": _median(samples[name]), "unit": units[name]}
            for name in units}


def report(name: str, values: list, unit: str) -> str:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        spread = f"  q1 {q1:.6g}  q3 {q3:.6g}"
    else:
        spread = ""
    return f"  {name:38s} {_median(values):>14.6g} {unit:6s} " \
           f"(median of {len(values)}){spread}"


def run(args) -> dict:
    t_begin = time.monotonic()
    env = environment()
    work = STATE / f"work-{os.getpid()}"
    try:
        workload = inputs.build(args.workload, args.seed, args.size, ROOT,
                                work / "inputs")
        runner = Runner(workload, work, t_begin + HARD_LIMIT_S)
        deadline = t_begin + args.seconds

        def time_left(last: float) -> bool:
            return time.monotonic() + last <= deadline

        if args.trace == 0:
            # the order serial, w2, w2, serial lets a drift of the host over
            # the run weigh on both kinds alike
            last = {}          # duration of the last pass of each kind
            count = dict.fromkeys(("serial", "w2"), 0)
            for kind in itertools.cycle(("serial", "w2", "w2", "serial")):
                if count[kind] >= MIN_PASSES and not time_left(last[kind]):
                    break
                count[kind] += 1
                start = time.monotonic()
                runner.run_pass(kind)
                last[kind] = time.monotonic() - start
        else:
            while True:
                start = time.monotonic()
                for kind in ("serial", "w2", "traced"):
                    runner.run_pass(kind)
                if not time_left(time.monotonic() - start):
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    by_kind = {k: [p for p in runner.passes if p["kind"] == k]
               for k in ("serial", "w2", "traced")}
    samples = {
        # serial processes only: side by side, set-ups contend for the cores
        "setup_s": [s for p in by_kind["serial"] for s in p["setup_s"]],
        "wall_s": [p["wall_s"] for p in by_kind["serial"]],
        "wall_s_w2": [p["wall_s"] for p in by_kind["w2"]],
        "peak_rss_mb": [p["peak_rss_mb"] for p in by_kind["serial"]],
    }
    units = END_TO_END
    shares = None
    if args.trace == 1:
        traced = by_kind["traced"]
        samples = {name: [p["layers"][name] for p in traced]
                   for name in traced[0]["layers"]}
        samples["experiment.csv.bytes"] = [p["csv_bytes"] for p in traced]
        samples["trace.wall_s"] = [p["wall_s"] for p in traced]
        # paired within each round, so that drift of the host between
        # rounds cancels
        rounds = list(zip(by_kind["serial"], by_kind["w2"], traced))
        samples["trace.overhead_s"] = [t["wall_s"] - s["wall_s"]
                                       for s, _, t in rounds]
        samples["experiment.pool.speedup"] = [
            s["wall_s"] / w["wall_s"] for s, w, _ in rounds if w["wall_s"]]
        shares = {phase: {layer: _median([p["shares"][phase][layer]
                                          for p in traced])
                          for layer in layers}
                  for phase, layers in traced[0]["shares"].items()}
        units = PER_LAYER

    metrics = summarize(samples, units)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds,
        "environment": env,
        "error_rate": {"value": runner.failed / runner.attempted,
                       "base": f"{runner.failed} failed of "
                               f"{runner.attempted} operations "
                               f"(seed runs and expert profiles)"},
        "samples": samples,
        "self_time_shares": shares,
        "digests": runner.reference,
        "passes": [{k: v for k, v in p.items() if k != "digests"}
                   for p in runner.passes],
        "result": result,
    }
    STATE.mkdir(exist_ok=True)
    results = STATE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")

    print(f"mdpbandit benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(runner.passes)} passes in "
          f"{time.monotonic() - t_begin:.1f} s")
    print(f"  environment: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, nproc {env['nproc']}, load "
          f"{env['loadavg_at_start'][0]:.2f}, git {env['git_sha']}")
    for name, unit in units.items():
        print(report(name, samples[name], unit))
    for phase, share in (shares or {}).items():
        print(f"  self-time shares of traced {phase} (median): "
              + ", ".join(f"{name} {100 * v:.1f}%" for name, v in sorted(
                  share.items(), key=lambda kv: -kv[1]) if v >= 0.005))
    print(f"  error_rate {detail['error_rate']['value']:.6g} "
          f"({detail['error_rate']['base']})")
    for p in runner.passes:
        for op, reasons in p.get("failed_ops", {}).items():
            print(f"  FAILED {p['kind']} {op}: {'; '.join(reasons)}")
    print(f"  {len(runner.reference or {})} CSV digests and the full record "
          f"in {out.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mdpbandit" / "__init__.py").is_file():
        print(f"error: no mdpbandit sources under {ROOT / 'src'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
