"""fflab benchmark: one workload, measured from outside the package.

    python3 perfbench/run.py --workload sweep_all --seed 0 --seconds 55 --trace 0

Run from anywhere in a source checkout; fflab is taken from ``src/`` next to
this directory, never from an installed copy.  Every fflab call is a fresh
``python -m fflab.cli`` process, so set-up is paid as a user pays it.  With
``--trace 0`` the last stdout line holds every end-to-end metric; with
``--trace 1`` it holds the per-layer metrics of a traced run (tracer.py)
next to an untraced one.  Metric names and units come from BENCHMARK.json.

Every repetition is gated: exit code 0, every status pass or report_only,
the expected run count, report bytes identical across repetitions (traced
ones too), and no file of the checkout changed.  A breach counts every run
of the sweep it hit as failed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

# The 33 scenarios whose runners never reach isotropic enumeration.
ANALYSIS_IDS = (
    "BR-1", "BR-2", "BR-3", "EN-1", "EN-2", "EN-3", "EN-4", "EQ-1", "EX-1",
    "EX-2", "FT-1", "FT-2", "FT-3", "IN-1", "IN-2", "KK-1", "KK-2", "KK-3",
    "KK-4", "MAIN-1", "MT-1", "MT-2", "PL-1", "PL-2", "PL-3", "QF-3", "QF-4",
    "ST-1", "ST-2", "ST-3", "ST-4", "ST-5", "ST-6",
)
# (scenario, prime, dim) runs per sweep on the default grid
SWEEP_ALL_RUNS = 193
ANALYSIS_RUNS = 156

WORKLOADS = ("sweep_all", "sweep_analysis")
OK_STATUSES = ("pass", "report_only")
# fresh processes timed for setup_s, which is their median
SETUP_PROBES = 11
SETUP_CODE = "import fflab.harness as h; h.BaselineStore.load()"
ENV_CODE = """
import json, platform, fflab, fflab.harness as h, numpy as np
h.BaselineStore.load()
try:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (TypeError, KeyError):
    blas = "unknown"
print(json.dumps({"fflab_file": fflab.__file__, "python": platform.python_version(),
                  "numpy": np.__version__, "blas": blas}))
"""
# Children run BLAS on one thread.  On a 2-core machine two OpenBLAS
# threads made sweep_all wall time swing by +-15% between identical runs
# (17.6-23.6 s) against +-3% (18.5-19.8 s) on one thread, and were not
# faster on average.  One thread also leaves cores to a future --jobs pool.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# The whole run, including its slowest child, must end well inside 180 s.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot measure in this directory."""


@dataclass
class Job:
    """The fflab sweep process of a repetition."""
    key: str
    args: list
    expected_runs: int


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Outcome:
    """One job's process plus what the gate found in its output."""
    job: Job
    proc: Proc
    traced: bool
    digest: str = ""
    runtimes_ms: dict = field(default_factory=dict)
    bad_runs: int = 0
    breach: str = ""
    summary: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.job.expected_runs if self.breach else self.bad_runs


def workload_job(workload: str, seed: int) -> Job:
    if workload == "sweep_all":
        return Job(f"seed={seed}", ["sweep", "--ids", "all", "--seed", str(seed)],
                   SWEEP_ALL_RUNS)
    return Job(f"seed={seed}", ["sweep", "--ids", ",".join(ANALYSIS_IDS),
                                "--seed", str(seed)], ANALYSIS_RUNS)


# ---------------------------------------------------------------------------
# processes


class Runner:
    """Starts fflab processes inside a scratch directory of the checkout and
    waits for each, so no child outlives the benchmark."""

    def __init__(self, scratch: Path, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        # cache bytecode under the work directory, so set-up is timed warm
        # as for an installed package and nothing is written under src/
        self.env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update(dict.fromkeys(THREAD_VARS, "1"))
        self._n = 0

    def fresh_dir(self) -> Path:
        self._n += 1
        path = self.scratch / f"j{self._n}"
        path.mkdir()
        return path

    def run(self, argv: list, cwd: Path) -> tuple:
        """Run argv to completion; return (Proc, stdout text)."""
        out_path = cwd / "stdout.txt"
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stats = Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0)
        return stats, out_path.read_text(errors="replace")

    def fflab(self, job: Job, traced: bool) -> Outcome:
        cwd = self.fresh_dir()
        args = [*job.args, "--out", str(cwd / "out")]
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"),
                    str(cwd / "trace.json"), "--", *args]
        else:
            argv = [sys.executable, "-m", "fflab.cli", *args]
        proc, stdout = self.run(argv, cwd)
        outcome = Outcome(job, proc, traced)
        check_outcome(outcome, cwd, stdout)
        if traced and not outcome.breach:
            outcome.summary = json.loads((cwd / "trace.json").read_text())
        shutil.rmtree(cwd)
        return outcome


def check_outcome(o: Outcome, cwd: Path, stdout: str) -> None:
    """Fill in the digest, runtimes and failures of one finished job."""
    if o.proc.code != 0:
        o.breach = f"exit code {o.proc.code}: {stdout.strip()[-300:]}"
        return
    report = cwd / "out" / "report.json"
    summary = cwd / "out" / "summary.csv"
    try:
        data = report.read_bytes()
        reports = json.loads(data)["reports"]
        rows = summary.read_text().splitlines()[1:]
    except (OSError, ValueError, KeyError) as exc:
        o.breach = f"unreadable report: {exc}"
        return
    if len(reports) != o.job.expected_runs or len(rows) != len(reports):
        o.breach = (f"{len(reports)} reports and {len(rows)} summary rows, "
                    f"expected {o.job.expected_runs}")
        return
    o.digest = hashlib.sha256(data).hexdigest()
    o.bad_runs = sum(r["status"] not in OK_STATUSES for r in reports)
    for row in rows:
        scenario, prime, dim, _, seed, _, _, runtime_ms = row.split(",")
        o.runtimes_ms[f"{scenario} p={prime} d={dim} seed={seed}"] = float(runtime_ms)


def tree_state(root: Path) -> dict:
    """(size, mtime) of every file of the checkout outside the work dirs."""
    skip = {WORK, root / ".git", root / ".bench_build"}
    state = {}
    for dirpath, dirnames, filenames in os.walk(root):
        here = Path(dirpath)
        dirnames[:] = [d for d in dirnames if here / d not in skip]
        for name in filenames:
            st = (here / name).lstat()
            state[str(here / name)] = (st.st_size, st.st_mtime_ns)
    return state


# ---------------------------------------------------------------------------
# measurement


class Gate:
    """Counts runs and failures, and checks determinism and the checkout."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.before = tree_state(ROOT)
        self.breaches = []

    def admit(self, outcomes: list) -> None:
        for o in outcomes:
            first = self.digests.setdefault(o.job.key, o.digest)
            if not o.breach and o.digest != first:
                o.breach = "output differs from an earlier repetition"
            if o.breach:
                self.breaches.append(f"{o.job.key}: {o.breach}")
        changed = tree_state(ROOT) != self.before
        if changed:
            self.breaches.append("files of the checkout changed")
            self.before = tree_state(ROOT)
        for o in outcomes:
            self.attempted += o.job.expected_runs
            self.failed += o.job.expected_runs if changed else o.failed


def percentile(values, q: int) -> float:
    """The q-th percentile; 0 when no run produced a time."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_ms(reps: list) -> dict:
    """Per-run time: the mean over repetitions of each (scenario, p, d),
    then percentiles over the sweep's runs."""
    per_run = {}
    for o in reps:
        for key, ms in o.runtimes_ms.items():
            per_run.setdefault(key, []).append(ms)
    means = [statistics.fmean(v) for v in per_run.values()]
    return {"run_ms_p50": percentile(means, 50),
            "run_ms_p90": percentile(means, 90)}


def setup_time(runner: Runner) -> float:
    """Median wall time of fresh processes that import fflab, build the
    registry and load the baseline store."""
    times = []
    for _ in range(SETUP_PROBES):
        proc, out = runner.run([sys.executable, "-c", SETUP_CODE], runner.scratch)
        if proc.code != 0:
            raise BenchError(f"set-up probe failed: {out.strip()[-300:]}")
        times.append(proc.wall_s)
    return statistics.median(times)


def environment(runner: Runner) -> dict:
    """Warm the bytecode cache and record where and on what we measure."""
    proc, out = runner.run([sys.executable, "-c", ENV_CODE], runner.scratch)
    if proc.code != 0:
        raise BenchError(f"cannot import fflab from {SRC}: {out.strip()[-300:]}")
    env = json.loads(out.strip().splitlines()[-1])
    if not Path(env["fflab_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"fflab imported from {env['fflab_file']}, not {SRC}")
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env.update(
        platform=platform.platform(), nproc=len(os.sched_getaffinity(0)),
        cpu_model=cpu_model, threads={v: runner.env[v] for v in THREAD_VARS},
        git=git_state())
    return env


def git_state() -> dict:
    def git(*args):
        return subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"sha": None, "dirty": None}
        sha = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
        return {"sha": sha, "dirty": dirty}
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            runner: Runner) -> tuple:
    """Repeat the workload for about ``seconds`` and return (metrics, gate).

    Untraced: at least two repetitions, then more while the next one would
    end closer to the budget than not.  Traced: pairs of one untraced and
    one traced repetition, at least one pair.  ``setup_s`` is measured
    before the budget starts."""
    gate = Gate()
    metrics = {}
    if not trace:
        metrics["setup_s"] = setup_time(runner)
    job = workload_job(workload, seed)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        # each traced repetition runs right after its untraced twin, so that
        # slow spells of the machine hit both sides of the overhead alike
        outcomes = [runner.fflab(job, traced=t)
                    for t in ((False, True) if trace else (False,))]
        gate.admit(outcomes)
        plain.append(outcomes[0])
        if trace:
            traced.append(outcomes[1])
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(plain)
        if time.monotonic() + per_rep > runner.deadline:
            break
        if (trace or len(plain) >= 2) and elapsed + per_rep / 2 >= seconds:
            break
    walls = [o.proc.wall_s for o in plain]
    for i, o in enumerate(plain):
        print(f"repetition {i}: wall {o.proc.wall_s:.3f} s, cpu {o.proc.cpu_s:.3f} s, "
              f"rss {o.proc.rss_mb:.1f} MB")
    if not trace:
        # means, not medians: the host switches between a fast and a slow
        # speed every few to some tens of seconds.  The median of a run's
        # repetitions falls in one mode or the other; the mean moves only
        # with the share of slow spells, which varies less between runs
        metrics.update(wall_s=statistics.fmean(walls),
                       cpu_s=statistics.fmean(o.proc.cpu_s for o in plain),
                       peak_rss_mb=max(o.proc.rss_mb for o in plain), **run_ms(plain))
        return metrics, gate
    layer = traced_metrics(traced, gate)
    traced_wall = statistics.fmean(o.proc.wall_s for o in traced)
    layer["trace.overhead_s"] = traced_wall - statistics.fmean(walls)
    return layer, gate


def traced_metrics(traced: list, gate: Gate) -> dict:
    """Counts must repeat exactly across traced repetitions.  Times are
    means, so that layer self times plus ``trace.unattributed_s`` still add
    up to ``trace.wall_s``."""
    per_rep = [tracer.derive(o.summary) for o in traced]
    out = {}
    for key in per_rep[0]:
        values = [r[key] for r in per_rep]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                gate.breaches.append(f"{key} differs across traced repetitions: {values}")
                gate.failed += 1
            out[key] = values[0]
        else:
            out[key] = statistics.fmean(values)
    return out


# ---------------------------------------------------------------------------
# entry point


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"{spec_path} is missing")
    return json.loads(spec_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        spec = load_spec()
        if not (SRC / "fflab" / "cli.py").is_file():
            raise BenchError(f"no fflab source under {SRC}")
        declared = spec["per_layer" if args.trace else "end_to_end"]
        WORK.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        try:
            runner = Runner(scratch, deadline)
            env = environment(runner)
            print("env " + json.dumps(env, sort_keys=True), flush=True)
            values, gate = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), runner)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: BENCHMARK.json declares unmeasured {missing}", file=sys.stderr)
        return 2
    for breach in gate.breaches:
        print(f"breach: {breach}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:52s} {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": gate.failed == 0 and not gate.breaches,
                      "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
