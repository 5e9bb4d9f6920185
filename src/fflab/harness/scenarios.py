"""Scenario engine: the registry of every checkable statement in the
package, each under a stable id, and the one path that runs and judges
a scenario.  The scenarios themselves are declared in runners.py, each
with @scenario on the runner that checks it.

Three kinds:

- exact_identity: chains that hold with constant exactly 1 at every
  size (transform closed forms, norm identities, operator-norm
  formulas, geometric transport identities).  The metric is the worst
  deviation across trials; pass iff it stays under the tolerance.
- constant_tracked: inequalities whose constant is bounded but not 1.
  The runner measures the constant over a deterministic family and the
  value is compared against the stored constant (baselines.py).  At the
  scenario's provenance point, which the registry alone states, the run
  re-derives the constant and reports it (report_only), failing only on
  drift; elsewhere it is judged against SLACK times the constant.
- exponent_arith: closed-form exponent bookkeeping, checked by rational
  arithmetic; the metric is the worst residual.

The runner contract: a runner is a generator function of one RunContext
that yields one (metric, fields) pair per case it checks, where fields
is a plain dict of named witness scalars.  The harness alone reduces the
cases (_measure): it keeps the first strictly largest metric, a NaN
beats every number and is never replaced, and only the kept case's
fields become the witness.  A run that yields no case fails.  A runner
that checks fewer trials than it was asked for (an exhaustive family,
or MX-1's schedule) sets ctx.trials to the count it ran, so the report
row, and the drift check of a tracked scenario, state it.

All randomness flows through RunContext.trial_rng, which hashes
(master seed, scenario id, trial index), so per-trial results are
independent of execution order and worker count.  A runner loops over
ctx.trial_rngs(), or draws one stream from ctx.trial_rng(0) (QF-1, ST-3,
PL-3, EX-3).  A draw repeated until a test accepts it goes through
core.draw_until, which fails the run after MAX_DRAWS rejections.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ..core import PrimeField
from ..errors import FFLabError, UnknownScenario
from .baselines import SLACK, BaselineEntry, BaselineStore, BaselineMissing, oracle_hash
from .reporting import ScenarioReport, witness_values


def trial_seed(master: int, scenario_id: str, trial: int) -> int:
    """Fixed fan-out hash: the per-trial seed depends only on these three."""
    h = hashlib.sha256(f"{master}:{scenario_id}:{trial}".encode()).hexdigest()
    return int(h[:8], 16)


@dataclass
class RunContext:
    scenario_id: str
    prime: int
    dim: int
    trials: int
    seed: int

    def __post_init__(self):
        self.field = PrimeField(self.prime)

    def trial_rng(self, trial: int) -> np.random.Generator:
        return np.random.default_rng(
            trial_seed(self.seed, self.scenario_id, trial)
        )

    def trial_rngs(self):
        """(t, trial_rng(t)) for every trial t of the run, in order."""
        for t in range(self.trials):
            yield t, self.trial_rng(t)


# ---------------------------------------------------------------------------
# the registry


@dataclass(frozen=True)
class Scenario:
    id: str
    kind: str
    claim: str
    runner: Callable
    primes: tuple
    dims: tuple
    default_trials: int
    tolerance: float = 1e-9
    direction: Optional[str] = None      # constant_tracked: upper | floor
    provenance: Optional[tuple] = None   # constant_tracked: (p, d, trials, seed)

    def __post_init__(self):
        if self.kind not in ("exact_identity", "constant_tracked",
                             "exponent_arith"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind == "constant_tracked":
            if self.direction not in ("upper", "floor") or self.provenance is None:
                raise ValueError(f"{self.id}: tracked scenarios need a "
                                 "direction and provenance")


REGISTRY: dict = {}


def scenario(id: str, kind: str, claim: str, primes: tuple, dims: tuple,
             default_trials: int, *, tolerance: float = 1e-9,
             direction: Optional[str] = None, provenance: Optional[tuple] = None):
    """Decorator that registers its runner in REGISTRY as the scenario id,
    with these fields, and returns the runner unchanged.  An id that is
    registered already raises."""
    def register(runner):
        if id in REGISTRY:
            raise ValueError(f"duplicate scenario id {id}")
        REGISTRY[id] = Scenario(id, kind, claim, runner, primes, dims, default_trials,
                                tolerance, direction, provenance)
        return runner
    return register


# ---------------------------------------------------------------------------
# execution


def _scenario(sid: str) -> Scenario:
    if sid not in REGISTRY:
        raise UnknownScenario(f"unknown scenario id {sid!r}; registered ids: "
                              + ", ".join(sorted(REGISTRY)))
    return REGISTRY[sid]


def _grid(sc: Scenario, primes, dims) -> list:
    """The (p, d) points of sc's grid with p among primes and d among
    dims, primes outer, in the order requested.  Raises when there are
    none, so a request never runs nothing in silence."""
    points = [(p, d) for p in primes if p in sc.primes for d in dims if d in sc.dims]
    if not points:
        raise ValueError(f"{sc.id} runs at primes {sc.primes} and dims {sc.dims}; "
                         f"none of its points has a prime in {tuple(primes)} "
                         f"and a dim in {tuple(dims)}")
    return points


def run_scenario(scenario_id: str, prime: Optional[int] = None,
                 dim: Optional[int] = None, trials: Optional[int] = None,
                 seed: int = 0) -> ScenarioReport:
    """Execute one scenario at one parameter point.

    Results are deterministic in (scenario_id, prime, dim, trials, seed):
    randomness flows through the per-trial fan-out hash only.  Bad
    parameters and baseline problems raise before the runner starts; a
    runner that raises gives a failing report naming the exception.
    """
    sc = _scenario(scenario_id)
    prime = sc.primes[0] if prime is None else prime
    dim = sc.dims[0] if dim is None else dim
    trials = sc.default_trials if trials is None else trials
    _grid(sc, [prime], [dim])
    if trials < 1:
        raise ValueError("trials must be at least 1")

    constant = None
    if sc.kind == "constant_tracked":
        constant = BaselineStore.load().verify(scenario_id, sc.runner)
    return _run_checked(sc, prime, dim, trials, seed, constant)


def _measure(sc: Scenario, ctx: RunContext):
    """Run sc's runner at ctx and reduce its cases to (metric, witness).

    The first strictly largest metric is kept; a NaN beats every number
    and is never replaced.  Only the kept case's fields are built into a
    witness, None when they are empty.  A run that yields no case
    raises, so it cannot pass on a metric nothing produced."""
    metric = fields = None
    for value, kw in sc.runner(ctx):
        if fields is None or value > metric or (
                math.isnan(value) and not math.isnan(metric)):
            metric, fields = value, kw
    if fields is None:
        raise FFLabError(f"{sc.id} yielded no case at p = {ctx.prime}, "
                         f"d = {ctx.dim}")
    return metric, witness_values(**fields) if fields else None


def _run_checked(sc: Scenario, prime: int, dim: int, trials: int, seed: int,
                 constant: Optional[float]) -> ScenarioReport:
    """Run sc at one validated point and judge the result.  A tracked
    scenario comes with its verified stored constant; its drift check
    runs when the point, with the trials the run states, is the
    scenario's provenance."""
    ctx = RunContext(sc.id, prime, dim, trials, seed)
    tracked = sc.kind == "constant_tracked"
    start = time.perf_counter()
    error = None
    try:
        metric, wit = _measure(sc, ctx)
    except Exception as exc:  # a runner fault fails this run, not the sweep
        where = traceback.extract_tb(exc.__traceback__)[-1]
        metric, wit, error = math.nan, None, witness_values(
            error=type(exc).__name__, message=str(exc),
            raised_in=f"{where.name} ({Path(where.filename).name}:{where.lineno})")
    runtime_ms = (time.perf_counter() - start) * 1e3

    status, witness = "pass", None
    if error is not None:
        status, witness = "fail", error
    elif not tracked:
        if not (math.isfinite(metric) and metric <= sc.tolerance):
            status, witness = "fail", wit or witness_values(max_deviation=float(metric))
    elif not math.isfinite(metric):
        status, witness = "fail", witness_values(measured=metric, stored=constant)
    elif (prime, dim, ctx.trials, seed) == sc.provenance:
        drift = abs(metric - constant)
        if drift > 1e-9:
            status, witness = "fail", witness_values(
                measured=metric, stored=constant, drift=drift)
        else:
            status = "report_only"
    else:
        ok = (metric <= SLACK * constant + 1e-12 if sc.direction == "upper"
              else metric >= constant - 1e-12)
        if not ok:
            status, witness = "fail", wit or witness_values(
                measured=metric, baseline=constant)
    return _report(sc, prime, dim, ctx.trials, seed, status, metric, witness,
                   constant, runtime_ms)


def _report(sc: Scenario, prime: int, dim: int, trials: int, seed: int,
            status: str, metric: float, witness: Optional[dict],
            constant: Optional[float], runtime_ms: float = 0.0) -> ScenarioReport:
    """The one builder of a ScenarioReport.  Every row carries its kind's
    fields: an untracked scenario's tolerance, or a tracked one's stored
    constant, None when its entry is missing, and SLACK."""
    tracked = sc.kind == "constant_tracked"
    return ScenarioReport(
        scenario=sc.id, kind=sc.kind, prime=prime, dim=dim,
        trials=trials, seed=seed, status=status,
        metric_name="measured_constant" if tracked else "max_deviation",
        metric=float(metric), tolerance=None if tracked else sc.tolerance,
        baseline_constant=constant,
        baseline_slack=SLACK if tracked else None,
        witness=witness, runtime_ms=runtime_ms)


def sweep(ids, primes, dims, trials: Optional[int] = None, seed: int = 0,
          workers: int = 1):
    """Run the cross product of ids with the primes and dims each
    scenario supports.  Returns (reports, any_failed), the reports in the
    order of ids, then primes, then dims.

    Baseline integrity for every tracked id in the list is checked
    before any scenario executes; an id whose baseline is missing gets
    one failing report, with no metric (NaN, JSON null) and an actionable
    message, rather than an abort.

    The runs are grouped by (p, d) point, largest static cost estimate
    first.  With workers > 1 the groups run on that many forked worker
    processes, where runtime_ms includes contention for the cores; a
    worker that dies fails every run it left unfinished.

    An empty list of ids, a repeat in ids, primes or dims, or an id none
    of whose grid points meets primes and dims raises before anything runs.
    """
    ids, primes, dims = list(ids), list(primes), list(dims)
    if not ids:
        raise ValueError("no scenario id selected")
    for what, values in (("scenario id", ids), ("prime", primes), ("dim", dims)):
        if repeated := [v for i, v in enumerate(values) if v in values[:i]]:
            raise ValueError(f"{what} {repeated[0]} is requested more than once")
    if trials is not None and trials < 1:
        raise ValueError("trials must be at least 1")
    store = BaselineStore.load()
    constants, missing, grids = {}, {}, {}
    for sid in ids:
        sc = _scenario(sid)
        grids[sid] = _grid(sc, primes, dims)
        if sc.kind == "constant_tracked":
            try:
                constants[sid] = store.verify(sid, sc.runner)
            except BaselineMissing as exc:
                missing[sid] = str(exc)

    reports, points = [], {}
    for sid in ids:
        sc = REGISTRY[sid]
        if sid in missing:
            reports.append(_report(
                sc, *grids[sid][0], trials or sc.default_trials, seed, "fail",
                math.nan, witness_values(error=missing[sid]), None))
            continue
        for p, d in grids[sid]:
            points.setdefault((p, d), []).append((len(reports), sid, p, d, (
                sc.default_trials if trials is None else trials), constants.get(sid)))
            reports.append(None)
    groups = sorted(points.values(), reverse=True, key=lambda group: sum(
        RUN_COST + trials * p ** d for _, _, p, d, trials, _ in group))
    for group, done in zip(groups, _run_groups(groups, seed, workers), strict=True):
        for run, report in zip(group, done, strict=True):
            reports[run[0]] = report
    failed = any(r.status == "fail" for r in reports)
    return reports, failed


# A run's fixed cost in point-trials: in the default seed-0 sweep a run
# takes about 5 ms plus 1e-4 ms per trial and grid point.
RUN_COST = 50_000


def _run_group(group, seed: int) -> list:
    """Judge one (p, d) group's runs, in-process or in a worker."""
    return [_run_checked(REGISTRY[sid], p, d, trials, seed, constant)
            for _, sid, p, d, trials, constant in group]


def _run_groups(groups, seed: int, workers: int) -> list:
    """Each group's reports, and a failing one for each run that a dead
    worker left unfinished.  Forked workers inherit the registry and the
    verified store; gc.freeze keeps the collector off the pages they
    share, and OpenBLAS resets its thread pool at a fork.

    numpy loads numpy.random and numpy.ma on first use (the first
    trial_rng, the first np.unique).  Both are loaded here, before the
    first group runs and before the fork, so no run's runtime_ms, in any
    worker, pays for them."""
    for name in ("numpy.random", "numpy.ma"):
        importlib.import_module(name)
    workers = min(workers, len(groups))
    if workers <= 1:
        return [_run_group(group, seed) for group in groups]
    # imported here: they add about 25 ms to every import of fflab
    import gc
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    from multiprocessing import get_context
    gc.freeze()
    try:
        with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
            futures = [pool.submit(_run_group, group, seed) for group in groups]
            done = []
            for future, group in zip(futures, groups, strict=True):
                try:
                    done.append(future.result())
                except BrokenProcessPool as exc:
                    done.append([_report(
                        REGISTRY[sid], p, d, trials, seed, "fail", math.nan,
                        witness_values(
                            error=type(exc).__name__, message=str(exc),
                            raised_in=f"sweep worker at p = {p}, d = {d}"),
                        constant)
                        for _, sid, p, d, trials, constant in group])
            return done
    finally:
        gc.unfreeze()


def regenerate_baselines(ids=None, path=None) -> BaselineStore:
    """Recompute tracked constants at their provenance parameters and
    rewrite the store (constants plus runner source hashes).  A full
    regeneration, with no ids, also drops every entry whose id is no
    registered constant_tracked scenario."""
    store = BaselineStore.load(path)
    tracked = [sid for sid, sc in REGISTRY.items()
               if sc.kind == "constant_tracked"]
    todo = list(ids) if ids else tracked
    if not ids:
        store.entries.clear()
    for sid in todo:
        sc = _scenario(sid)
        if sc.kind != "constant_tracked":
            raise ValueError(f"{sid} is {sc.kind}, not constant_tracked")
        metric, _ = _measure(sc, RunContext(sid, *sc.provenance))
        store.entries[sid] = BaselineEntry(float(metric), oracle_hash(sc.runner))
    store.save()
    return store
