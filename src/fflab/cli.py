"""Command line front end.

Subcommands: list the registry, run one scenario, sweep many and write
report files, regenerate tracked baselines, print the exponent table.

`fflab sweep` (and `python -m fflab.cli sweep`) runs the sweep's (p, d)
points on one forked worker per CPU of the process's affinity set;
`taskset -c 0 fflab sweep ...` runs it serially.  runtime_ms is timed
inside the worker, so it includes contention for the cores.  A host
program that calls main(argv) with an explicit argv keeps the sweep in
its own process: fflab forks only a process whose command line it owns.

Exit codes: 0 when everything passed (or only reported a constant),
1 when at least one scenario failed (a runner that raises is a failed
scenario), 2 on configuration errors found before any runner starts,
such as an unknown scenario id, parameters outside a scenario's
validity set, a size-budget overflow, a baseline integrity problem, or
a baseline store that is not one of constants and oracle hashes under
the current schema.  In `sweep` these include an empty selection, a
repeated id, prime or dim, an id none of whose grid points meets --primes
and --dims, and an --out that cannot be created or written (probed with
a temporary file).
A missing baseline is the one exception in `sweep`: it fails that id's
row, with no metric, and the sweep goes on (`run` exits 2 on it).
"""

import argparse
import os
import sys
import tempfile
from pathlib import Path

from .errors import SizeOverflow, UnknownScenario
from .harness import (
    REGISTRY,
    BaselineMismatch,
    BaselineMissing,
    BaselineStore,
    ScenarioReport,
    exponent_table,
    regenerate_baselines,
    reports_to_csv,
    reports_to_json,
    run_scenario,
    sweep,
)


def _parse_ints(text: str) -> list:
    return [int(x) for x in text.split(",") if x.strip()]


def _baseline(constant) -> str:
    return "MISSING" if constant is None else f"{constant:.9g}"


def _report_line(r: ScenarioReport) -> str:
    if r.metric_name == "measured_constant":
        detail = (f"measured_constant={r.metric:.9g} "
                  f"baseline={_baseline(r.baseline_constant)} slack={r.baseline_slack}")
    else:
        detail = f"max_deviation={r.metric:.3g} tolerance={r.tolerance:g}"
    return (f"{r.scenario} p={r.prime} d={r.dim} trials={r.trials} "
            f"seed={r.seed}: {r.status} ({detail})")


def _cmd_list() -> int:
    store = BaselineStore.load()
    for sid in sorted(REGISTRY):
        sc = REGISTRY[sid]
        extra = ""
        if sc.kind == "constant_tracked":
            entry = store.entries.get(sid)
            extra = f"  baseline={_baseline(entry.constant if entry else None)}"
        primes = ",".join(str(p) for p in sc.primes)
        dims = ",".join(str(d) for d in sc.dims)
        print(f"{sid:7s} {sc.kind:16s} p in {{{primes}}} d in {{{dims}}}{extra}")
        print(f"        {sc.claim}")
    return 0


def _cmd_run(args) -> int:
    report = run_scenario(args.scenario, prime=args.prime, dim=args.dim,
                          trials=args.trials, seed=args.seed)
    print(_report_line(report))
    if report.status == "fail" and report.witness is not None:
        print(f"  witness: {report.witness}")
    return 0 if report.status in ("pass", "report_only") else 1


def _probe(out: Path) -> None:
    """Raise ValueError unless out, or its nearest existing ancestor when
    out is still to be made, is a directory that takes a temporary file.
    Nothing is left behind, so a usage error that the sweep finds next
    writes no directory."""
    where = next(p for p in (out, *out.parents) if p.exists())
    try:
        tempfile.TemporaryFile(dir=where).close()
    except OSError as exc:
        raise ValueError(f"cannot write reports to {out}: {exc.strerror}") from exc


def _cmd_sweep(args) -> int:
    if args.ids.strip().lower() == "all":
        ids = sorted(REGISTRY)
    else:
        ids = [x.strip() for x in args.ids.split(",") if x.strip()]
    out = Path(args.out)
    _probe(out)
    reports, failed = sweep(ids, _parse_ints(args.primes), _parse_ints(args.dims),
                            trials=args.trials, seed=args.seed, workers=args.workers)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(reports_to_json(reports))
    (out / "summary.csv").write_text(reports_to_csv(reports))
    for r in reports:
        print(_report_line(r))
    n_fail = sum(1 for r in reports if r.status == "fail")
    print(f"{len(reports)} runs, {n_fail} failed; wrote {out / 'report.json'} "
          f"and {out / 'summary.csv'}")
    return 1 if failed else 0


def _cmd_baseline(args) -> int:
    ids = [x.strip() for x in args.ids.split(",") if x.strip()] or None
    store = regenerate_baselines(ids) if args.regen else BaselineStore.load()
    if not store.entries:
        print("no baselines stored; run `fflab baseline --regen`")
    for sid in sorted(store.entries):
        if sid not in REGISTRY:
            raise BaselineMismatch(f"{store.path} holds an entry for {sid}, "
                                   "which is no registered scenario; delete it")
        e = store.entries[sid]
        p, d, trials, seed = REGISTRY[sid].provenance
        print(f"{sid}: constant={e.constant:.12g} at p={p} d={d} trials={trials} "
              f"seed={seed}" + ("" if args.regen else f" hash={e.oracle_hash[:12]}"))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fflab",
        description="finite-field harmonic analysis laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered scenarios")

    p_run = sub.add_parser("run", help="run one scenario at one parameter point")
    p_run.add_argument("scenario", help="scenario id, e.g. FT-1")
    p_run.add_argument("--prime", type=int, default=None)
    p_run.add_argument("--dim", type=int, default=None)
    p_run.add_argument("--trials", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser("sweep", help="run many scenarios, write reports")
    p_sweep.add_argument("--ids", default="all",
                         help="comma-separated scenario ids, or 'all'")
    p_sweep.add_argument("--primes", default="3,5,7,11,13")
    p_sweep.add_argument("--dims", default="2,3,4,5")
    p_sweep.add_argument("--trials", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", default="reports",
                         help="directory for report.json and summary.csv")

    p_base = sub.add_parser("baseline", help="show or regenerate baselines")
    p_base.add_argument("--regen", action="store_true",
                        help="recompute constants at their provenance points")
    p_base.add_argument("--ids", default="",
                        help="restrict to these ids (default: all tracked)")

    sub.add_parser("table", help="print the exponent landscape")

    args = parser.parse_args(argv)
    # fork only a process whose own command line this is: a host that
    # passes argv keeps every run in its process
    args.workers = len(os.sched_getaffinity(0)) if argv is None else 1
    try:
        code = _dispatch(args, parser)
        # flush here so a closed pipe surfaces inside the handler below
        # instead of as an ignored exception at interpreter shutdown
        sys.stdout.flush()
        return code
    except (UnknownScenario, BaselineMissing, BaselineMismatch, SizeOverflow,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer (e.g. `fflab list | head`) closed the pipe;
        # detach stdout so shutdown does not retry the flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _dispatch(args, parser) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "baseline":
        return _cmd_baseline(args)
    if args.command == "table":
        print(exponent_table(), end="")
        return 0
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
