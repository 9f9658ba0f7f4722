"""Command-line interface: ``suu`` / ``python -m repro``.

Subcommands
-----------
``generate``         write a random instance to JSON
``info``             structural summary of an instance file
``solve``            schedule an instance, print certificates, optionally save
``algorithms``       introspect the capability-typed solver registry
                     (``algorithms list`` renders the capability table)
``portfolio``        race every capability-admitting solver on one instance
                     and print the provenance-carrying leaderboard
``evaluate``         the one evaluation front door (repro.evaluate): exact or
                     MC, auto-dispatched, with engine provenance
``gantt``            render a schedule (or a fresh solve) as an ASCII Gantt chart
``demo``             end-to-end demonstration on a built-in scenario
``run-experiments``  run a named experiment suite through the cached runner
``fuzz``             differential cross-engine verification (repro.verify)
``lint``             static-analysis rule set over src/ (repro.lint):
                     dispatch, timing, seed-discipline, warning, and
                     pickling contracts in one parse pass per file
``trace``            summarize Chrome trace-event JSON from ``evaluate --trace``
``serve``            evaluation-as-a-service: the asyncio server
                     (repro.serve) with content-hash dedup, a result
                     cache, admission control and an HTTP/JSON protocol

Every makespan number any subcommand prints flows through
:func:`repro.evaluate.evaluate`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .algorithms import PRESETS, resolve_solver, solve
from .analysis import Table, compare_algorithms
from .bounds import lower_bounds
from .core import Regimen, SUUInstance, schedule_from_dict
from .errors import ReproError, ValidationError
from .workloads import DAG_KINDS, PROB_MODELS, random_instance

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suu",
        description="Multiprocessor scheduling under uncertainty (Lin & Rajaraman, SPAA 2007)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a random instance as JSON")
    g.add_argument("output", type=Path, help="output .json path ('-' for stdout)")
    g.add_argument("-n", "--jobs", type=int, default=20)
    g.add_argument("-m", "--machines", type=int, default=6)
    g.add_argument("--dag", default="independent", choices=DAG_KINDS)
    g.add_argument("--prob", default="uniform", choices=PROB_MODELS)
    g.add_argument("--seed", type=int, default=0)

    i = sub.add_parser("info", help="summarize an instance file")
    i.add_argument("input", type=Path)
    i.add_argument("--bounds", action="store_true", help="also compute lower bounds")

    s = sub.add_parser("solve", help="schedule an instance")
    s.add_argument("input", type=Path)
    s.add_argument("--method", default="auto")
    s.add_argument("--constants", default="practical", choices=sorted(PRESETS))
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--save", type=Path, help="write the schedule JSON here")

    al = sub.add_parser(
        "algorithms",
        help="introspect the capability-typed solver registry",
    )
    al_sub = al.add_subparsers(dest="algorithms_command", required=True)
    al_sub.add_parser(
        "list",
        help="render the registry capability table (name, DAG classes, "
        "adaptivity, guarantee, source paper)",
    )

    po = sub.add_parser(
        "portfolio",
        help="race every capability-admitting solver on one instance and "
        "print the leaderboard (winner first, full engine provenance)",
    )
    po.add_argument(
        "input",
        help="instance .json path, or a registered instance generator built "
        "at --seed with its defaults (grid / project / greedy_trap / ...)",
    )
    po.add_argument(
        "--solver",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict the field to these registry solvers (repeatable; "
        "default: every capability-admitting solver)",
    )
    po.add_argument("--constants", default="practical", choices=sorted(PRESETS))
    po.add_argument("--reps", type=int, default=200)
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--max-steps", type=int, default=200_000)
    po.add_argument(
        "--mode",
        default="auto",
        choices=["auto", "exact", "mc"],
        help="evaluation mode shared by every member (auto picks exact "
        "when the state guard admits it)",
    )
    po.add_argument("--json", type=Path, help="also write the leaderboard JSON here")

    ev = sub.add_parser(
        "evaluate",
        help="evaluate a schedule through the one front door "
        "(auto-dispatching exact / MC engine selection)",
    )
    ev.add_argument("input", type=Path, help="instance .json")
    ev.add_argument(
        "--schedule", type=Path, help="schedule .json (default: solve now)"
    )
    ev.add_argument("--method", default="auto")
    ev.add_argument("--constants", default="practical", choices=sorted(PRESETS))
    ev.add_argument(
        "--mode",
        default="auto",
        choices=["auto", "exact", "mc"],
        help="auto picks exact when the 2^n state guard admits it",
    )
    ev.add_argument(
        "--metric",
        action="append",
        default=None,
        choices=["makespan", "completion-curve", "state-distribution"],
        help="repeatable; default: makespan",
    )
    ev.add_argument("--reps", type=int, default=200)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--max-steps", type=int, default=200_000)
    ev.add_argument(
        "--horizon", type=int, default=None, help="curve/distribution length"
    )
    ev.add_argument(
        "--engine",
        default="auto",
        choices=["auto", "scalar"],
        help="scalar runs the golden reference engine of the chosen route",
    )
    ev.add_argument("--max-states", type=int, default=None)
    ev.add_argument("--rtol", type=float, default=None, help="target relative CI half-width")
    ev.add_argument("--target-ci", type=float, default=None, help="target absolute CI half-width")
    ev.add_argument("--budget", type=int, default=None, help="max total replications for --rtol/--target-ci")
    ev.add_argument("--require-finished", action="store_true")
    ev.add_argument("--json", type=Path, help="also write the full report JSON here")
    ev.add_argument(
        "--trace",
        type=Path,
        metavar="OUT.json",
        help="capture telemetry and write a Chrome trace-event JSON "
        "(open in Perfetto or chrome://tracing); also prints a phase table",
    )

    ga = sub.add_parser("gantt", help="render a schedule as an ASCII Gantt chart")
    ga.add_argument("input", type=Path, help="instance .json")
    ga.add_argument("--schedule", type=Path, help="schedule .json (default: solve now)")
    ga.add_argument("--method", default="auto")
    ga.add_argument("--constants", default="practical", choices=sorted(PRESETS))
    ga.add_argument("--steps", type=int, default=60)
    ga.add_argument("--seed", type=int, default=0)

    d = sub.add_parser("demo", help="run a built-in scenario end to end")
    d.add_argument(
        "--scenario", default="project", choices=["project", "grid", "independent"]
    )
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--reps", type=int, default=100)

    e = sub.add_parser(
        "run-experiments",
        help="run an experiment suite through the cached runner",
    )
    e.add_argument(
        "--suite",
        action="append",
        default=None,
        help="suite name (repeatable; see --list-suites); default: smoke",
    )
    e.add_argument(
        "--smoke", action="store_true", help="shorthand for --suite smoke"
    )
    e.add_argument("--list-suites", action="store_true", help="list suites and exit")
    e.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="result cache directory (default: .repro_cache/experiments)",
    )
    e.add_argument("--no-cache", action="store_true", help="disable the result cache")
    e.add_argument(
        "--force", action="store_true", help="recompute even when cached"
    )
    e.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the sharded parallel backend "
        "(default: 1; implies --executor process when > 1)",
    )
    e.add_argument(
        "--executor",
        default=None,
        choices=["serial", "process"],
        help="execution backend (default: serial, or process when --workers > 1); "
        "results are identical either way — only wall-clock changes",
    )
    e.add_argument("--json", type=Path, help="also write all results to this JSON file")

    f = sub.add_parser(
        "fuzz",
        help="differential verification: cross-check every simulation engine "
        "against the others and the analytic oracles on random cases",
    )
    f.add_argument(
        "--budget", type=int, default=100, help="maximum number of fuzz cases"
    )
    f.add_argument("--seed", type=int, default=0, help="campaign seed (fully determinizes the run)")
    f.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="wall-clock budget in seconds (stops early; for CI smoke jobs)",
    )
    f.add_argument("--max-jobs", type=int, default=12)
    f.add_argument("--max-machines", type=int, default=4)
    f.add_argument(
        "--reps", type=int, default=240, help="Monte Carlo replications per engine route"
    )
    f.add_argument(
        "--save-failures",
        type=Path,
        default=None,
        metavar="DIR",
        help="record minimized failures as corpus entries in DIR "
        "(e.g. tests/corpus)",
    )
    f.add_argument(
        "--no-shrink", action="store_true", help="skip minimization of failures"
    )
    f.add_argument("--quiet", action="store_true", help="suppress per-case progress")

    li = sub.add_parser(
        "lint",
        help="run the repo's static-analysis rule set (dispatch, timing, "
        "seed-discipline, warning, and pickling contracts) over src/",
    )
    from .lint.cli import add_lint_arguments

    add_lint_arguments(li)

    tr = sub.add_parser(
        "trace",
        help="inspect Chrome trace-event JSON written by `evaluate --trace`",
    )
    tr_sub = tr.add_subparsers(dest="trace_command", required=True)
    ts = tr_sub.add_parser(
        "summarize",
        help="flat per-span timing table plus counter totals of a trace file",
    )
    ts.add_argument("input", type=Path, help="trace-event .json")

    sv = sub.add_parser(
        "serve",
        help="run the evaluation server: POST /evaluate, GET /jobs/<id>, "
        "GET /healthz, GET /metrics (content-hash dedup + result cache)",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument(
        "--port", type=int, default=8071, help="TCP port (0 picks a free one)"
    )
    sv.add_argument(
        "--workers", type=int, default=4, help="worker threads bridging to the engines"
    )
    sv.add_argument(
        "--max-queue", type=int, default=256, help="admitted jobs before shedding (429)"
    )
    sv.add_argument(
        "--max-inflight-states",
        type=int,
        default=None,
        help="cap on summed exact-route DP cells in flight "
        "(default: the exact engine's own guard)",
    )
    sv.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="served-result cache directory (default: .repro_cache/serve)",
    )
    sv.add_argument("--no-cache", action="store_true", help="disable the disk cache")
    return parser


def _read_json(path: Path, what: str, *keys: str):
    """The JSON in ``path``, an object holding ``keys`` when any are named;
    anything else raises one :class:`ValidationError` naming the file."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    if keys and not (isinstance(data, dict) and set(keys) <= data.keys()):
        expected = f"expected a JSON object with {', '.join(keys)}"
        raise ValidationError(f"cannot read {what} {path}: {expected}")
    return data


def _load_instance(path: Path) -> SUUInstance:
    return SUUInstance.from_dict(_read_json(path, "instance", "p", "dag"))


def _load_schedule(path: Path):
    """A schedule as ``suu solve --save`` writes it: cyclic or oblivious."""
    return schedule_from_dict(_read_json(path, "schedule", "kind"))


def _cmd_generate(args) -> int:
    inst = random_instance(
        args.jobs, args.machines, dag_kind=args.dag, prob_model=args.prob, rng=args.seed
    )
    text = inst.to_json()
    if str(args.output) == "-":
        print(text)
    else:
        args.output.write_text(text)
        print(f"wrote {inst!r} to {args.output}")
    return 0


def _cmd_info(args) -> int:
    inst = _load_instance(args.input)
    print(f"instance : {inst!r}")
    print(f"jobs     : {inst.n}")
    print(f"machines : {inst.m}")
    print(f"dag class: {inst.classify().value}")
    print(f"edges    : {inst.dag.num_edges}")
    print(f"width    : {inst.dag.width()}")
    print(f"p_min>0  : {inst.p_min_positive:.4f}")
    if args.bounds:
        lbs = lower_bounds(inst)
        for k, v in lbs.as_dict().items():
            print(f"LB[{k}]: {v:.4f}")
    return 0


def _cmd_solve(args) -> int:
    inst = _load_instance(args.input)
    result = solve(
        inst, constants=PRESETS[args.constants], rng=args.seed, method=args.method
    )
    print(f"algorithm: {result.algorithm}")
    for key, value in sorted(result.certificates.items(), key=lambda kv: kv[0]):
        if key != "blocks":
            print(f"  {key}: {value}")
    if args.save:
        if isinstance(result.schedule, Regimen):
            print(
                "cannot save regimens as JSON: a schedule file holds an oblivious "
                "or cyclic table, and regimens have no file format",
                file=sys.stderr,
            )
            return 2
        if not result.is_oblivious:
            print("cannot save adaptive policies as JSON", file=sys.stderr)
            return 2
        args.save.write_text(json.dumps(result.schedule.to_dict()))
        print(f"schedule written to {args.save}")
    return 0


def _cmd_algorithms(args) -> int:
    from .algorithms import describe_solvers

    table = Table(
        ["solver", "DAG classes", "adaptivity", "cost", "guarantee", "paper"],
        title="solver registry",
    )
    for row in describe_solvers():
        table.add_row(
            [
                row["name"],
                row["dag_classes"],
                row["adaptivity"],
                row["cost"],
                row["guarantee"],
                row["paper"],
            ]
        )
    print(table.render())
    return 0


def _cmd_portfolio(args) -> int:
    from .algorithms import run_portfolio
    from .experiments import GENERATORS

    name = str(args.input)
    if name in GENERATORS:
        inst = GENERATORS[name](np.random.default_rng(args.seed))
    else:
        inst = _load_instance(Path(name))
    report = run_portfolio(
        inst,
        solvers=args.solver,
        constants=PRESETS[args.constants],
        seed=args.seed,
        reps=args.reps,
        max_steps=args.max_steps,
        mode=args.mode,
    )
    print(
        f"instance : {report.instance_name} "
        f"(n={report.n}, m={report.m}, dag={report.dag_class})"
    )
    table = Table(
        ["#", "solver", "E[makespan]", "±se", "exact", "mode", "engine", "guarantee"],
        title="portfolio leaderboard",
    )
    for rank, entry in enumerate(report.entries, start=1):
        table.add_row(
            [
                rank,
                entry.solver,
                entry.makespan,
                entry.report.std_err,
                "yes" if entry.report.exact else "no",
                entry.report.mode,
                entry.report.engine,
                entry.guarantee,
            ]
        )
    print(table.render())
    if report.winner is not None:
        print(f"winner   : {report.winner.solver} ({report.winner.guarantee})")
    for solver, reason in report.skipped:
        print(f"skipped  : {solver} — {reason}")
    if args.json:
        args.json.write_text(report.to_json(indent=2))
        print(f"leaderboard written to {args.json}")
    return 0 if report.entries else 1


#: ``demo`` comparators, by registry name.
_BASELINE_SOLVERS = ("serial", "round_robin", "greedy", "random_policy")


def _load_or_solve_schedule(args, inst):
    """Schedule acquisition for `evaluate`: load ``--schedule`` or solve now."""
    if args.schedule:
        return _load_schedule(args.schedule)
    result = solve(
        inst, constants=PRESETS[args.constants], rng=args.seed, method=args.method
    )
    print(f"algorithm: {result.algorithm}")
    return result.schedule


def _cmd_evaluate(args) -> int:
    from . import obs
    from .evaluate import EvaluationRequest, evaluate

    inst = _load_instance(args.input)
    schedule = _load_or_solve_schedule(args, inst)
    metrics = tuple(args.metric) if args.metric else ("makespan",)
    request = EvaluationRequest(
        metrics=metrics,
        mode=args.mode,
        reps=args.reps,
        seed=args.seed,
        max_steps=args.max_steps,
        horizon=args.horizon,
        rtol=args.rtol,
        target_ci=args.target_ci,
        budget=args.budget,
        engine=args.engine,
        max_states=args.max_states,
        require_finished=args.require_finished,
    )
    with obs.capture(enabled=args.trace is not None) as tel:
        report = evaluate(inst, schedule, request=request)
    print(f"mode              : {report.mode}")
    print(f"engine            : {report.engine}")
    print(f"schedule kind     : {report.schedule_kind}")
    print(f"dispatch          : {report.reason}")
    if report.makespan is not None:
        if report.exact:
            print(f"E[makespan] exact : {report.makespan:.9f}")
        else:
            lo, hi = report.ci95
            line = (
                f"E[makespan]       : {report.makespan:.4f} ± {report.std_err:.4f} "
                f"(95% CI [{lo:.4f}, {hi:.4f}], reps={report.n_reps}"
            )
            if report.truncated:
                line += f", truncated={report.truncated}"
            print(line + ")")
    if report.completion_curve is not None:
        for t, pr in enumerate(report.completion_curve, start=1):
            print(f"  Pr[done by {t:3d}] = {pr:.6f}")
    if report.state_distribution is not None:
        print(
            f"state distribution: {report.state_distribution.shape[0]} rows x "
            f"{report.state_distribution.shape[1]} states (use --json to export)"
        )
    print(f"wall time         : {report.wall_time_s:.3f}s")
    if args.json:
        args.json.write_text(report.to_json(indent=2))
        print(f"report written to {args.json}")
    if args.trace:
        from .obs import chrome_trace, render_summary, summarize_trace

        trace = chrome_trace(tel.snapshot())
        args.trace.write_text(json.dumps(trace, indent=2))
        print(f"trace written to {args.trace} (load in Perfetto / chrome://tracing)")
        print(render_summary(summarize_trace(trace)))
    return 0


def _cmd_gantt(args) -> int:
    from .viz import render_gantt

    inst = _load_instance(args.input)
    if args.schedule:
        schedule = _load_schedule(args.schedule)
    else:
        result = solve(
            inst, constants=PRESETS[args.constants], rng=args.seed, method=args.method
        )
        if not result.is_oblivious:
            print("adaptive policies have no fixed table to draw", file=sys.stderr)
            return 2
        schedule = result.schedule
        print(f"algorithm: {result.algorithm}")
    print(render_gantt(schedule, max_steps=args.steps, instance=inst))
    return 0


def _cmd_demo(args) -> int:
    from .experiments import resolve_generator

    rng = np.random.default_rng(args.seed)
    generator = "random" if args.scenario == "independent" else args.scenario
    inst = resolve_generator(generator)(rng)
    print(f"scenario: {inst!r}")
    results = {"paper_algorithm": solve(inst, rng=rng)}
    for name in _BASELINE_SOLVERS:
        results[name] = resolve_solver(name).build(inst)
    records = compare_algorithms(inst, results, reps=args.reps, rng=rng)
    table = Table(
        ["algorithm", "E[makespan]", "±se", "reference", "kind", "ratio"],
        title=inst.name,
    )
    for rec in records:
        table.add_row(
            [rec.algorithm, rec.mean_makespan, rec.std_err, rec.reference, rec.reference_kind, rec.ratio]
        )
    print(table.render())
    return 0


def _cmd_run_experiments(args) -> int:
    from .experiments import DEFAULT_CACHE_DIR, suite_names
    from .parallel import get_executor

    if args.list_suites:
        for name in suite_names():
            print(name)
        return 0
    names = list(args.suite or [])
    if args.smoke and "smoke" not in names:
        names.insert(0, "smoke")
    if not names:
        names = ["smoke"]
    cache_dir = None if args.no_cache else (args.cache_dir or DEFAULT_CACHE_DIR)
    executor = get_executor(args.executor, args.workers)
    if executor.name == "process":
        print(
            f"executor: process x {executor.workers} workers",
            file=sys.stderr,
            flush=True,
        )
    try:
        return _run_suites(names, args, cache_dir, executor)
    finally:
        executor.close()


def _run_suites(names, args, cache_dir, executor) -> int:
    from .experiments import get_suite, run_suite

    all_results = []
    for suite in names:
        specs = get_suite(suite)
        table = Table(
            ["experiment", "algorithm", "E[makespan]", "±se", "ratio", "engine", "cache"],
            title=f"suite: {suite} ({len(specs)} experiments)",
        )

        def stream(spec, res, suite=suite):
            status = "cache hit" if res.cache_hit else f"{res.elapsed_s:.2f}s"
            print(f"  [{suite}] {spec.name}: {status}", file=sys.stderr, flush=True)

        results = run_suite(
            specs,
            cache_dir=cache_dir,
            force=args.force,
            progress=stream,
            executor=executor,
        )
        for res in results:
            table.add_row(
                [
                    res.spec.name,
                    res.algorithm,
                    res.mean,
                    res.std_err,
                    res.ratio if res.ratio is not None else "-",
                    res.engine_used,
                    "hit" if res.cache_hit else f"{res.elapsed_s:.2f}s",
                ]
            )
        print(table.render())
        all_results.extend(results)
    if args.json:
        args.json.write_text(
            json.dumps([res.to_dict() for res in all_results], indent=2)
        )
        print(f"wrote {len(all_results)} results to {args.json}")
    return 0


def _cmd_fuzz(args) -> int:
    from .verify import CheckConfig, run_fuzz

    cfg = CheckConfig(reps=args.reps)

    def progress(index, spec, discrepancies):
        if args.quiet:
            return
        status = "ok" if not discrepancies else f"{len(discrepancies)} FAIL"
        print(f"  case {index:4d}: {spec.family} × {spec.schedule} "
              f"(n={spec.n}, m={spec.m}) ... {status}", file=sys.stderr, flush=True)

    report = run_fuzz(
        budget=args.budget,
        seed=args.seed,
        time_budget_s=args.time_budget,
        cfg=cfg,
        max_jobs=args.max_jobs,
        max_machines=args.max_machines,
        corpus_dir=args.save_failures,
        progress=progress,
        shrink=not args.no_shrink,
    )
    print(
        f"fuzz: {report.cases_run} cases in {report.elapsed_s:.1f}s "
        f"(seed {report.seed}): "
        + ("all checks passed" if report.ok else f"{len(report.failures)} failure(s)")
    )
    for failure in report.failures:
        print()
        print(failure.describe())
    if report.failures and args.save_failures:
        kind = "reproducers" if args.no_shrink else "minimized reproducers"
        print(f"\n{kind} written to {args.save_failures}")
    return 0 if report.ok else 1


def _cmd_lint(args) -> int:
    from .lint.cli import run_lint

    return run_lint(args)


def _cmd_trace(args) -> int:
    from .obs import render_summary, summarize_trace

    print(render_summary(summarize_trace(_read_json(args.input, "trace", "traceEvents"))))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import DEFAULT_SERVE_CACHE_DIR, EvaluationServer, ServerConfig
    from .serve import protocol as serve_protocol

    kwargs = {
        "max_queue": args.max_queue,
        "workers": args.workers,
        "cache_dir": (
            None if args.no_cache else (args.cache_dir or DEFAULT_SERVE_CACHE_DIR)
        ),
    }
    if args.max_inflight_states is not None:
        kwargs["max_inflight_states"] = args.max_inflight_states
    config = ServerConfig(**kwargs)

    async def run() -> int:
        async with EvaluationServer(config) as server:
            http_srv = await serve_protocol.start_http_server(
                server, host=args.host, port=args.port
            )
            bound = http_srv.sockets[0].getsockname()
            print(
                f"suu serve: listening on http://{bound[0]}:{bound[1]} "
                f"(workers={config.workers}, max_queue={config.max_queue}, "
                f"cache={config.cache_dir or 'off'})",
                file=sys.stderr,
                flush=True,
            )
            try:
                await http_srv.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                http_srv.close()
                await http_srv.wait_closed()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("suu serve: shut down", file=sys.stderr)
        return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "info": _cmd_info,
        "solve": _cmd_solve,
        "algorithms": _cmd_algorithms,
        "portfolio": _cmd_portfolio,
        "evaluate": _cmd_evaluate,
        "gantt": _cmd_gantt,
        "demo": _cmd_demo,
        "run-experiments": _cmd_run_experiments,
        "fuzz": _cmd_fuzz,
        "lint": _cmd_lint,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
    }
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()
        return status
    except ReproError as exc:
        # Deliberate errors (bad --method, a DAG outside the method's
        # class, ...) are one stderr line, never a traceback.
        print(f"suu {args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (`suu ... | head`).  As the Python docs
        # advise, point stdout at devnull so the interpreter's final flush
        # cannot fail again, and exit non-zero without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
