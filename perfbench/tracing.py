"""Layer timers for the traced run, and the per-layer figures they give.

The program's own ``repro.obs`` spans cover ``lp.*``, ``flow.*``,
``evaluate``, ``mc.*``, ``batch.*``, ``exact.*`` and ``serve.batch.run``.
For the layers that have none, :func:`layer_timers` swaps a timing
wrapper into the module attribute each caller binds (``Solver.build``,
``solve_lp1``/``solve_lp2``, ``round_acc_mass``, ``find_good_delays``,
``flatten_pseudo``, ``decompose_forest``, ``optimal_regimen``,
``_vectorized_oblivious``, ``simulate_batch``) and restores it on exit.
The wrappers open ``repro.obs`` spans and add ``bench.*`` counters, so
one ``obs.capture()`` collects the whole tree, in memory.  No wrapper is
installed while end-to-end metrics are timed.

``EvaluationServer.submit`` is a coroutine: interleaved requests share
the event-loop thread, so it cannot sit on the per-thread span stack and
its durations are recorded in a plain list instead.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from repro import obs
from repro.core.schedule import ObliviousSchedule

#: Span name -> layer.  A span whose name is not here belongs to the
#: layer of its parent (``evaluate.validate`` is part of ``evaluate``),
#: or, as a root, to a layer of its own name.
SPAN_LAYERS = {
    "item": "item",
    "algorithms": "algorithms",
    "regimen.build": "regimen",
    "lp": "lp",
    "lp.build": "lp.build",
    "lp.solve": "lp.solve",
    "rounding": "rounding",
    "flow.solve": "flow",
    "delay": "delay",
    "delay.flatten": "delay",
    "decomp": "decomp",
    "opt.dp": "opt",
    "evaluate": "evaluate",
    "mc.lockstep": "mc.lockstep",
    "mc.batched": "mc.batched",
    "exact.lattice.build": "exact.lattice_build",
    "exact.layer_sweep": "exact.layer_sweep",
    "serve.batch.run": "serve.batch",
}

#: (module, attribute, span name) of the plain-function wrappers.
_FUNCTION_TARGETS = (
    ("repro.algorithms.chains", "solve_lp1", "lp"),
    ("repro.algorithms.independent", "solve_lp2", "lp"),
    ("repro.algorithms.chains", "round_acc_mass", "rounding"),
    ("repro.algorithms.independent", "round_acc_mass", "rounding"),
    ("repro.algorithms.chains", "find_good_delays", "delay"),
    ("repro.algorithms.chains", "flatten_pseudo", "delay.flatten"),
    ("repro.algorithms.trees", "decompose_forest", "decomp"),
    ("repro.algorithms.baselines", "optimal_regimen", "opt.dp"),
    ("repro.sim.montecarlo", "_vectorized_oblivious", "mc.lockstep"),
    ("repro.sim.montecarlo", "simulate_batch", "mc.batched"),
)


def _count_lp(out, args, kwargs) -> None:
    obs.add("bench.lp.calls")


def _count_delay(out, args, kwargs) -> None:
    obs.add("bench.delay.attempts", out.attempts)
    obs.add("bench.delay.accepted", int(out.max_collision <= out.target))


def _count_decomp(out, args, kwargs) -> None:
    obs.add("bench.decomp.blocks", len(out.blocks))


def _count_dp(out, args, kwargs) -> None:
    obs.add("bench.opt.states", out.states_solved)


def _count_lockstep(out, args, kwargs) -> None:
    # _vectorized_oblivious(instance, schedule, reps, rng, max_steps)
    _, schedule, reps, _, max_steps = args
    makespans, finished = out
    if finished.all():
        steps = int(makespans.max())
    elif isinstance(schedule, ObliviousSchedule):
        steps = min(max_steps, schedule.length)
    else:
        steps = max_steps
    obs.add("bench.mc.rep_steps", int(makespans.sum()))
    obs.add("bench.mc.row_steps", reps * steps)


_COUNTERS = {
    "lp": _count_lp,
    "delay": _count_delay,
    "decomp": _count_decomp,
    "opt.dp": _count_dp,
    "mc.lockstep": _count_lockstep,
}


def _timed(fn, name: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(out, args, kwargs)
        return out

    return wrapper


@contextlib.contextmanager
def layer_timers():
    """Install every wrapper; yields the list of ``submit`` durations (ns)."""
    import importlib

    from repro.algorithms.registry import Solver
    from repro.serve.server import EvaluationServer

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for module_name, attr, name in _FUNCTION_TARGETS:
        module = importlib.import_module(module_name)
        patch(module, attr, _timed(getattr(module, attr), name, _COUNTERS.get(name)))

    build = Solver.build

    @functools.wraps(build)
    def traced_build(self, *args, **kwargs):
        with obs.span("algorithms", solver=self.name):
            if self.name != "state_round_robin":
                return build(self, *args, **kwargs)
            # This solver's whole body is regimen construction.
            with obs.span("regimen.build"):
                result = build(self, *args, **kwargs)
            obs.add("bench.regimen.states", len(result.schedule.states))
            return result

    patch(Solver, "build", traced_build)

    submit_ns: list[int] = []
    submit = EvaluationServer.submit

    @functools.wraps(submit)
    async def traced_submit(self, *args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return await submit(self, *args, **kwargs)
        finally:
            submit_ns.append(time.perf_counter_ns() - t0)

    patch(EvaluationServer, "submit", traced_submit)
    try:
        yield submit_ns
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_self_seconds(spans: list[dict]) -> dict[str, float]:
    """Self time per layer: each span minus its children, summed."""
    totals: dict[str, float] = defaultdict(float)

    def walk(node: dict, parent_layer: str | None) -> None:
        layer = SPAN_LAYERS.get(node["name"], parent_layer or node["name"])
        children = node.get("children", ())
        child_ns = sum(c["dur_ns"] or 0 for c in children)
        totals[layer] += ((node["dur_ns"] or 0) - child_ns) / 1e9
        for child in children:
            walk(child, layer)

    for root in spans:
        walk(root, None)
    return dict(totals)


def unattributed_fraction(spans: list[dict]) -> float:
    """Share of the ``item`` roots' time that no child span covers."""
    roots = [s for s in spans if s["name"] == "item"]
    total = sum(r["dur_ns"] for r in roots)
    covered = sum(c["dur_ns"] for r in roots for c in r["children"])
    return (total - covered) / total if total else 0.0


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(snapshot: dict) -> dict[str, float]:
    """Every per-layer metric a traced telemetry snapshot gives.

    A layer that did not run on the workload reads 0.
    """
    self_s = defaultdict(float, layer_self_seconds(snapshot["spans"]))
    c = defaultdict(int, snapshot["counters"])
    memo_lookups = c["batch.memo_hits"] + c["batch.policy_queries"]
    return {
        "algorithms.self_s": self_s["algorithms"],
        "lp.build_s": self_s["lp.build"],
        "lp.solve_s": self_s["lp.solve"],
        "lp.calls": c["bench.lp.calls"],
        "lp.rows": c["lp.rows"],
        "lp.nnz": c["lp.nnz"],
        "rounding.self_s": self_s["rounding"],
        "flow.s": self_s["flow"],
        "flow.phases": c["flow.phases"],
        "flow.augmentations": c["flow.augmentations"],
        "delay.s": self_s["delay"],
        "delay.attempts": c["bench.delay.attempts"],
        "delay.accept_frac": _frac(c["bench.delay.accepted"], c["bench.delay.attempts"]),
        "decomp.s": self_s["decomp"],
        "decomp.blocks": c["bench.decomp.blocks"],
        "mc.lockstep_s": self_s["mc.lockstep"],
        "mc.reps": c["mc.reps"],
        "mc.rep_steps": c["bench.mc.rep_steps"],
        "mc.row_steps": c["bench.mc.row_steps"],
        "mc.active_frac": _frac(c["bench.mc.rep_steps"], c["bench.mc.row_steps"]),
        "mc.batched_s": self_s["mc.batched"],
        "batch.steps": c["batch.steps"],
        "batch.policy_queries": c["batch.policy_queries"],
        "batch.memo_entries": c["batch.memo_entries"],
        "batch.memo_hit_frac": _frac(c["batch.memo_hits"], memo_lookups),
        "regimen.build_s": self_s["regimen"],
        "regimen.states": c["bench.regimen.states"],
        "opt.dp_s": self_s["opt"],
        "opt.states": c["bench.opt.states"],
        "exact.lattice_build_s": self_s["exact.lattice_build"],
        "exact.layer_sweep_s": self_s["exact.layer_sweep"],
        "exact.states": c["exact.states_allocated"],
        "evaluate.self_s": self_s["evaluate"],
    }
