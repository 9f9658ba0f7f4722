"""Tests for the suu command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms import resolve_solver, solver_names
from repro.cli import build_parser, main
from repro.core import SUUInstance
from repro.experiments import GENERATORS

#: A JSON instance whose DAG ``n`` or edges, or one of whose ``p`` entries,
#: is replaced by the key's value (see ``_bad_instance``).
_INSTANCE = {"p": [[0.5, 0.5]], "dag": {"n": 2, "edges": [[0, 1]]}}


def _bad_instance(key: str, value) -> str:
    data = json.loads(json.dumps(_INSTANCE))
    if key == "p":
        data["p"][0][0] = value
    else:
        data["dag"][key] = value
    return json.dumps(data)


def _bad_table(entry) -> str:
    return json.dumps({"kind": "oblivious", "table": [[entry, 0, 1]]})


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "suu" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["portfolio", "evaluate"])
    def test_process_pool_flags_are_gone(self, command, capsys):
        # Only run-experiments spreads replications over processes.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "inst.json", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_simulate_is_gone(self, capsys):
        # Per-solver numbers are `suu portfolio FILE --solver ...`; the
        # baselines table is `suu demo`.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["simulate", "inst.json"])
        assert exc.value.code == 2
        assert "invalid choice: 'simulate'" in capsys.readouterr().err


class TestGenerate:
    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(["generate", str(out), "-n", "8", "-m", "3", "--seed", "1"]) == 0
        data = json.loads(out.read_text())
        assert len(data["p"]) == 3
        assert len(data["p"][0]) == 8

    def test_stdout(self, capsys):
        assert main(["generate", "-", "-n", "4", "-m", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dag"]["n"] == 4

    def test_dag_kinds(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["generate", str(out), "-n", "9", "-m", "3", "--dag", "out_tree"]) == 0
        data = json.loads(out.read_text())
        assert len(data["dag"]["edges"]) == 8


class TestInfoSolveSimulate:
    @pytest.fixture
    def instance_file(self, tmp_path):
        out = tmp_path / "inst.json"
        main(["generate", str(out), "-n", "8", "-m", "3", "--dag", "chains", "--seed", "2"])
        return out

    def test_info(self, instance_file, capsys):
        assert main(["info", str(instance_file)]) == 0
        out = capsys.readouterr().out
        assert "dag class: chains" in out

    def test_info_with_bounds(self, instance_file, capsys):
        assert main(["info", str(instance_file), "--bounds"]) == 0
        assert "LB[best]" in capsys.readouterr().out

    def test_solve_prints_certificates(self, instance_file, capsys):
        assert main(["solve", str(instance_file), "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "algorithm: solve_chains" in out
        assert "min_mass" in out

    def test_solve_saves_schedule(self, instance_file, tmp_path, capsys):
        target = tmp_path / "sched.json"
        assert main(["solve", str(instance_file), "--save", str(target)]) == 0
        data = json.loads(target.read_text())
        assert data["kind"] == "cyclic"


    @pytest.mark.parametrize("method", ["exact", "state_round_robin"])
    def test_solve_save_refuses_regimens(self, tmp_path, capsys, method):
        # A regimen is no adaptive policy; schedule files hold tables only.
        inst = tmp_path / "c10.json"
        main(["generate", str(inst), "-n", "10", "-m", "3", "--dag", "chains", "--seed", "3"])
        target = tmp_path / "out.json"
        assert main(["solve", str(inst), "--method", method, "--save", str(target)]) == 2
        err = capsys.readouterr().err
        assert "cannot save regimens as JSON" in err and "adaptive" not in err
        assert not target.exists()

    def test_solve_save_refuses_adaptive_policies(self, instance_file, tmp_path, capsys):
        target = tmp_path / "out.json"
        argv = ["solve", str(instance_file), "--method", "msm_eligible", "--save", str(target)]
        assert main(argv) == 2
        assert "cannot save adaptive policies as JSON" in capsys.readouterr().err
        assert not target.exists()


class TestExact:
    @pytest.fixture
    def instance_file(self, tmp_path):
        out = tmp_path / "inst.json"
        main(["generate", str(out), "-n", "6", "-m", "2", "--dag", "chains", "--seed", "3"])
        return out

    def _value(self, out: str) -> float:
        (line,) = [ln for ln in out.splitlines() if "E[makespan] exact" in ln]
        return float(line.split(":")[1])

    def test_fresh_solve_both_engines_agree(self, instance_file, capsys):
        values = {}
        for engine, used in (("auto", "sparse"), ("scalar", "scalar")):
            argv = ["evaluate", str(instance_file), "--mode", "exact", "--engine", engine]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert f"engine            : markov-{used}" in out
            values[used] = self._value(out)
        assert values["sparse"] == pytest.approx(values["scalar"], rel=1e-9)
        assert values["sparse"] >= 1.0

    @pytest.mark.parametrize("engine", ["sparse", "batched"])
    def test_engine_aliases_exit_two(self, instance_file, capsys, engine):
        # --mode picks the route; --engine is auto or the scalar reference.
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", str(instance_file), "--engine", engine])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_saved_schedule_and_curve(self, instance_file, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        main(["solve", str(instance_file), "--save", str(sched)])
        capsys.readouterr()
        argv = ["evaluate", str(instance_file), "--mode", "exact", "--schedule", str(sched)]
        curve = ["--metric", "makespan", "--metric", "completion-curve", "--horizon", "5"]
        assert main(argv + curve) == 0
        out = capsys.readouterr().out
        assert "algorithm" not in out  # no fresh solve happened
        assert "Pr[done by   5]" in out

    def test_max_states_guard_reported(self, instance_file, capsys):
        argv = ["evaluate", str(instance_file), "--mode", "exact", "--max-states", "4"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("suu evaluate: ")


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--scenario", "independent", "--reps", "10", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out


class TestRunExperiments:
    def test_list_suites(self, capsys):
        assert main(["run-experiments", "--list-suites"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out
        assert "adaptivity_gap" in out

    def test_smoke_suite(self, tmp_path, capsys):
        assert (
            main(["run-experiments", "--smoke", "--cache-dir", str(tmp_path)]) == 0
        )
        out = capsys.readouterr().out
        assert "suite: smoke" in out
        assert "smoke-adaptive" in out
        assert "batched" in out
        # results were cached on disk
        assert list(tmp_path.glob("*.json"))

    def test_cache_hit_on_second_run(self, tmp_path, capsys):
        main(["run-experiments", "--smoke", "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert (
            main(["run-experiments", "--smoke", "--cache-dir", str(tmp_path)]) == 0
        )
        assert "hit" in capsys.readouterr().out

    def test_workers_flag_process_executor(self, tmp_path, capsys):
        # The same suite through the process backend: must succeed and
        # produce the same numbers the serial path caches (worker-count
        # invariance — the second run is a pure cache hit).
        assert (
            main(
                [
                    "run-experiments",
                    "--smoke",
                    "--cache-dir",
                    str(tmp_path),
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "executor: process x 2 workers" in captured.err
        assert (
            main(["run-experiments", "--smoke", "--cache-dir", str(tmp_path)]) == 0
        )
        assert "hit" in capsys.readouterr().out

    @staticmethod
    def _assert_rejected_in_one_line(argv, capsys):
        # A bad pool fails like every other subcommand's bad input: one
        # line on stderr and exit code 2, not a traceback.
        assert main(["run-experiments", "--smoke", "--no-cache", *argv]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("suu run-experiments: ") and "\n" not in err

    def test_conflicting_executor_flags_rejected(self, capsys):
        self._assert_rejected_in_one_line(["--executor", "serial", "--workers", "2"], capsys)

    def test_zero_workers_rejected(self, capsys):
        self._assert_rejected_in_one_line(["--workers", "0"], capsys)

    def test_unknown_suite_rejected(self, capsys):
        assert main(["run-experiments", "--suite", "nosuch", "--no-cache"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("suu run-experiments: unknown suite 'nosuch'")
        assert "\n" not in err

    def test_json_output(self, tmp_path, capsys):
        target = tmp_path / "results.json"
        assert (
            main(
                [
                    "run-experiments",
                    "--smoke",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--json",
                    str(target),
                ]
            )
            == 0
        )
        data = json.loads(target.read_text())
        assert len(data) == 4  # three MC engine specs + the exact-mode spec
        assert all("spec" in rec and "mean" in rec for rec in data)


class TestReproErrorsInOneLine:
    """A ReproError escaping any subcommand is one stderr line, exit 2."""

    @staticmethod
    def _instance(tmp_path, dag):
        out = tmp_path / f"{dag}.json"
        main(["generate", str(out), "-n", "8", "-m", "3", "--dag", dag, "--seed", "2"])
        return out

    @staticmethod
    def _one_line_error(command, capsys):
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"suu {command}: ") and "\n" not in err
        return err

    @pytest.mark.parametrize("command", ["solve", "gantt", "evaluate"])
    def test_unknown_method(self, command, tmp_path, capsys):
        inst = self._instance(tmp_path, "chains")
        capsys.readouterr()
        assert main([command, str(inst), "--method", "bogus"]) == 2
        assert "unknown method 'bogus'" in self._one_line_error(command, capsys)

    @pytest.mark.parametrize("name", solver_names())
    def test_every_registry_name_is_a_method(self, name, tmp_path, capsys):
        # A solver the chains instance admits runs (online_greedy among
        # them); a forced one that does not fails in one line.
        path = self._instance(tmp_path, "chains")
        capsys.readouterr()
        admitted = resolve_solver(name).supports(SUUInstance.from_json(path.read_text()))
        assert main(["solve", str(path), "--method", name]) == (0 if admitted else 2)
        if admitted:
            assert "algorithm:" in capsys.readouterr().out
        else:
            self._one_line_error("solve", capsys)

    def test_method_outside_its_dag_class(self, tmp_path, capsys):
        inst = self._instance(tmp_path, "out_tree")
        capsys.readouterr()
        assert main(["solve", str(inst), "--method", "chains"]) == 2
        err = self._one_line_error("solve", capsys)
        assert "requires a disjoint-chains DAG" in err

    @pytest.mark.parametrize(
        "command,text",
        [
            ("info", "not json {"),
            ("solve", None),
            ("info", "[1, 2]"),
            ("info", '{"p": [[0.5]]}'),
        ],
        ids=["info-not-json", "solve-missing", "info-array", "info-no-dag"],
    )
    def test_unreadable_instance_file(self, command, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        if text is not None:
            path.write_text(text)
        assert main([command, str(path)]) == 2
        err = self._one_line_error(command, capsys)
        assert f"cannot read instance {path}" in err

    @pytest.mark.parametrize(
        "command,text",
        [("evaluate", "not json {"), ("gantt", None), ("evaluate", "[]")],
        ids=["evaluate-not-json", "gantt-missing", "evaluate-array"],
    )
    def test_unreadable_schedule_file(self, command, text, tmp_path, capsys):
        inst = self._instance(tmp_path, "chains")
        path = tmp_path / "sched.json"
        if text is not None:
            path.write_text(text)
        capsys.readouterr()
        assert main([command, str(inst), "--schedule", str(path)]) == 2
        err = self._one_line_error(command, capsys)
        assert f"cannot read schedule {path}" in err


    @pytest.mark.parametrize(
        "command,text,message",
        [
            ("info", '{"p": [[0.5, 0.5]], "dag": 3}', "bad DAG payload"),
            ("evaluate", '{"kind": "cyclic"}', "bad cyclic schedule payload: KeyError"),
            ("trace", "[1, 2]", "expected a JSON object with traceEvents"),
            ("info", _bad_instance("n", 2.7), "n must be a JSON integer"),
            ("info", _bad_instance("n", True), "n must be a JSON integer"),
            ("info", _bad_instance("n", "2"), "n must be a JSON integer"),
            ("info", _bad_instance("edges", [[0, 1.5]]), "expected JSON integers"),
            ("info", _bad_instance("edges", [[0, True]]), "expected JSON integers"),
            ("info", _bad_instance("edges", [[0, "1"]]), "expected JSON integers"),
            ("info", _bad_instance("p", "0.5"), "expected JSON numbers, got str"),
            ("info", _bad_instance("p", True), "expected JSON numbers, got bool"),
            ("evaluate", _bad_table(2**31), "bad oblivious schedule payload: OverflowError"),
            ("evaluate", _bad_table(2.5), "expected JSON integers, got float"),
            ("evaluate", _bad_table(True), "expected JSON integers, got bool"),
            ("evaluate", _bad_table("2"), "expected JSON integers, got str"),
            (
                "evaluate",
                '{"kind": "regimen", "table": [[0, 1]]}',
                "unknown schedule kind 'regimen'",
            ),
            ("trace", '{"traceEvents": [{"ph": "X"}]}', "malformed trace event 0"),
            ("trace", '{"traceEvents": [1]}', "malformed trace event 0: 1"),
        ],
        ids=[
            "info-dag-not-object",
            "evaluate-cyclic-without-cycle",
            "trace-array",
            "info-n-real",
            "info-n-bool",
            "info-n-string",
            "info-edge-real",
            "info-edge-bool",
            "info-edge-string",
            "info-p-string",
            "info-p-bool",
            "evaluate-entry-2**31",
            "evaluate-entry-real",
            "evaluate-entry-bool",
            "evaluate-entry-string",
            "evaluate-regimen-kind",
            "trace-span-without-name",
            "trace-event-not-object",
        ],
    )
    def test_malformed_nested_input(self, command, text, message, tmp_path, capsys):
        # The file is JSON, but what it holds does not decode.
        path = tmp_path / "bad.json"
        path.write_text(text)
        if command == "info":
            argv = ["info", str(path)]
        elif command == "evaluate":
            inst = self._instance(tmp_path, "chains")
            argv = ["evaluate", str(inst), "--schedule", str(path)]
        else:
            argv = ["trace", "summarize", str(path)]
        capsys.readouterr()
        assert main(argv) == 2
        assert message in self._one_line_error(command, capsys)


class TestGantt:
    @pytest.fixture
    def instance_file(self, tmp_path):
        out = tmp_path / "inst.json"
        main(["generate", str(out), "-n", "6", "-m", "2", "--dag", "chains", "--seed", "3"])
        return out

    def test_gantt_fresh_solve(self, instance_file, capsys):
        assert main(["gantt", str(instance_file), "--steps", "20"]) == 0
        out = capsys.readouterr().out
        assert "m0" in out and "m1" in out
        assert "algorithm: solve_chains" in out

    def test_gantt_from_saved_schedule(self, instance_file, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        main(["solve", str(instance_file), "--save", str(sched)])
        capsys.readouterr()
        assert main(["gantt", str(instance_file), "--schedule", str(sched)]) == 0
        out = capsys.readouterr().out
        assert "m0" in out
        assert "algorithm" not in out  # no fresh solve happened

    def test_gantt_adaptive_rejected(self, instance_file, capsys):
        # adaptive methods have no fixed table
        out = instance_file.parent / "ind.json"
        main(["generate", str(out), "-n", "4", "-m", "2", "--seed", "1"])
        capsys.readouterr()
        assert main(["gantt", str(out), "--method", "adaptive"]) == 2


class TestTrace:
    @pytest.fixture
    def instance_file(self, tmp_path):
        out = tmp_path / "inst.json"
        main(["generate", str(out), "-n", "6", "-m", "2", "--dag", "chains", "--seed", "3"])
        return out

    def test_evaluate_trace_writes_valid_chrome_trace(
        self, instance_file, tmp_path, capsys
    ):
        trace_path = tmp_path / "out.json"
        assert (
            main(["evaluate", str(instance_file), "--trace", str(trace_path)]) == 0
        )
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert "span" in out  # the inline summary table
        trace = json.loads(trace_path.read_text())
        names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "X"]
        assert "evaluate" in names
        assert "evaluate.dispatch" in names

    def test_trace_summarize_renders_table(self, instance_file, tmp_path, capsys):
        trace_path = tmp_path / "out.json"
        main(["evaluate", str(instance_file), "--trace", str(trace_path)])
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "evaluate.validate" in out
        assert "total (ms)" in out

    def test_trace_summarize_missing_file(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_no_trace_flag_leaves_telemetry_off(self, instance_file, capsys):
        from repro import obs

        assert main(["evaluate", str(instance_file)]) == 0
        assert not obs.enabled()


class TestAlgorithmsList:
    def test_golden_output(self, capsys):
        # Golden check: one row per registered solver, rendered from the
        # registry's describe_solvers() rows (name / DAG classes /
        # adaptivity / cost / guarantee / paper).
        from repro.algorithms import describe_solvers

        assert main(["algorithms", "list"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "== solver registry =="
        rows = describe_solvers()
        # title + header + separator + one line per solver
        assert len(lines) == 3 + len(rows)
        for row, line in zip(rows, lines[3:]):
            assert row["name"] in line
            assert row["adaptivity"] in line
            assert row["guarantee"] in line
        assert "O(log n log min(n,m)) x TOPT (Thm 4.5)" in out
        assert "arXiv:1703.01634" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["algorithms"])


class TestPortfolio:
    def test_scenario_leaderboard(self, capsys):
        assert main(
            ["portfolio", "greedy_trap", "--reps", "40", "--seed", "1",
             "--max-steps", "10000"]
        ) == 0
        out = capsys.readouterr().out
        assert "portfolio leaderboard" in out
        assert "winner   :" in out
        assert "online_greedy" in out and "serial" in out

    def test_instance_file_with_json_export(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        main(["generate", str(inst), "-n", "5", "-m", "2", "--seed", "3"])
        report_path = tmp_path / "leaderboard.json"
        assert main(
            ["portfolio", str(inst), "--reps", "30", "--max-steps", "5000",
             "--solver", "serial", "--solver", "round_robin",
             "--json", str(report_path)]
        ) == 0
        data = json.loads(report_path.read_text())
        assert {row["solver"] for row in data["leaderboard"]} == {
            "serial", "round_robin"
        }
        assert data["winner"] in ("serial", "round_robin")
        for row in data["leaderboard"]:
            assert row["engine"] and row["mode"] in ("exact", "mc")

    def test_unknown_solver_fails_cleanly(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        main(["generate", str(inst), "-n", "4", "-m", "2"])
        assert main(["portfolio", str(inst), "--solver", "nope"]) == 2
        assert "unknown solver" in capsys.readouterr().err


class TestScenariosReadTheGenerators:
    """Built-in scenarios are the experiment generators' instances."""

    @pytest.mark.parametrize("name", ["grid", "project", "greedy_trap"])
    def test_portfolio_scenario(self, name, monkeypatch, capsys):
        import repro.algorithms

        seen = []
        run_portfolio = repro.algorithms.run_portfolio

        def spy(instance, **kwargs):
            seen.append(instance)
            return run_portfolio(instance, **kwargs)

        monkeypatch.setattr(repro.algorithms, "run_portfolio", spy)
        argv = ["portfolio", name, "--solver", "serial", "--reps", "10", "--seed", "4"]
        assert main(argv) == 0
        assert seen == [GENERATORS[name](np.random.default_rng(4))]

    @pytest.mark.parametrize(
        "scenario,generator",
        [("grid", "grid"), ("project", "project"), ("independent", "random")],
    )
    def test_demo_scenario(self, scenario, generator, monkeypatch, capsys):
        import repro.cli

        seen = []

        def compare(instance, results, **kwargs):
            seen.append((instance, sorted(results)))
            return []

        monkeypatch.setattr(repro.cli, "compare_algorithms", compare)
        assert main(["demo", "--scenario", scenario, "--seed", "4"]) == 0
        instance, labels = seen[0]
        assert instance == GENERATORS[generator](np.random.default_rng(4))
        assert labels == sorted(
            ["paper_algorithm", "serial", "round_robin", "greedy", "random_policy"]
        )


def test_broken_pipe_exits_quietly(tmp_path):
    # `suu info inst.json --bounds | head -1`: the reader goes away before
    # the output is written.
    inst = tmp_path / "inst.json"
    main(["generate", str(inst), "-n", "6", "-m", "2", "--seed", "1"])
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    argv = [sys.executable, "-m", "repro", "info", str(inst), "--bounds"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert err == ""
