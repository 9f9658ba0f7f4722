"""Unit tests for the capability-typed solver registry."""

from __future__ import annotations

import pytest

from repro.algorithms import solve
from repro.algorithms.registry import (
    ALL_CLASSES,
    SOLVERS,
    Solver,
    describe_solvers,
    iter_solvers,
    register_solver,
    resolve_solver,
    solver_names,
)
from repro.errors import ExperimentError, UnsupportedDagError
from repro.workloads import random_instance


class TestRecords:
    def test_every_record_is_well_formed(self):
        for name, s in SOLVERS.items():
            assert s.name == name
            assert callable(s.fn)
            assert s.dag_classes and s.dag_classes <= ALL_CLASSES
            assert s.adaptivity in ("oblivious", "adaptive", "regimen")
            assert s.cost in ("cheap", "lp", "exponential")
            assert s.guarantee and s.paper

    def test_auto_ranks_reproduce_the_paper_order(self):
        ranked = sorted(
            (s for s in SOLVERS.values() if s.auto_rank is not None),
            key=lambda s: s.auto_rank,
        )
        assert [s.name for s in ranked] == ["lp", "chains", "tree", "forest", "layered"]
        assert [s for s in ranked if s.fallback] == [resolve_solver("layered")]

    def test_solver_names_sorted(self):
        assert solver_names() == sorted(SOLVERS)


class TestResolve:
    def test_resolve_known(self):
        assert resolve_solver("serial").name == "serial"

    def test_resolve_unknown_lists_registry(self):
        with pytest.raises(ExperimentError, match="unknown solver 'nope'"):
            resolve_solver("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ExperimentError, match="already registered"):
            register_solver(
                Solver(
                    name="serial",
                    fn=lambda inst: None,
                    dag_classes=ALL_CLASSES,
                    adaptivity="oblivious",
                    guarantee="dup",
                )
            )

    def test_bad_adaptivity_rejected(self):
        with pytest.raises(ExperimentError, match="adaptivity"):
            register_solver(
                Solver(
                    name="weird",
                    fn=lambda inst: None,
                    dag_classes=ALL_CLASSES,
                    adaptivity="psychic",
                    guarantee="none",
                )
            )


class TestCapabilities:
    def test_supports_gates_on_dag_class(self, rng):
        chains = random_instance(8, 3, dag_kind="chains", num_chains=3, rng=rng)
        assert not resolve_solver("lp").supports(chains)
        assert resolve_solver("chains").supports(chains)
        assert resolve_solver("forest").supports(chains)

    def test_supports_gates_on_size_caps(self, rng):
        big = random_instance(20, 4, rng=rng)
        assert not resolve_solver("exact").supports(big)
        assert not resolve_solver("state_round_robin").supports(big)
        assert resolve_solver("serial").supports(big)

    def test_iter_solvers_is_sorted_and_filtered(self, rng):
        chains = random_instance(8, 3, dag_kind="chains", num_chains=3, rng=rng)
        admitted = iter_solvers(chains)
        names = [s.name for s in admitted]
        assert names == sorted(names)
        assert "lp" not in names and "adaptive" not in names
        assert {"chains", "tree", "forest", "serial", "online_greedy"} <= set(names)

    def test_build_is_not_capability_gated(self, rng):
        # Forcing a solver must surface the solver's own error wording.
        chains = random_instance(6, 3, dag_kind="chains", num_chains=2, rng=rng)
        with pytest.raises(UnsupportedDagError, match="requires independent jobs"):
            resolve_solver("lp").build(chains)

    def test_newly_registered_solver_joins_auto_dispatch(self, rng, monkeypatch):
        # A registered record with a better rank wins the query — the
        # pipeline has no hard-coded list left to bypass.
        inst = random_instance(6, 3, rng=rng)
        winner = Solver(
            name="test_front",
            fn=lambda instance: resolve_solver("serial").fn(instance),
            dag_classes=ALL_CLASSES,
            adaptivity="oblivious",
            guarantee="test",
            auto_rank=1,
        )
        monkeypatch.setitem(SOLVERS, "test_front", winner)
        assert solve(inst).algorithm == "serial_baseline"


class TestDescribe:
    def test_rows_cover_registry(self):
        rows = describe_solvers()
        assert [r["name"] for r in rows] == solver_names()
        assert all(
            set(r) == {"name", "dag_classes", "adaptivity", "cost", "guarantee", "paper"}
            for r in rows
        )

    def test_dag_classes_rendered_compactly(self):
        rows = {r["name"]: r for r in describe_solvers()}
        assert rows["serial"]["dag_classes"] == "any"
        assert rows["lp"]["dag_classes"] == "independent"
        assert rows["chains"]["dag_classes"] == "chains,independent"
