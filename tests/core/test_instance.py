"""Tests for repro.core.instance: validation, queries, serialization."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import DagClass, PrecedenceDAG, SUUInstance, ValidationError


class TestValidation:
    def test_basic_construction(self, tiny_independent):
        assert tiny_independent.n == 3
        assert tiny_independent.m == 3

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            SUUInstance(np.array([0.5, 0.5]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            SUUInstance(np.zeros((0, 0)))

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValidationError):
            SUUInstance(np.array([[0.5, 1.5]]))
        with pytest.raises(ValidationError):
            SUUInstance(np.array([[-0.1, 0.5]]))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            SUUInstance(np.array([[np.nan, 0.5]]))

    def test_rejects_unservable_job(self):
        # job 1 has p = 0 on every machine — violates the standing assumption
        with pytest.raises(ValidationError) as exc:
            SUUInstance(np.array([[0.5, 0.0], [0.3, 0.0]]))
        assert "1" in str(exc.value)

    def test_rejects_dag_size_mismatch(self):
        with pytest.raises(ValidationError):
            SUUInstance(np.array([[0.5, 0.5]]), PrecedenceDAG.independent(3))

    def test_p_is_read_only(self, tiny_independent):
        with pytest.raises(ValueError):
            tiny_independent.p[0, 0] = 0.5

    def test_p_is_copied(self):
        p = np.array([[0.5, 0.6]])
        inst = SUUInstance(p)
        p[0, 0] = 0.1
        assert inst.p[0, 0] == 0.5


class TestQueries:
    def test_p_min_positive(self):
        inst = SUUInstance(np.array([[0.5, 0.0], [0.02, 0.9]]))
        assert inst.p_min_positive == pytest.approx(0.02)

    def test_all_machines_success(self, tiny_independent):
        q = tiny_independent.all_machines_success
        expected0 = 1 - (1 - 0.9) * (1 - 0.3) * (1 - 0.1)
        assert q[0] == pytest.approx(expected0)

    def test_classify_delegates(self, tiny_chain):
        assert tiny_chain.classify() == DagClass.CHAINS


class TestTransforms:
    def test_induced_subinstance(self, tiny_tree):
        sub, mapping = tiny_tree.induced([1, 3])
        assert sub.n == 2
        assert sub.m == tiny_tree.m
        # edge (1, 3) survives, relabelled
        assert sub.dag.edges == ((mapping[1], mapping[3]),)
        np.testing.assert_allclose(sub.p[:, mapping[1]], tiny_tree.p[:, 1])

    def test_with_dag(self, tiny_independent):
        dag = PrecedenceDAG(3, [(0, 1)])
        inst = tiny_independent.with_dag(dag)
        assert inst.dag == dag
        np.testing.assert_array_equal(inst.p, tiny_independent.p)


class TestSerialization:
    def test_json_roundtrip(self, tiny_tree):
        restored = SUUInstance.from_json(tiny_tree.to_json())
        assert restored == tiny_tree
        assert restored.dag == tiny_tree.dag

    def test_dict_roundtrip_preserves_name(self, tiny_chain):
        restored = SUUInstance.from_dict(tiny_chain.to_dict())
        assert restored.name == "tiny-chain"

    def test_oversized_dag_refused_before_it_is_built(self):
        # The payload's job count is checked against p's columns before
        # the DAG allocates per-job structures for a million jobs.
        payload = {"p": [[0.5, 0.5]], "dag": {"n": 1_000_000, "edges": []}}
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="DAG has 1000000 jobs but"):
                SUUInstance.from_dict(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_equality_ignores_name(self, tiny_independent):
        other = SUUInstance(tiny_independent.p, name="different")
        assert other == tiny_independent

    def test_inequality_on_dag(self, tiny_independent):
        other = tiny_independent.with_dag(PrecedenceDAG(3, [(0, 1)]))
        assert other != tiny_independent

    def test_hashable(self, tiny_independent):
        assert isinstance(hash(tiny_independent), int)

    def test_repr(self, tiny_chain):
        text = repr(tiny_chain)
        assert "n=3" in text and "chains" in text
