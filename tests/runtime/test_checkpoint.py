"""Checkpoint serialization: byte-exact round trips and validation."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro import partition
from repro.core.serialize import (
    CHECKPOINT_FORMAT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from repro.errors import DataError
from repro.obs import recording
from repro.runtime import CountdownToken, SolveCheckpoint
from repro.runtime.checkpoint import (
    decode_array,
    decode_rng_state,
    encode_array,
    encode_rng_state,
)
from tests.core.conftest import random_instance


class TestArrayCodec:
    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.bool_])
    def test_round_trip_is_byte_exact(self, dtype):
        rng = np.random.RandomState(0)
        array = (rng.rand(7, 3) * 100).astype(dtype)
        decoded = decode_array(encode_array(array))
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        assert decoded.tobytes() == array.tobytes()

    def test_inf_survives_raw_encoding(self):
        array = np.array([1.5, np.inf, -np.inf], dtype=np.float64)
        decoded = decode_array(encode_array(array))
        assert decoded.tobytes() == array.tobytes()

    def test_json_round_trip(self):
        array = np.linspace(0, 1, 11)
        payload = json.loads(json.dumps(encode_array(array)))
        assert decode_array(payload).tobytes() == array.tobytes()

    def test_malformed_payload_raises_data_error(self):
        with pytest.raises(DataError):
            decode_array({"__ndarray__": True, "dtype": "float64",
                          "shape": [2], "data": "not base64!!!"})


class TestRngStateCodec:
    def test_round_trip_resumes_stream(self):
        rng = random.Random(42)
        rng.random()
        state = decode_rng_state(
            json.loads(json.dumps(encode_rng_state(rng.getstate())))
        )
        fork = random.Random()
        fork.setstate(state)
        assert [fork.random() for _ in range(5)] == [
            rng.random() for _ in range(5)
        ]


class TestSolveCheckpoint:
    def _checkpoint(self, instance):
        return SolveCheckpoint(
            solver="RMGP_gt",
            round_index=3,
            assignment=np.arange(instance.n, dtype=np.int64) % instance.k,
            frontier=np.zeros(instance.n, dtype=bool),
            rng_state=random.Random(7).getstate(),
            state={"table": np.ones((instance.n, instance.k)),
                   "sweep": [2, 0, 1]},
            fingerprint=SolveCheckpoint.fingerprint_of(instance),
        )

    def test_payload_round_trip(self):
        instance = random_instance()
        checkpoint = self._checkpoint(instance)
        payload = json.loads(json.dumps(checkpoint.to_payload()))
        restored = SolveCheckpoint.from_payload(payload)
        assert restored.solver == checkpoint.solver
        assert restored.round_index == checkpoint.round_index
        assert np.array_equal(restored.assignment, checkpoint.assignment)
        assert restored.rng_state == checkpoint.rng_state
        assert restored.state["table"].tobytes() == (
            checkpoint.state["table"].tobytes()
        )
        assert restored.state["sweep"] == [2, 0, 1]

    def test_validate_for_rejects_wrong_solver(self):
        instance = random_instance()
        with pytest.raises(DataError):
            self._checkpoint(instance).validate_for(instance, "RMGP_vec")

    def test_validate_for_rejects_other_instance(self):
        instance = random_instance()
        other = random_instance(num_players=25, seed=9)
        with pytest.raises(DataError):
            self._checkpoint(instance).validate_for(other, "RMGP_gt")

    def test_save_load_file(self, tmp_path):
        instance = random_instance()
        checkpoint = self._checkpoint(instance)
        path = tmp_path / "nested" / "solve.ckpt.json"
        save_checkpoint(checkpoint, str(path))
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        assert raw["format_version"] == CHECKPOINT_FORMAT_VERSION
        restored = load_checkpoint(str(path))
        restored.validate_for(instance, "RMGP_gt")
        assert np.array_equal(restored.assignment, checkpoint.assignment)

    def test_load_rejects_future_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 999, "checkpoint": {}}))
        with pytest.raises(DataError):
            load_checkpoint(str(path))

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            load_checkpoint(str(path))


def _bad_sweep(state, n, k):
    state["sweep"][0] = n


def _bad_groups(state, n, k):
    state["groups"][0][0] = n


def _wide_table(state, n, k):
    state["table"] = np.zeros((n, k + 1))


def _bad_heap(state, n, k):
    state["heap_players"][0] = n


def _short_best(state, n, k):
    state["best_assignment"] = state["best_assignment"][:-1]


#: (registry name, solver kwargs, corruption of the checkpoint state)
CORRUPTIONS = [
    ("b", {}, _bad_sweep),
    ("se", {}, _bad_sweep),
    ("is", {}, _bad_groups),
    ("gt", {}, _bad_sweep),
    ("gt", {}, _wide_table),
    ("all", {}, _wide_table),
    ("vec", {}, _bad_groups),
    ("mg", {}, _bad_heap),
    ("sync", {"damping": 0.7}, _short_best),
    ("cap", {"capacities": [12] * 4}, _bad_sweep),
    ("minpart", {"min_participants": 2}, _bad_sweep),
]


def _round0_checkpoint(tmp_path, name, kwargs):
    """A real checkpoint taken at the round-0 boundary."""
    instance = random_instance()
    path = str(tmp_path / f"{name}.ckpt.json")
    partial = partition(
        instance, solver=name, seed=3, cancel_token=CountdownToken(0),
        checkpoint_path=path, **kwargs,
    )
    assert partial.stop_reason == "cancelled"
    return instance, load_checkpoint(path)


def _assert_fails_before_round_one(instance, name, kwargs, checkpoint):
    with recording() as recorder:
        with pytest.raises(DataError):
            partition(
                instance, solver=name, seed=3, resume_from=checkpoint,
                **kwargs,
            )
    assert not [
        span for span in recorder.spans
        if span.name == "round" and span.attrs.get("round", 0) >= 1
    ]


class TestCorruptCheckpointFailsClosed:
    """A corrupt resume checkpoint raises DataError before round 1."""

    @pytest.mark.parametrize(
        "name,kwargs,corrupt", CORRUPTIONS,
        ids=[f"{c[0]}-{c[2].__name__.strip('_')}" for c in CORRUPTIONS],
    )
    def test_corrupt_solver_state(self, tmp_path, name, kwargs, corrupt):
        instance, checkpoint = _round0_checkpoint(tmp_path, name, kwargs)
        corrupt(checkpoint.state, instance.n, instance.k)
        _assert_fails_before_round_one(instance, name, kwargs, checkpoint)

    @pytest.mark.parametrize("name", sorted({c[0] for c in CORRUPTIONS}))
    def test_wrong_length_frontier(self, tmp_path, name):
        kwargs = {c[0]: c[1] for c in CORRUPTIONS}[name]
        instance, checkpoint = _round0_checkpoint(tmp_path, name, kwargs)
        checkpoint.frontier = np.ones(instance.n + 1, dtype=bool)
        _assert_fails_before_round_one(instance, name, kwargs, checkpoint)

    def test_round_trace_must_match_round_index(self, tmp_path):
        instance, checkpoint = _round0_checkpoint(tmp_path, "gt", {})
        checkpoint.round_index = 2
        _assert_fails_before_round_one(instance, "gt", {}, checkpoint)
