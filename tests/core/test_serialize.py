"""Unit tests for JSON result persistence."""

import json

import numpy as np
import pytest

from repro import partition
from repro.core.serialize import (
    FORMAT_VERSION,
    load_assignment,
    load_labels,
    save_result,
)
from repro.errors import DataError

from tests.core.conftest import random_instance


@pytest.fixture
def saved(tmp_path, instance):
    result = partition(instance, solver="b", seed=0)
    path = str(tmp_path / "result.json")
    save_result(result, path)
    return instance, result, path


class TestRoundTrip:
    def test_assignment_round_trip(self, saved):
        instance, result, path = saved
        loaded = load_assignment(path, instance)
        np.testing.assert_array_equal(loaded, result.assignment)

    def test_warm_start_from_file(self, saved):
        instance, result, path = saved
        warm = partition(
            instance, solver="b", warm_start=load_assignment(path, instance),
            seed=0,
        )
        assert warm.total_deviations == 0

    def test_labels_round_trip(self, saved):
        _, result, path = saved
        labels = load_labels(path)
        assert len(labels) == len(result.labels)

    def test_metadata_preserved(self, saved):
        _, result, path = saved
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["solver"] == result.solver
        assert payload["converged"] is True
        assert payload["format_version"] == FORMAT_VERSION
        assert len(payload["rounds"]) == len(result.rounds)


class TestValidation:
    def test_missing_file(self, instance):
        with pytest.raises(DataError):
            load_assignment("/nonexistent/result.json", instance)

    def test_bad_json(self, tmp_path, instance):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            load_assignment(str(path), instance)

    def test_wrong_version(self, tmp_path, instance):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format_version": 99, "assignment": []}))
        with pytest.raises(DataError):
            load_assignment(str(path), instance)

    def test_malformed_assignment(self, tmp_path, instance):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"format_version": FORMAT_VERSION, "assignment": "xx"})
        )
        with pytest.raises(DataError):
            load_assignment(str(path))

    def test_mismatched_instance(self, saved):
        _, _, path = saved
        other = random_instance(num_players=5, num_classes=2, seed=9)
        with pytest.raises(DataError):
            load_assignment(path, other)

    def test_labels_missing_section(self, tmp_path):
        path = tmp_path / "nolabels.json"
        path.write_text(json.dumps({"format_version": FORMAT_VERSION}))
        with pytest.raises(DataError):
            load_labels(str(path))
