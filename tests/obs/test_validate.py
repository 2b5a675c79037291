"""One artifact reader and one ``repro validate`` for every artifact kind.

Covers the reader's fail-closed contract (unreadable, non-UTF-8, empty
and malformed files are violations, never exceptions), the dispatch on
file content, the command's exit codes and clean stderr, and fuzzing of
both: arbitrary bytes, and real artifacts of each of the four kinds
with one node of their JSON tree swapped for an arbitrary JSON value.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import partition
from repro.cli import main
from repro.core.result_schema import RESULT_SCHEMA_VERSION
from repro.datasets import paper_example_instance
from repro.obs import ManualClock, TraceRecorder, trace_records
from repro.obs.chrome import chrome_trace
from repro.obs.validate import (
    ERROR_SCHEMA,
    RESULT_SCHEMA,
    read_artifact,
    validate_file,
)
from repro.serve.errors import ERROR_SCHEMA_VERSION, error_body

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _recorder() -> TraceRecorder:
    clock = ManualClock()
    rec = TraceRecorder(clock=clock)
    with rec.span("solve", solver="gt"):
        clock.advance(0.5)
        with rec.span("round", round=1):
            clock.advance(0.25)
            rec.event("cycle_detected", round=1)
    rec.count("solver.rounds", 1)
    rec.observe("solver.round_ms", 3.0)
    return rec


@lru_cache(maxsize=None)
def _artifacts():
    """One real document list per artifact kind (trace = JSONL)."""
    result = partition(paper_example_instance(), solver="gt", seed=0)
    return {
        "trace": list(trace_records(_recorder())),
        "chrome": [chrome_trace(_recorder())],
        "result": [result.to_dict(include_assignment=True)],
        "error": [error_body(429, "queue_full", "full", retry_after_seconds=1)],
    }


def _write(path, documents) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(json.dumps(d) + "\n" for d in documents))
    return str(path)


def _run(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=120,
    )


class TestReadArtifact:
    def test_single_document_and_jsonl(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text('{"a": 1,\n "b": [2]}')
        assert read_artifact(str(single)) == ([{"a": 1, "b": [2]}], [])
        lines = tmp_path / "many.jsonl"
        lines.write_text('{"a": 1}\n\n[2]\n')
        assert read_artifact(str(lines)) == ([{"a": 1}, [2]], [])

    def test_bad_line_is_numbered_and_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\n{broken\n{"b": 2}\n')
        documents, errors = read_artifact(str(path))
        assert documents == [{"a": 1}, {"b": 2}]
        assert len(errors) == 1 and errors[0].startswith("line 2:")

    @pytest.mark.parametrize(
        "content, expected",
        [(b"", "empty file"), (b" \n\t\n", "empty file"),
         (b"\xff\xfe{}", "unreadable"), (None, "unreadable")],
        ids=["empty", "blank", "non-utf8", "missing"],
    )
    def test_unreadable_inputs_are_violations(
        self, tmp_path, content, expected
    ):
        path = tmp_path / "f.json"
        if content is not None:
            path.write_bytes(content)
        documents, errors = read_artifact(str(path))
        assert documents == []
        assert len(errors) == 1 and errors[0].startswith(expected)

    def test_directory_is_a_violation(self, tmp_path):
        assert read_artifact(str(tmp_path))[1][0].startswith("unreadable")


class TestDispatch:
    def test_dispatch_tags_match_the_schemas(self):
        assert RESULT_SCHEMA == RESULT_SCHEMA_VERSION
        assert ERROR_SCHEMA == ERROR_SCHEMA_VERSION

    @pytest.mark.parametrize("kind", ["trace", "chrome", "result", "error"])
    def test_every_real_artifact_conforms(self, kind, tmp_path):
        path = _write(tmp_path / "a.json", _artifacts()[kind])
        assert validate_file(path) == []

    @pytest.mark.parametrize(
        "document",
        [{}, [], 3, "x", {"schema": "repro-result/v2"}, {"type": "span"}],
    )
    def test_unrecognized_documents_are_violations(self, document, tmp_path):
        errors = validate_file(_write(tmp_path / "a.json", [document]))
        assert len(errors) == 1 and "not a recognized artifact" in errors[0]

    def test_each_kind_reaches_its_checker(self, tmp_path):
        trace = [{"type": "meta", "schema": "repro-trace/v2"},
                 {"type": "span"}]
        assert any(
            "missing key 'id'" in e
            for e in validate_file(_write(tmp_path / "t.jsonl", trace))
        )
        chrome = [{"traceEvents": 5}]
        assert validate_file(_write(tmp_path / "c.json", chrome)) == [
            "'traceEvents' must be a list"
        ]
        result = [{"schema": RESULT_SCHEMA}]
        assert "solver: required key missing" in validate_file(
            _write(tmp_path / "r.json", result)
        )
        error = [{"schema": ERROR_SCHEMA, "error": {}}]
        assert "error.code: required key missing" in validate_file(
            _write(tmp_path / "e.json", error)
        )


class TestCommand:
    def test_valid_trace_under_warnings_as_errors(self, tmp_path):
        path = _write(tmp_path / "t.jsonl", _artifacts()["trace"])
        done = _run("-W", "error", "-m", "repro", "validate", path)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert "conforms" in done.stdout

    def test_exit_codes_and_no_traceback(self, tmp_path):
        trace = _write(tmp_path / "t.jsonl", _artifacts()["trace"])
        with open(trace, "rb") as handle:
            data = handle.read()
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_bytes(data[:-5])  # cut inside the last line
        non_utf8 = tmp_path / "latin1.json"
        non_utf8.write_bytes(b'{"schema": "caf\xe9"}')
        surrogate = tmp_path / "surrogate.json"
        surrogate.write_text(
            '{"schema": "repro-error/v1", "error": {"\\ud800": 1}}'
        )
        cases = [
            ([str(truncated)], 1),
            ([str(non_utf8)], 1),
            ([str(surrogate)], 1),
            ([str(tmp_path / "missing.json")], 1),
            ([], 2),
            ([trace, trace], 2),
        ]
        for args, code in cases:
            done = _run("-m", "repro", "validate", *args)
            assert done.returncode == code, (args, done.stderr)
            assert "Traceback" not in done.stderr, done.stderr

    def test_import_repro_obs_loads_no_validator_module(self):
        done = _run(
            "-c",
            "import sys, repro.obs; "
            "print(' '.join(m for m in sys.modules if m.startswith('repro')))",
        )
        loaded = set(done.stdout.split())
        assert "repro.obs" in loaded
        for name in ("repro.obs.validate", "repro.core.result_schema",
                     "repro.serve.errors"):
            assert name not in loaded


# ----------------------------------------------------------------------
# Fuzzing: the reader and the dispatcher never raise.

_TEXT = st.text(st.one_of(st.characters(), st.just("\ud800")), max_size=6)
#: Integers past int64 and past float range reach the digest and the
#: span-time arithmetic.
_EDGE_INTS = st.sampled_from([2**63, -(2**63) - 1, 10**400])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _EDGE_INTS | st.floats()
    | _TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_TEXT, children, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every path into a JSON tree (the root included)."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _swap(documents, path, value):
    parent = documents
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value


#: Values swapped into every node of every artifact kind.
SWAPS = [
    None, True, 0, -1, 2**63, 10**400, 1.5, float("nan"), float("inf"),
    "x", "", "\ud800", [], {}, [1, [2]], {"\ud800": [True]},
]


@pytest.mark.parametrize("kind", ["trace", "chrome", "result", "error"])
def test_every_node_swap_never_raises(kind, tmp_path):
    base = json.dumps(_artifacts()[kind])
    paths = [p for p in _paths(json.loads(base)) if p]
    path_file = tmp_path / "artifact.json"
    for path in paths:
        for value in SWAPS:
            documents = json.loads(base)
            _swap(documents, path, value)
            errors = validate_file(_write(path_file, documents))
            assert all(isinstance(e, str) for e in errors), (path, value)


def _check_file(data: bytes) -> None:
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "artifact")
        with open(path, "wb") as handle:
            handle.write(data)
        errors = validate_file(path)
        assert isinstance(errors, list)
        assert all(isinstance(e, str) for e in errors)
        assert main(["validate", path]) == (1 if errors else 0)


_FUZZ = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_FUZZ
@given(data=st.binary(max_size=256))
def test_arbitrary_bytes_never_raise(data):
    _check_file(data)


@_FUZZ
@given(
    kind=st.sampled_from(["trace", "chrome", "result", "error"]),
    data=st.data(),
)
def test_swapped_artifacts_never_raise(kind, data):
    documents = json.loads(json.dumps(_artifacts()[kind]))
    path = data.draw(st.sampled_from([p for p in _paths(documents) if p]))
    _swap(documents, path, data.draw(JSON_VALUES))
    _check_file(
        "".join(json.dumps(d) + "\n" for d in documents).encode()
    )
