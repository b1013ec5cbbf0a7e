"""Tests for repro.io.serialization — JSON conversion and result files."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.io.serialization import dump_json, load_json, to_jsonable
from repro.world.scenario import DVEConfig


class TestToJsonable:
    def test_scalars_passthrough(self):
        assert to_jsonable(3) == 3
        assert to_jsonable("x") == "x"
        assert to_jsonable(None) is None

    def test_numpy_scalars(self):
        assert to_jsonable(np.int64(4)) == 4
        assert to_jsonable(np.float64(0.5)) == 0.5

    def test_arrays_become_lists(self):
        assert to_jsonable(np.array([1, 2])) == [1, 2]

    def test_nested_dataclass(self):
        config = DVEConfig(num_servers=3, num_zones=6, num_clients=10, total_capacity_mbps=50)
        data = to_jsonable(config)
        assert data["num_servers"] == 3
        assert data["topology"]["num_as"] == 20

    def test_containers_become_lists(self):
        assert to_jsonable((1, np.int32(2))) == [1, 2]
        assert to_jsonable({3}) == [3]

    def test_dict_keys_stringified(self):
        assert to_jsonable({1: np.float32(0.5), "a": [np.int8(1)]}) == {"1": 0.5, "a": [1]}

    def test_bool_passthrough(self):
        assert to_jsonable(True) is True

    def test_unserialisable_raises(self):
        with pytest.raises(TypeError):
            to_jsonable(object())


class TestJsonFiles:
    def test_dump_and_load(self, tmp_path):
        payload = {"values": np.array([1.5, 2.5]), "name": "x"}
        path = dump_json(payload, tmp_path / "data.json")
        loaded = load_json(path)
        assert loaded == {"values": [1.5, 2.5], "name": "x"}

    def test_dump_creates_directories(self, tmp_path):
        path = dump_json({"a": 1}, tmp_path / "sub" / "dir" / "x.json")
        assert path.exists()

    def test_dump_indent_and_trailing_newline(self, tmp_path):
        text = dump_json({"a": [1]}, tmp_path / "x.json").read_text()
        assert text == '{\n  "a": [\n    1\n  ]\n}\n'


class TestAssignmentRoundTrip:
    def test_round_trip_preserves_arrays(self, tmp_path):
        assignment = Assignment(
            zone_to_server=np.array([2, 0, 1]),
            contact_of_client=np.array([0, 1, 1, 2]),
            algorithm="grez-grec",
            runtime_seconds=0.5,
        )
        loaded = load_json(dump_json(assignment, tmp_path / "a.json"))
        assert loaded["zone_to_server"] == [2, 0, 1]
        assert loaded["contact_of_client"] == [0, 1, 1, 2]
        assert loaded["algorithm"] == "grez-grec"
        assert loaded["capacity_exceeded"] is False
        assert loaded["runtime_seconds"] == 0.5
        restored = Assignment(
            zone_to_server=np.array(loaded["zone_to_server"]),
            contact_of_client=np.array(loaded["contact_of_client"]),
            algorithm=loaded["algorithm"],
            capacity_exceeded=loaded["capacity_exceeded"],
            runtime_seconds=loaded["runtime_seconds"],
        )
        np.testing.assert_array_equal(restored.zone_to_server, assignment.zone_to_server)
        np.testing.assert_array_equal(restored.contact_of_client, assignment.contact_of_client)
        assert restored.zone_to_server.dtype == assignment.zone_to_server.dtype


class TestConfigRoundTrip:
    def test_default_config_round_trip(self, tmp_path):
        config = DVEConfig()
        loaded = load_json(dump_json(config, tmp_path / "config.json"))
        assert loaded == to_jsonable(config)
        assert loaded["num_clients"] == config.num_clients
        assert loaded["delay_bound_ms"] == config.delay_bound_ms
