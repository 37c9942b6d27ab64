"""Config parsing and the command-line entry point."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import krallhahn
from krallhahn.cli import main
from krallhahn.config import (
    BUILTIN_CONFIGS,
    builtin_config,
    config_from_dict,
    config_from_file,
)
from krallhahn.errors import ConfigInvalid

GOOD = {
    "a": "1/2",
    "b": "1/3",
    "N": 8,
    "F": [[], [], [], [1]],
    "path": "corollary",
    "checks": ["all"],
}


def _variant(**overrides):
    data = dict(GOOD)
    data.update(overrides)
    return data


class TestConfigParsing:
    def test_round_trip(self):
        cfg = config_from_dict(dict(GOOD), name="demo")
        assert cfg.a == Fraction(1, 2)
        assert cfg.quartet.fourth == (1,)
        assert cfg.resolved_checks() == tuple(
            config_from_dict(cfg.to_dict()).resolved_checks()
        )
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_round_trip_keeps_n_max(self):
        cfg = config_from_dict(_variant(n_max=5))
        assert cfg.n_max == 5 and cfg.to_dict()["n_max"] == 5
        assert config_from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "overrides,fragment",
        [
            ({"a": "1/0"}, "zero denominator"),
            ({"a": "abc"}, "field 'a'"),
            ({"a": 1.5}, "rational string"),
            ({"N": 0}, "positive integer"),
            ({"N": True}, "positive integer"),
            ({"F": [[], []]}, "four integer lists"),
            ({"F": [[0], [], [], []]}, "field 'F'"),
            ({"path": "sideways"}, "field 'path'"),
            ({"checks": []}, "nonempty list"),
            ({"checks": ["spin"]}, "unknown check"),
            ({"n_max": -1}, "n_max"),
            ({"extra": 1}, "unknown fields"),
            ({"h": [1, 1]}, "three integers"),
            ({"h": [2, 1, 1]}, "determined by F"),
            ({"F": [[], [], [], [1.9]]}, "field 'F'"),
            ({"F": [[], [], [], [True]]}, "field 'F'"),
            ({"F": [[], [], [], ["2"]]}, "field 'F'"),
            ({"F": [[], [], [], "12"]}, "field 'F'"),
            ({"a": "1e3"}, "exponent"),
            ({"b": "2E-1"}, "field 'b'.*exponent"),
            ({"checks": ["genre", "genre"]}, "field 'checks' names 'genre' twice"),
        ],
    )
    def test_rejections(self, overrides, fragment):
        with pytest.raises(ConfigInvalid, match=fragment):
            config_from_dict(_variant(**overrides))

    def test_missing_field(self):
        data = dict(GOOD)
        del data["a"]
        with pytest.raises(ConfigInvalid, match="missing field 'a'"):
            config_from_dict(data)

    def test_theorem_path_free_pads(self):
        cfg = config_from_dict(_variant(path="theorem", h=[2, 1, 1]))
        assert cfg.pads == (2, 1, 1)

    def test_builtins(self):
        for name in BUILTIN_CONFIGS:
            cfg = builtin_config(name)
            assert cfg.name == name
        with pytest.raises(ConfigInvalid, match="no builtin config"):
            builtin_config("nope")


class TestConfigFiles:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(GOOD))
        cfg = config_from_file(path)
        assert cfg.N == 8

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid, match="cannot read"):
            config_from_file(tmp_path / "absent.json")

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"a": 1}')
        with pytest.raises(ConfigInvalid, match="cannot read"):
            config_from_file(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigInvalid):
            config_from_file(path)


class TestCli:
    def test_verify_writes_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "a.json"
        cfg_path.write_text(json.dumps(_variant(name="single-root", checks=["genre", "support"])))
        report_path = tmp_path / "out.json"
        code = main(["verify", "--config", str(cfg_path), "--report", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "genre: PASS" in out
        assert "2/2 checks passed" in out
        payload = json.loads(report_path.read_text())
        assert payload["summary"]["passed"] is True
        assert [c["name"] for c in payload["checks"]] == ["genre", "support"]

    def test_verify_multiple_configs_report_is_a_list(self, tmp_path):
        paths = []
        for i in range(2):
            p = tmp_path / f"c{i}.json"
            p.write_text(json.dumps(_variant(checks=["genre"], name=f"c{i}")))
            paths.append(str(p))
        report_path = tmp_path / "out.json"
        code = main(
            ["verify", "--config", paths[0], "--config", paths[1], "--report", str(report_path)]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert isinstance(payload, list) and len(payload) == 2

    def test_unwritable_report_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "a.json"
        cfg_path.write_text(json.dumps(_variant(checks=["genre"])))
        report_path = tmp_path / "no" / "such" / "dir" / "r.json"
        assert main(["verify", "--config", str(cfg_path), "--report", str(report_path)]) == 2
        captured = capsys.readouterr()
        assert "cannot write report" in captured.err
        # the path is checked before any check runs
        assert "PASS" not in captured.out and "FAIL" not in captured.out

    def test_null_name_labels_the_report_with_the_file_stem(self, tmp_path, capsys):
        cfg_path = tmp_path / "stem.json"
        cfg_path.write_text(json.dumps(_variant(name=None, checks=["genre"])))
        report_path = tmp_path / "out.json"
        assert main(["verify", "--config", str(cfg_path), "--report", str(report_path)]) == 0
        assert "stem: genre: PASS" in capsys.readouterr().out
        assert json.loads(report_path.read_text())["config"]["name"] == "stem"
        for bad in (5, ["stem"], True):
            cfg_path.write_text(json.dumps(_variant(name=bad, checks=["genre"])))
            assert main(["verify", "--config", str(cfg_path)]) == 2
            assert "field 'name' must be a string" in capsys.readouterr().err

    def test_non_integer_root_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_variant(F=[[], [], [], [1.9]])))
        assert main(["verify", "--config", str(cfg_path)]) == 2
        assert "field 'F'" in capsys.readouterr().err

    def test_malformed_rational_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_variant(a="1/0")))
        assert main(["verify", "--config", str(cfg_path)]) == 2
        assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", [
        ([], "configuration must be a JSON object"),
        (_variant(a=True), "field 'a': boolean is not a rational"),
    ], ids=["list", "boolean"])
    def test_malformed_config_exits_2_with_one_line(self, tmp_path, capsys, data, message):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["verify", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_report_write_failure_after_the_run_exits_2(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "a.json"
        cfg_path.write_text(json.dumps(_variant(checks=["genre"])))
        report_path = tmp_path / "r.json"

        def refuse(self, *args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", refuse)
        assert main(["verify", "--config", str(cfg_path), "--report", str(report_path)]) == 2
        captured = capsys.readouterr()
        assert "genre: PASS" in captured.out  # the run finished before the write
        assert captured.err.splitlines() == [f"error: cannot write report {report_path}: disk full"]
        assert not report_path.exists()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(b'\xff\xfe{"a": 1}')
        assert main(["verify", "--config", str(cfg_path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_parameters_exit_2(self, tmp_path, capsys):
        # parses fine, fails the construction constraints
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_variant(a="2", F=[[], [1], [], []])))
        report_path = tmp_path / "r.json"
        assert main(["verify", "--config", str(cfg_path), "--report", str(report_path)]) == 2
        assert "second/fourth" in capsys.readouterr().err
        # probing the report path leaves no file behind
        assert not report_path.exists()

    def test_large_parameter_numerator_finishes(self, tmp_path):
        # a 75-bit numerator in a: the criteria precondition must not factor it
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps(_variant(a="10000000000000000000001/3", N=4)))
        env = dict(os.environ, PYTHONPATH=str(Path(krallhahn.__file__).parent.parent))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "krallhahn.cli", "verify", "--config", str(cfg_path)],
            env=env, capture_output=True, timeout=30,
        )
        assert done.returncode in (0, 1, 2), done.stderr
        assert time.perf_counter() - start < 5

    def test_demo(self, capsys):
        assert main(["demo", "--name", "classical"]) == 0
        out = capsys.readouterr().out
        assert "9/9 checks passed" in out
        assert "half-width r = 1" in out

    def test_enumerate_couples(self, capsys):
        assert main(["enumerate-couples", "--N", "10", "--roots", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 couples" in out
        assert "minimal r" in out

    def test_enumerate_couples_bad_roots(self, capsys):
        assert main(["enumerate-couples", "--N", "10", "--roots", "2,x"]) == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_enumerate_couples_out_of_range(self, capsys):
        assert main(["enumerate-couples", "--N", "10", "--roots", "12"]) == 2
