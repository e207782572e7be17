import json

import pytest

from rpencil import serialize
from rpencil.cli import main
from rpencil.quadratic import a0q


def test_run_pass(capsys):
    code = main(["run", "--suite", "pencil-type2", "--n", "2", "--mode", "fast"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    assert report["parameters"] == {"n": 2, "degree": 4, "mode": "fast", "seed": 0}


def test_run_writes_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["run", "--suite", "glie", "--mode", "fast", "--out", str(out)]
    )
    assert code == 0
    on_disk = out.read_text()
    assert on_disk == capsys.readouterr().out
    assert json.loads(on_disk)["suite"] == "glie"


def test_run_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code = main(
        ["run", "--suite", "pencil-type2", "--n", "2", "--mode", "fast", "--out", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing printed before the write failed
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.parent.exists()


def test_run_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(
            ["run", "--suite", "quantum-type2", "--mode", "fast", "--out", str(path)]
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_suite_exits_2(capsys):
    assert main(["run", "--suite", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "unknown suite" in err
    assert "pencil-type1" in err  # message lists the available suites


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # --suite is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--suite", "glie", "--mode", "sloppy"])
    assert exc.value.code == 2


def test_parse_valid_file(tmp_path, capsys):
    path = tmp_path / "pres.json"
    serialize.save(a0q(2), path)
    assert main(["parse", str(path)]) == 0
    assert capsys.readouterr().out == serialize.dumps(a0q(2))


def test_parse_invalid_file_exits_2(tmp_path, capsys):
    path = tmp_path / "pres.json"
    data = serialize.to_data(a0q(2))
    data["payload"]["relations"][0][0][1] = "2/4"
    path.write_text(json.dumps(data))
    assert main(["parse", str(path)]) == 2
    assert "2/4" in capsys.readouterr().err


def test_parse_missing_file_exits_2(tmp_path, capsys):
    assert main(["parse", str(tmp_path / "absent.json")]) == 2


def test_math_failure_exits_1(monkeypatch, capsys):
    # force one check to fail to confirm the exit-code contract
    import rpencil.cli as cli_mod

    def fake_run_suite(name, n, degree, mode, seed):
        return {
            "schema": 1,
            "suite": name,
            "parameters": {"n": n, "degree": degree, "mode": mode, "seed": seed},
            "checks": [{"name": "forced", "pass": False, "details": {}}],
            "verdict": "fail",
        }

    monkeypatch.setattr(cli_mod, "run_suite", fake_run_suite)
    assert main(["run", "--suite", "glie"]) == 1
