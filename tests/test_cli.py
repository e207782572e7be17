import json

import pytest

from rpencil import serialize, suites
from rpencil.cli import main
from rpencil.poisson import sd_quadratic
from rpencil.quadratic import a0q
from rpencil.rmatrix import hecke_s
from rpencil.scalars import PoleError


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
    path.write_text(serialize.dumps(a0q(2)), encoding="utf-8")
    assert main(["parse", str(path)]) == 0
    assert capsys.readouterr().out == serialize.dumps(a0q(2))


def test_parse_invalid_file_exits_2(tmp_path, capsys):
    path = tmp_path / "pres.json"
    data = serialize.to_data(a0q(2))
    data["payload"]["relations"][0][0][1] = "2/4"
    path.write_text(json.dumps(data))
    assert main(["parse", str(path)]) == 2
    assert "2/4" in capsys.readouterr().err


def test_parse_repeated_key_exits_2(tmp_path, capsys):
    text = serialize.dumps(a0q(2)).replace('"flag":"graded"', '"flag":"graded","flag":"filtered"')
    path = tmp_path / "pres.json"
    path.write_text(text, encoding="utf-8")
    assert main(["parse", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: $: repeated key 'flag'"]


@pytest.mark.parametrize("field", ["generator-index", "exponent"])
def test_parse_rejects_boolean_integers(tmp_path, capsys, field):
    # JSON true and false load as the Python ints 1 and 0; accepting them
    # would echo a file that is not canonical
    if field == "generator-index":
        data = serialize.to_data(a0q(2))
        data["payload"]["relations"][0][0][0] = [False, True]
    else:
        data = serialize.to_data(sd_quadratic(2))
        data["payload"]["table"]["0,1"][0][0] = [True, True, False, False]
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(data))
    assert main(["parse", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: $.payload.")


def test_parse_missing_file_exits_2(tmp_path, capsys):
    assert main(["parse", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize(
    "content,reason",
    [
        (b"[" * 200000, "nested too deeply"),
        (b'{"schema": 1, "kind": "\xff"}', "not UTF-8 text: invalid start byte at byte 23"),
    ],
    ids=["over-nested", "not-utf8"],
)
def test_parse_unreadable_file_exits_2(tmp_path, capsys, content, reason):
    path = tmp_path / "pres.json"
    path.write_bytes(content)
    assert main(["parse", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: $: ")
    assert reason in lines[0]


@pytest.mark.parametrize(
    "text, reason",
    [
        pytest.param(text, reason, id=text)
        for text, reason in [
            ("(q**100*h**100*lam**100 - 1)/(q**50*h**50*lam**50 - 1)", "value too large"),
            ("(q**100 + h**100 + lam**100)/(q**99*h - h**99*lam + lam**99*q)", "value too large"),
            # out of the printed shape: refused as unreadable, never formed
            ("((2**100)**100)**2", "cannot read term '((2**100)**100)**2'"),
            ("((q+h+lam+1)**20)**3", "cannot read term '((q'"),
            ("((q+h+lam+1)**22*(q+h+lam+5))/((q+h+lam+2)**22*(q+h+lam+3))", "cannot read term '(q'"),
        ]
    ]
    + [
        # the message repeats only the first characters of the scalar and its length
        pytest.param("1" * 100_000, "integer literal too long", id="100000-digits"),
        pytest.param(
            "(" + "+".join(["q"] * 20_000) + ")", "canonical form is '20000*q')", id="20000-terms"
        ),
    ],
)
def test_parse_oversized_scalar_exits_2(tmp_path, capsys, text, reason):
    data = serialize.to_data(hecke_s(2))
    data["payload"]["matrix"]["entries"]["1,2"] = text
    path = tmp_path / "braid.json"
    path.write_text(json.dumps(data))
    assert main(["parse", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and len(lines[0].encode()) < 300
    assert lines[0].startswith("error: $.payload.matrix.entries[1,2]: ")
    assert lines[0].endswith(reason)


@pytest.mark.parametrize(
    "exc",
    [PoleError("denominator of 1/(q - 2) vanishes at q=2"), RuntimeError("two\nlines")],
)
def test_internal_error_exits_3(monkeypatch, capsys, exc):
    def failing_suite(n, degree, assign, rng, checks):
        raise exc

    monkeypatch.setitem(suites._RUNNERS, "glie", failing_suite)
    assert main(["run", "--suite", "glie"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: suite glie stopped: ")
    assert type(exc).__name__ in lines[0]


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
