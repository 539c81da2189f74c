import json
import shlex
from pathlib import Path

import pytest

from kleinverify.cli import run
from kleinverify import builtin, certificate_to_dict


def test_verify_paper_text(capsys):
    assert run(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert "chi_ok" in out and "witnesses_ok" in out
    assert "VERIFIED" in out
    # one line per flag plus the verdict line
    assert len(out.strip().splitlines()) == 9


def test_verify_paper_json_roundtrip(capsys):
    assert run(["verify-paper", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_ok"] is True
    assert json.loads(json.dumps(data)) == data


def test_chi_builtin(capsys):
    assert run(["chi", "--presentation", "Q"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run(["chi", "--presentation", "P"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_chi_from_file(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(builtin.presentation_q().to_dict()), encoding="utf-8")
    assert run(["chi", "--presentation", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_normal_form(capsys):
    assert run(["normal-form", "y^-1 x y"]) == 0
    assert capsys.readouterr().out.strip() == "x^-1"
    assert run(["normal-form", "y^-2 x y^2 x^-1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_fox(capsys):
    assert run(["fox", "x y", "y"]) == 0
    assert capsys.readouterr().out.strip() == "1*(x)"


def test_member(capsys):
    assert run(["member", "y^2*(1) + (-1)"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["member", "(1)"]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_divides_exit_codes(capsys):
    assert run(["divides", "x^3 - x - 1", "x^3 + x^2 - 1"]) == 1
    assert capsys.readouterr().out.strip() == "false"
    assert run(["divides", "x^2", "x^5"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_parse_error_exit_code(capsys):
    assert run(["divides", "x^3 -", "x"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert run(["normal-form", "x^"]) == 2
    assert run(["member", "y^2*(1"]) == 2


def test_missing_file_exit_code():
    assert run(["chi", "--presentation", "no_such_file.json"]) == 2


def test_certificate_command(tmp_path, capsys):
    cert = builtin.forward_certificates()[0]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(certificate_to_dict(cert)), encoding="utf-8")
    assert run(["certificate", "--certificate", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "pass"

    broken = certificate_to_dict(cert)
    broken["target"] = "x"
    path.write_text(json.dumps(broken), encoding="utf-8")
    assert run(["certificate", "--certificate", str(path)]) == 1
    assert capsys.readouterr().out.strip() == "fail"


def test_stafford_default(capsys):
    assert run(["stafford"]) == 0
    out = capsys.readouterr().out
    assert "condition_i   ok" in out
    assert "condition_ii  ok" in out


def test_stafford_custom_instance(capsys):
    # r = 1: condition (ii) fails, and no witness is known for condition (i)
    assert run(["stafford", "--r", "1"]) == 1
    out = capsys.readouterr().out
    assert "condition_ii  FAIL" in out


def test_stafford_json(capsys):
    assert run(["stafford", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["condition_i"] is True
    assert data["monic"] == "y^2*(1) + (-1)"


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_certificate_relator_index_out_of_range(tmp_path, capsys):
    data = certificate_to_dict(builtin.forward_certificates()[0])
    data["factors"][0]["rel"] = 5
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(["certificate", "--certificate", str(path), "--presentation", "P"]) == 2
    err = capsys.readouterr().err
    assert err == "error: relator index 5 out of range\n"


def test_leading_minus_values(capsys):
    assert run(["divides", "-x", "x^2"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["member", "-(1)", "--s", "-x^-1", "--r", "-x^3 + x + 1"]) == 1
    assert capsys.readouterr().out.strip() == "false"
    assert run(["stafford", "--s", "-1", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["s"] == "-1"


def test_leading_minus_file_paths(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cert = builtin.forward_certificates()[0]
    (tmp_path / "-cert.json").write_text(json.dumps(certificate_to_dict(cert)), encoding="utf-8")
    p = builtin.presentation_p()
    (tmp_path / "-p.json").write_text(json.dumps(p.to_dict()), encoding="utf-8")
    assert run(["certificate", "--certificate", "-cert.json", "--presentation", "-p.json"]) == 0
    assert capsys.readouterr().out.strip() == "pass"
    assert run(["chi", "--presentation", "-p.json"]) == 0
    assert capsys.readouterr().out.strip() == "0"


# Documented exit status and an expected output line of every command in
# the README's "Command line" section, keyed by the command as written there.
README_COMMANDS = {
    "kleinverify verify-paper": (0, "VERIFIED: the second homotopy module is stably free"
                                    " and not free, on a complex with chi = 1 and Klein"
                                    " bottle fundamental group"),
    "kleinverify verify-paper --format json": (0, '"all_ok": true,'),
    "kleinverify chi --presentation Q": (0, "1"),
    'kleinverify normal-form "y^-1 x y"': (0, "x^-1"),
    'kleinverify fox "x y" y': (0, "1*(x)"),
    'kleinverify divides "x^3 - x - 1" "x^3 + x^2 - 1"': (1, "false"),
    'kleinverify member "y^2*(1) + (-1)"': (0, "true"),
    'kleinverify member "(1)" --r "x^3 - x - 1" --s "-x^-1"': (1, "false"),
    "kleinverify certificate --certificate cert.json": (0, "pass"),
    'kleinverify stafford --r "x^3 - x - 1" --s "-x^-1"': (0, "condition_ii  ok"),
}


def _readme_commands():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [
        line.split("  #", 1)[0].strip()
        for line in section.splitlines()
        if line.startswith("kleinverify ")
    ]


def test_readme_commands(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert sorted(commands) == sorted(README_COMMANDS)
    monkeypatch.chdir(tmp_path)
    cert = builtin.forward_certificates()[0]
    (tmp_path / "cert.json").write_text(json.dumps(certificate_to_dict(cert)), encoding="utf-8")
    for command in commands:
        status, line = README_COMMANDS[command]
        argv = shlex.split(command)[1:]
        assert run(argv) == status, command
        captured = capsys.readouterr()
        assert line in [out.strip() for out in captured.out.splitlines()], command
        assert captured.err == "", command


def _factor(rel=0, sign=1) -> dict:
    """The certificate of P's relator over P, with rel and sign replaced."""
    factor = {"w": "1", "rel": rel, "sign": sign}
    return {"target": "y^-1 x y x", "factors": [factor], "source": "P"}


# Valid JSON whose fields have the wrong type is bad input (exit 2), not a
# failed check and not a traceback.  A numeric source must not reach open(),
# which would read file descriptor 0, stdin.
@pytest.mark.parametrize(
    "command, data, reason",
    [
        ("certificate", {"target": "x", "factors": [1]}, "certificate factor"),
        ("certificate", {"target": 5, "factors": []}, "must be a string, not 5"),
        ("certificate", {"target": "1", "factors": [], "source": 0}, "source"),
        ("chi", {"generators": ["x", "y"], "relators": [7]}, "must be a string, not 7"),
        ("certificate", _factor(rel=0.9), "must be integers: 0.9, 1"),
        ("certificate", _factor(sign=1.5), "must be integers: 0, 1.5"),
        ("certificate", _factor(rel="0"), "must be integers: '0', 1"),
        ("certificate", _factor(rel=True), "must be integers: True, 1"),
        ("certificate", _factor(rel=[0]), "must be integers: [0], 1"),
        ("certificate", 5, "needs an object"),
        ("certificate", {"target": "1", "factors": 5}, "'factors' must be a list, not 5"),
        ("chi", {"generators": ["x", "y"], "relators": 7}, "must be lists of strings"),
        ("chi", {"generators": 5, "relators": []}, "must be lists of strings"),
    ],
    ids=[
        "factor-not-object", "target-not-string", "source-not-string", "relator-not-string",
        "rel-float", "sign-float", "rel-string", "rel-bool", "rel-list",
        "certificate-not-object", "factors-not-list", "relators-not-list", "generators-not-list",
    ],
)
def test_wrong_typed_json_fields_exit_2(tmp_path, capsys, command, data, reason):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    flag = "--certificate" if command == "certificate" else "--presentation"
    assert run([command, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and reason in err, err


# Input nested deeper than the JSON decoder can recurse is bad input too.
# json.dumps cannot build it, so the file is written as raw text.
@pytest.mark.parametrize("command", ["certificate", "chi"])
def test_deeply_nested_json_exit_2(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    flag = "--certificate" if command == "certificate" else "--presentation"
    assert run([command, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
