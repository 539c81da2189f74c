import json
import re
import shlex
from pathlib import Path

import pytest

from kleinverify.cli import run
from kleinverify import SPoly, builtin
from kleinverify.verify import NonFreenessReport

from helpers import certificate_to_dict, counting


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


def test_only_the_printed_format_is_rendered(capsys):
    # text member prints true or false and formats no operand; JSON
    # verify-paper builds no report text, and text no JSON payload
    # CI's 2000-row element (y^2 - 1) * sum_k y^k x^(k mod 5), in V for r = 1, s = -x^-1
    element = " + ".join("y^%d*(%s)" % (d, " ".join(
        "%sx^%d" % (sign, k % 5) for sign, k in (("+", d - 2), ("-", d)) if 0 <= k < 1998))
        for d in range(2000))
    argv = ["member", element, "--r", "1", "--s=-x^-1", "--format"]
    with counting(SPoly, "__str__") as text_calls:
        assert run(argv + ["text"]) == 0
    assert text_calls == {"__str__": 0}
    assert capsys.readouterr().out == "true\n"
    with counting(SPoly, "__str__") as json_calls:
        assert run(argv + ["json"]) == 0
    assert json_calls == {"__str__": 1}
    assert json.loads(capsys.readouterr().out)["value"] is True
    for fmt, built, skipped in (("json", "to_json_dict", "to_text"), ("text", "to_text", "to_json_dict")):
        with counting(NonFreenessReport, "to_json_dict", "to_text") as calls:
            assert run(["verify-paper", "--format", fmt]) == 0
        assert calls == {built: 1, skipped: 0}
    capsys.readouterr()


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
    # the derivative by a generator the word does not use is 0
    assert run(["fox", "x y", "z"]) == 0
    assert capsys.readouterr().out.strip() == "0"


@pytest.mark.parametrize(
    "argv, items, status",
    [
        (["chi"], [("command", "chi"), ("value", 1)], 0),
        (["normal-form", "y^-1 x y"], [("command", "normal-form"), ("word", "y^-1 x y"), ("value", "x^-1")], 0),
        (["fox", "y^-1 x y x", "x"], [("command", "fox"), ("word", "y^-1 x y x"), ("generator", "x"),
                                      ("value", "1*(y^-1) + 1*(y^-1 x y)")], 0),
        (["member", "(1)"], [("command", "member"), ("element", "(1)"), ("r", "x^3 - x - 1"),
                             ("s", "-x^-1"), ("value", False)], 1),
        (["divides", "x+1", "x^2-1"], [("command", "divides"), ("a", "x + 1"), ("b", "x^2 - 1"),
                                       ("value", True)], 0),
    ],
    ids=["chi", "normal-form", "fox", "member", "divides"],
)
def test_one_value_json(capsys, argv, items, status):
    # The command's name first, then its inputs, then the value.
    assert run(argv + ["--format", "json"]) == status
    assert list(json.loads(capsys.readouterr().out).items()) == items


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
    # digits split by whitespace are not joined into one number
    assert run(["divides", "x^1 0 - 1", "x^10 - 1"]) == 2
    assert run(["divides", "1 0", "x"]) == 2
    assert run(["member", "y*(x^1 0)"]) == 2
    # fox differentiates by one letter with exponent 1
    for generator in ("", "x^2", "x y", "1", "x^-1"):
        assert run(["fox", "x y", generator]) == 2, generator
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 10, captured.err
    assert all(line.startswith("error: ") for line in lines), captured.err


def test_presentation_file_not_an_object_exit_2(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(["x", "y"]), encoding="utf-8")
    assert run(["chi", "--presentation", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: presentation JSON needs an object with 'generators' and 'relators'\n"


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


def test_certificate_without_source_exit_2(tmp_path, capsys):
    data = certificate_to_dict(builtin.forward_certificates()[0])
    data.pop("source", None)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(["certificate", "--certificate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: certificate names no source; pass --presentation\n"
    # --presentation names the source the file lacks
    assert run(["certificate", "--certificate", str(path), "--presentation", "P", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"command": "certificate", "target": data["target"], "value": True}


def test_stafford_default(capsys):
    assert run(["stafford"]) == 0
    out = capsys.readouterr().out
    assert "condition_i   ok" in out
    assert "condition_ii  ok" in out
    assert "no unit-combination witness" not in out


def test_stafford_custom_instance(capsys):
    # r = 1: condition (ii) fails, and no witness is known for condition (i)
    assert run(["stafford", "--r", "1"]) == 1
    out = capsys.readouterr().out
    assert "condition_i   FAIL  (no unit-combination witness for this instance)\n" in out
    assert "condition_ii  FAIL" in out
    # r divides s*sigma(r), so the monic witness is y + s*sigma(r)/r, of y-degree 1
    assert "monic         y*(1) + (-x^-1)\n" in out


def test_stafford_json(capsys):
    assert run(["stafford", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["condition_i"] is True
    assert data["monic"] == "y^2*(1) + (-1)"


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


COMMAND_NAMES = ("verify-paper", "chi", "normal-form", "fox", "member", "divides",
                 "certificate", "stafford")


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["-h"]] + [[name, flag] for name in COMMAND_NAMES for flag in ("--help", "-h")]
    + [["divides", "x", "--help", "1"], ["member", "(1)", "--s", "1", "-h"]],
)
def test_help_exits_0_and_lists_every_command(capsys, argv):
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("usage: kleinverify ")
    # A command's line is indented by two spaces, its summary by six.
    lines = captured.out.splitlines()
    listed = [line.split()[0] for line in lines if line.startswith("  ") and line[2] != " "]
    assert listed == list(COMMAND_NAMES)


# Each is a usage error: a "usage:" line and one "kleinverify: error:" line
# on stderr, nothing on stdout, exit 2.
@pytest.mark.parametrize(
    "argv, reason",
    [
        ([], "a command is required"),
        (["no-such-command"], "unknown command 'no-such-command'"),
        (["--format", "json"], "unknown command '--format'"),
        (["divides", "x", "x", "--no-such-option", "1"], "unknown option --no-such-option"),
        (["chi", "--r", "1"], "unknown option --r"),
        (["member", "(1)", "--s"], "option --s needs a value"),
        (["member", "(1)", "--s", "--r", "1"], "option --s needs a value"),
        (["divides", "x"], "missing argument B"),
        (["divides", "x", "x", "y"], "unexpected argument 'y'"),
        (["verify-paper", "-x"], "unexpected argument '-x'"),
        (["verify-paper", "--format", "xml"], "--format must be json or text, not 'xml'"),
        (["verify-paper", "--format="], "--format must be json or text, not ''"),
        (["certificate"], "option --certificate is required"),
        (["certificate", "--presentation", "P"], "option --certificate is required"),
        # Options are spelled in full: no abbreviation is accepted.
        (["divides", "x", "x", "--form", "json"], "unknown option --form"),
        (["certificate", "--cert", "c.json"], "unknown option --cert"),
        # The command's name is not an option, though a JSON answer names it.
        (["chi", "--command", "x"], "unknown option --command"),
        (["divides", "x", "x", "--command=divides"], "unknown option --command"),
    ],
)
def test_usage_errors_exit_2(capsys, argv, reason):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: kleinverify ")
    assert error.startswith("kleinverify: error: ") and reason in error, error


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (["member", "(1)", "--s", "-x^-1", "--r", "x^3 - x - 1"],
         ["member", "(1)", "--s=-x^-1", "--r=x^3 - x - 1"]),
        (["stafford", "--s", "-x^-1", "--format", "json"], ["stafford", "--s=-x^-1", "--format=json"]),
        (["chi", "--presentation", "P"], ["chi", "--presentation=P"]),
        # An "=" after the first belongs to the value: the error names the file.
        (["chi", "--presentation", "no=such.json"], ["chi", "--presentation=no=such.json"]),
    ],
)
def test_option_value_after_equals_sign(capsys, spaced, joined):
    status = run(spaced)
    expected = capsys.readouterr()
    assert run(joined) == status
    assert capsys.readouterr() == expected
    assert expected.out or "'no=such.json'" in expected.err


def test_repeated_option_takes_the_last_value(capsys):
    assert run(["chi", "--presentation", "Q", "--presentation", "P"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_generator_names_no_word_can_use_exit_2(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"generators": ["x", "y y", "", "3"], "relators": ["x"]}), encoding="utf-8")
    assert run(["chi", "--presentation", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: generator name 'y y' is not a letter followed by letters, digits or _\n"
    )


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
    "kleinverify --help": (0, "commands:"),
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


def _readme_input_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Input formats", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^ *\| `(.+?)` \| (Laurent|twisted) \| (.+?) \|$", section, re.M)


def test_readme_input_formats(capsys):
    # Each example of the table runs through the command that reads that
    # kind of input, which echoes what it parsed in its JSON output.
    examples = _readme_input_examples()
    assert len(examples) >= 12 and {kind for _, kind, _ in examples} == {"Laurent", "twisted"}
    for text, kind, printed in examples:
        if kind == "Laurent":
            argv, key = ["divides", text, "1", "--format", "json"], "a"
        else:
            argv, key = ["member", text, "--format", "json"], "element"
        status = run(argv)
        captured = capsys.readouterr()
        if printed.startswith("error"):
            assert status == 2 and captured.out == "", text
            at = re.fullmatch(r"error at position (\d+)", printed)
            expected = f"at position {at.group(1)} in {text!r}" if at else "unexpected end of input"
            assert expected in captured.err, (text, captured.err)
        else:
            assert status in (0, 1) and captured.err == "", text
            assert json.loads(captured.out)[key] == printed.strip("`"), text


def test_parse_bugfix_exit_codes(capsys):
    # Inputs the parsers once accepted or let escape as a bare ValueError.
    for argv in (
        ["divides", "2*", "x"],
        ["divides", "2*+x", "x"],
        ["member", "y^2 - - 1"],
        ["member", "y\n*(x)"],
        ["divides", "x^" + "1" * 5000, "x"],
        ["member", "y^" + "1" * 5000],
    ):
        assert run(argv) == 2, argv[:2]
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 6 and all(line.startswith("error: ") for line in lines)
    assert "number longer than 4300 digits at position 2" in lines[4]


def test_non_ascii_digits_exit_2(capsys):
    for argv in (["divides", "٣x + ３", "x"], ["divides", "x", "x^٣"], ["member", "y^٣"], ["member", "y*(３)"]):
        assert run(argv) == 2, argv
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 4 and all(line.startswith("error: unexpected character ") for line in lines)


def test_word_exponent_bugfix_exit_2(capsys):
    # A word exponent takes ASCII digits only, at most 4300 of them.
    for argv in (
        ["normal-form", "x^٣"],
        ["normal-form", "y x^" + "1" * 4301],
        ["fox", "x^-" + "7" * 5000, "x"],
    ):
        assert run(argv) == 2, argv[:1]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: malformed token 'x^٣' at position 0",
        "error: exponent longer than 4300 digits in token 'x^111111111111111111'... at position 1",
        "error: exponent longer than 4300 digits in token 'x^-77777777777777777'... at position 0",
    ]


def test_huge_malformed_word_bounded_error(capsys):
    assert run(["normal-form", "x" * 100000 + "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed token a text of 100001 characters, near ")
    assert len(captured.err) < 200 and captured.err.count("\n") == 1


def test_huge_malformed_argument_bounded_error(capsys):
    # 1 MB of valid terms, then one bad character: the message quotes a
    # window around it and the length, not the whole argument.
    text = "y*(x) + " * 131072 + "q"
    assert run(["member", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: unexpected character 'q' at position 1048576 in a text of 1048577 characters, near "
    )
    assert len(captured.err) < 200 and captured.err.count("\n") == 1


def _factor(rel=0, sign=1) -> dict:
    """The certificate of P's relator over P, with rel and sign replaced."""
    factor = {"w": "1", "rel": rel, "sign": sign}
    return {"target": "y^-1 x y x", "factors": [factor], "source": "P"}


FACTOR_SHAPE = "each certificate factor must be an object with 'w', 'rel' and 'sign'"


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
        ("certificate", _factor(rel=-1), "relator index -1 out of range"),
        ("certificate", {"target": "1", "factors": [{"rel": 0, "sign": 1}]}, FACTOR_SHAPE),
        ("certificate", {"target": "1", "factors": [{"w": "1", "rel": 0}]}, FACTOR_SHAPE),
        ("certificate", 5, "needs an object"),
        ("certificate", {"target": "1", "factors": 5}, "'factors' must be a list, not 5"),
        ("chi", {"generators": ["x", "y"], "relators": 7}, "must be lists of strings"),
        ("chi", {"generators": 5, "relators": []}, "must be lists of strings"),
    ],
    ids=[
        "factor-not-object", "target-not-string", "source-not-string", "relator-not-string",
        "rel-float", "sign-float", "rel-string", "rel-bool", "rel-list", "rel-negative",
        "w-missing", "sign-missing",
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


# An input too large to compute on exits 2 with one error line, not 1,
# which would read as a failed check.  The MemoryError is raised by a
# patched builder of condition (ii)'s quotient and the witnesses,
# division._witness_pairs as stafford_verdict reads it, so no real memory
# is exhausted.
@pytest.mark.parametrize("text, message", [("", "error: out of memory"), ("no room", "error: no room")])
def test_memory_error_exits_2(monkeypatch, capsys, text, message):
    from kleinverify import verify

    def exhausted(inst):
        raise MemoryError(text) if text else MemoryError

    monkeypatch.setattr(verify, "_witness_pairs", exhausted)
    assert run(["stafford", "--s", "x^2000000 + 1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]
