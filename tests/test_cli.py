"""The command-line surface: exit codes, JSON schema, stream discipline."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lqlang.cli import main

from conftest import CORPUS, DATA


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_accepts(capsys):
    code, out, err = run_cli(capsys, "check", str(CORPUS / "swap.lq"))
    assert code == 0
    assert err == ""


def test_check_rejects_with_diagnostics_on_stderr(capsys):
    code, out, err = run_cli(capsys, "check",
                             str(CORPUS / "reject" / "dup_linear.lq"))
    assert code == 1
    assert "LinearityMismatch" in err
    assert "LinearityMismatch" not in out


def test_check_missing_file(capsys):
    code, out, err = run_cli(capsys, "check", "no-such-file.lq")
    assert code == 2


def test_bad_usage(capsys):
    assert main(["frobnicate"]) == 2


def test_run_prints_value(capsys):
    code, out, err = run_cli(capsys, "run", str(CORPUS / "array7.lq"),
                             "--sem=both")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert any(l.endswith("7") for l in lines)


def test_run_json_schema(capsys):
    code, out, err = run_cli(capsys, "run", str(CORPUS / "array7.lq"),
                             "--json", "--trace")
    assert code == 0
    blob = json.loads(out)
    assert blob["outcome"] == "value"
    assert blob["value"] == "7"
    assert blob["semantics"] == "ordinary"
    assert isinstance(blob["steps"], int)
    assert all(set(r) == {"rule", "redex"} for r in blob["trace"])


def test_run_both_json_is_pair(capsys):
    code, out, err = run_cli(capsys, "run", str(CORPUS / "sharing.lq"),
                             "--sem=both", "--json")
    assert code == 0
    blobs = json.loads(out)
    assert [b["semantics"] for b in blobs] == ["ordinary", "pure"]
    assert blobs[0]["value"] == blobs[1]["value"] == "6"


def test_run_both_disagrees_on_step_counts(capsys, monkeypatch):
    """The two semantics apply their rules in step: equal values reached in
    different numbers of steps are a disagreement, as in the fuzzer."""
    import lqlang.cli
    real = lqlang.cli.eval_pure

    def one_more_step(*args, **kwargs):
        res = real(*args, **kwargs)
        res.steps += 1
        res.outcome.steps += 1
        return res

    monkeypatch.setattr(lqlang.cli, "eval_pure", one_more_step)
    code, out, err = run_cli(capsys, "run", str(CORPUS / "arith.lq"),
                             "--sem=both", "--json")
    blobs = json.loads(out)
    assert blobs[0]["value"] == blobs[1]["value"]
    assert blobs[1]["steps"] == blobs[0]["steps"] + 1
    assert code == 1
    assert err == "semantics disagree\n"


@pytest.mark.parametrize("program, rule, steps, detail", [
    ("main = case[1] newMArray(sub(0, 1), 0, \\[1] ma : MArray Int . "
     "freeze(ma)) of\n  { Unrestricted a -> 0 }",
     "newMArray", 13, "negative array size -1"),
    ("main = case[1] newMArray(2, 0, \\[1] ma : MArray Int . freeze(ma)) "
     "of\n  { Unrestricted a -> index(a, 5) }",
     "index", 20, "index 5 out of bounds for array of size 2"),
    ("main = case[1] newMArray(2, 0, \\[1] ma : MArray Int . "
     "freeze(write(ma, 5, 1))) of\n  { Unrestricted a -> 0 }",
     "write", 21, "index 5 out of bounds for array of size 2"),
])
def test_well_typed_programs_block_on_array_bounds(tmp_path, capsys, program,
                                                   rule, steps, detail):
    """Types do not bound sizes or indices: a negative size and an
    out-of-range index pass the checker and then block, at the same rule
    and step under both semantics.  An out-of-range index names the array
    as its location: the cell under the ordinary semantics, the binding
    under the pure one."""
    f = tmp_path / "bounds.lq"
    f.write_text(program + "\n")
    assert run_cli(capsys, "check", str(f))[0] == 0
    code, out, err = run_cli(capsys, "run", str(f), "--sem=both", "--json")
    assert code == 1
    assert err == ""
    for blob in json.loads(out):
        assert (blob["outcome"], blob["reason"], blob["rule"], blob["steps"],
                blob["detail"]) == ("blocked", "PrimitiveMisuse", rule,
                                    steps, detail)
        assert bool(blob["location"]) == (rule != "newMArray")


def test_instantiated_let_keeps_its_scope(capsys):
    """``let[p] x = add(x, 1)`` under ``@[w]`` reads the outer ``x``."""
    code, out, err = run_cli(capsys, "run", str(DATA / "poly_let_scope.lq"),
                             "--sem=both")
    assert code == 0
    assert out.splitlines() == ["[ordinary] 6", "[pure] 6"]


def test_run_fuel_flag(capsys):
    code, out, err = run_cli(capsys, "run", str(CORPUS / "special" / "loop.lq"),
                             "--fuel=500", "--json")
    assert code == 1
    assert json.loads(out)["outcome"] == "fuel"


def test_run_blackhole(capsys):
    code, out, err = run_cli(capsys, "run",
                             str(CORPUS / "special" / "blackhole.lq"),
                             "--sem=both", "--json")
    blobs = json.loads(out)
    assert {b["outcome"] for b in blobs} == {"blackhole"}


def test_no_typecheck_requires_ordinary(capsys):
    code, out, err = run_cli(capsys, "run",
                             str(CORPUS / "reject" / "write_after_freeze.lq"),
                             "--no-typecheck", "--sem=pure")
    assert code == 2


def test_no_typecheck_typestate_block(capsys):
    code, out, err = run_cli(capsys, "run",
                             str(CORPUS / "reject" / "write_after_freeze.lq"),
                             "--no-typecheck", "--json")
    blob = json.loads(out)
    assert blob["outcome"] == "blocked"


def test_run_json_keeps_what_the_text_line_says(capsys):
    """A non-value outcome in ``--json`` carries the reason, rule, location
    and detail that the text line prints."""
    path = str(CORPUS / "reject" / "write_after_freeze.lq")
    code, out, err = run_cli(capsys, "run", path, "--no-typecheck", "--json")
    assert code == 1
    blob = json.loads(out)
    assert blob == {"outcome": "blocked", "steps": blob["steps"],
                    "semantics": "ordinary", "reason": "TypestateViolation",
                    "rule": "write", "location": "%a3",
                    "detail": "'write' applied to a frozen array"}
    code, text, err = run_cli(capsys, "run", path, "--no-typecheck")
    assert text.strip() == (f"blocked ({blob['reason']}) in rule "
                            f"'{blob['rule']}' at {blob['location']}: "
                            f"{blob['detail']}")


@pytest.mark.parametrize("call", ["newMArray(2, 0)", "write(1, 2)",
                                  "freeze()", "index(1)", "add(1)"])
def test_no_typecheck_primitive_with_too_few_arguments_blocks(
        tmp_path, capsys, call):
    f = tmp_path / "prim.lq"
    f.write_text(f"main = {call}\n")
    code, out, err = run_cli(capsys, "run", str(f), "--no-typecheck",
                             "--json")
    assert code == 1
    assert "Traceback" not in err
    blob = json.loads(out)
    assert (blob["outcome"], blob["reason"]) == ("blocked", "PrimitiveMisuse")
    assert "arguments, got" in blob["detail"]


@pytest.mark.parametrize("program, message", [
    ("main = Cons 1 Nil", "constructor 'Cons' expects 1 type arguments"),
    ("main = MkPair 1 2", "constructor 'MkPair' expects 2 multiplicity "
                          "arguments"),
    ("main = Unrestricted 1", "constructor 'Unrestricted' expects 1 type "
                              "arguments"),
])
def test_no_typecheck_constructor_arity_is_a_rejection(tmp_path, capsys,
                                                       program, message):
    f = tmp_path / "con.lq"
    f.write_text(program + "\n")
    code, out, err = run_cli(capsys, "run", str(f), "--no-typecheck")
    assert code == 1
    assert out == ""
    assert err == f"{f}:1:8: ArityMismatch: {message}, got 0\n"


@pytest.mark.parametrize("command", ["check", "run"])
def test_syntax_errors_name_the_file(tmp_path, capsys, command):
    f = tmp_path / "bad.lq"
    f.write_text("main =\t$\n")
    code, out, err = run_cli(capsys, command, str(f))
    assert code == 1
    assert err == f"{f}:1:8: Syntax: unexpected character '$'\n"


def test_duplicate_definition_is_located_at_the_second_body(tmp_path,
                                                           capsys):
    f = tmp_path / "dup.lq"
    f.write_text("def f : Int =[w] 1\ndef f : Int =[w] 2\nmain = f\n")
    code, out, err = run_cli(capsys, "check", str(f))
    assert code == 1
    assert err == f"{f}:2:18: MalformedDecl: definition 'f' appears twice\n"


def test_no_prelude(tmp_path, capsys):
    f = tmp_path / "standalone.lq"
    f.write_text("data B where { T : B ; F : B }\nmain = T\n")
    code, out, err = run_cli(capsys, "run", str(f), "--no-prelude")
    assert code == 0 and out.strip() == "T"


def test_prelude_override_env_var(tmp_path, capsys, monkeypatch):
    alt = tmp_path / "alt_prelude.lq"
    alt.write_text("data Tri where { Yes : Tri ; No : Tri ; Dunno : Tri }\n")
    prog = tmp_path / "prog.lq"
    prog.write_text("main = Dunno\n")
    monkeypatch.setenv("LLQ_PRELUDE", str(alt))
    code, out, err = run_cli(capsys, "run", str(prog))
    assert code == 0 and out.strip() == "Dunno"


def test_fuzz_subcommand(tmp_path, capsys):
    code, out, err = run_cli(capsys, "fuzz", "--count=3", "--seed=2",
                             "--json", f"--repro-dir={tmp_path}")
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == 3
    assert blob["disagreements"] == 0
    for key in ("elapsed_s", "programs_per_s", "state_checks_per_s"):
        assert blob[key] > 0, key


def test_trace_rule_names_match_figures(capsys):
    code, out, err = run_cli(capsys, "run", str(CORPUS / "array7.lq"),
                             "--json", "--trace")
    rules = {r["rule"] for r in json.loads(out)["trace"]}
    assert {"newMArray", "write", "freeze", "index",
            "mutable cell", "variable"} <= rules
    code, out, err = run_cli(capsys, "run", str(CORPUS / "array7.lq"),
                             "--sem=pure", "--json", "--trace")
    rules = {r["rule"] for r in json.loads(out)["trace"]}
    assert {"newMArray", "write", "freeze", "index",
            "linear variable", "shared variable"} <= rules


def run_module(*args, **env_vars):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "lqlang", *args],
                          env=env, capture_output=True, text=True,
                          timeout=60)


def test_python_dash_m_runs_the_cli():
    proc = run_module("check", str(CORPUS / "arith.lq"))
    assert proc.returncode == 0, proc.stderr
    assert "main" in proc.stdout


def test_recursion_limit_is_an_internal_error_not_a_traceback(tmp_path):
    """Evaluation deeper than Python's recursion limit exits with code 3
    and one error line."""
    text = (CORPUS / "recursion_int.lq").read_text("utf-8")
    deep = tmp_path / "tri5000.lq"
    deep.write_text(text.replace("main = tri 5", "main = tri 5000"),
                    "utf-8")
    proc = run_module("run", str(deep), "--fuel=10000000")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "RecursionError" in lines[0]


def test_unjoinable_usage_names_the_same_variable_under_every_hash_seed(
        tmp_path):
    """Two branches that use ``x`` and ``y`` at incompatible multiplicities
    give one diagnostic, whatever order string hashing puts them in."""
    f = tmp_path / "unjoinable.lq"
    f.write_text(
        "def k : forall p. (Int ->[p] Int) ->[w] Int ->[w] Int ->[p] Int "
        "->[p] Int =[w] /\\p. \\[w] g : Int ->[p] Int . \\[w] b : Int . "
        "\\[p] x : Int . \\[p] y : Int . case[1] lt(b, 0) of "
        "{ True -> add(g x, g y) ; False -> 0 }\nmain = 0\n")
    errs = set()
    for seed in range(8):
        proc = run_module("check", str(f), PYTHONHASHSEED=str(seed))
        assert proc.returncode == 1, proc.stderr
        errs.add(proc.stderr)
    [err] = errs
    assert "UnjoinableUsage: variable 'x'" in err


def test_run_prints_a_value_of_any_length(tmp_path, capsys):
    """A well-typed program whose value has 16,385 digits: 10 squared 14
    times.  Python limits int-to-text conversion to 4,300 digits, and
    ``lq`` lifts that limit."""
    lines = ["main = let[w] x0 : Int = 10 in"]
    lines += [f"  let[w] x{i} : Int = mul(x{i - 1}, x{i - 1}) in"
              for i in range(1, 15)]
    path = tmp_path / "big.lq"
    path.write_text("\n".join(lines + ["  x14"]) + "\n", encoding="utf-8")
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out, err = run_cli(capsys, "run", "--sem=both", str(path))
    value = "1" + "0" * 16_384
    assert (code, out, err) == (
        0, f"[ordinary] {value}\n[pure] {value}\n", "")
    assert limit() == before  # put back for the rest of the process


def test_an_integer_literal_of_any_length(tmp_path, capsys):
    path = tmp_path / "lit.lq"
    path.write_text("main = " + "1" * 5_000 + "\n", encoding="utf-8")
    assert run_cli(capsys, "check", str(path)) == (0, "main : Int\n", "")
    code, out, _ = run_cli(capsys, "run", str(path))
    assert (code, out) == (0, "1" * 5_000 + "\n")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on int-to-text conversion")
def test_a_too_long_literal_is_a_located_syntax_error():
    """Under Python's default limit of 4,300 digits, the library reports
    a longer literal as a syntax error where it starts."""
    from lqlang.diagnostics import CheckError
    from lqlang.parser import parse_program
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(CheckError) as caught:
            parse_program("main =\n  " + "1" * 5_000 + "\n")
    finally:
        sys.set_int_max_str_digits(digits)
    assert str(caught.value) == ("2:3: Syntax: integer literal of 5000 "
                                 "digits is too long")
