import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import torifactor
from torifactor import IntMatrix
from torifactor.cli import COMMANDS, decode_matrix, run

# the CLI subprocesses import the same torifactor as the tests, installed or not
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(torifactor.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}

EX1 = {"matrix": {"rows": 3, "cols": 4, "data": [[1, 0, 1, -2], [0, 1, -3, 2], [0, 0, 5, -5]]}}
EX2 = {
    "matrix": {
        "data": [
            [18, -21, -9, 333, -492, 120],
            [-3, 8, 4, -14, 13, -4],
            [-23, 33, 14, -404, 588, -144],
            [-20, 26, 12, -337, 493, -121],
        ]
    }
}


def invoke(args, payload, tmp_path, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "torifactor", *args, "--input", str(path)],
        capture_output=True,
        text=True,
        env=ENV,
    )
    return proc


def test_hnf_command(tmp_path):
    proc = invoke(["hnf"], {"matrix": {"data": [[2, 4], [1, 1]]}}, tmp_path)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["H"]["data"] == [[1, 1], [0, 2]]


def test_snf_command(tmp_path):
    proc = invoke(["snf"], {"matrix": {"data": [[2, 0], [0, 3]]}}, tmp_path)
    out = json.loads(proc.stdout)
    assert out["D"]["data"] == [[1, 0], [0, 6]]


def test_pipeline_command(tmp_path):
    proc = invoke(["pipeline"], EX1, tmp_path)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["torsion_invariants"] == [5]
    assert out["Delta"]["data"] == [[1, 0, 0], [0, 1, 0], [0, 0, 5]]
    assert len(out["fans"]) == 1
    gamma = out["Gamma"]
    assert gamma["moduli"] == [5]


def test_fan_count_command(tmp_path):
    proc = invoke(["fans", "--count"], EX2, tmp_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"count": 3}


def test_fan_selection(tmp_path):
    proc = invoke(["picard", "--fan", "0"], EX2, tmp_path)
    out = json.loads(proc.stdout)
    assert len(out["fans"]) == 1


def test_classify_command(tmp_path):
    proc = invoke(["classify"], {"matrix": EX1["matrix"], "kind": "F"}, tmp_path)
    out = json.loads(proc.stdout)
    assert out["is_F"] and not out["is_CF"]


def test_reconstruct_command(tmp_path):
    payload = {
        "weights": {"data": [[1, 1, 1, 1]]},
        "torsion": {"moduli": [5], "data": [[1, 2, 3, 4]]},
        "covering": {"data": [[1, 0, 1, -2], [0, 1, -3, 2], [0, 0, 1, -1]]},
        "reference": {"data": [[1, 0, 1, -2], [0, 1, -3, 2], [0, 0, 5, -5]]},
    }
    proc = invoke(["reconstruct"], payload, tmp_path)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["K"]["data"] == [[-4], [1], [-1], [5]]
    assert out["equivalence"]["equivalent"] is True


def test_equiv_command(tmp_path):
    payload = {
        "first": {"data": [[1, 0, -1], [0, 1, -1]]},
        "second": {"data": [[0, 1, -1], [1, 0, -1]]},
    }
    proc = invoke(["equiv"], payload, tmp_path)
    out = json.loads(proc.stdout)
    assert out["equivalent"] is True


def test_exit_code_for_malformed_input(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    proc = subprocess.run(
        [sys.executable, "-m", "torifactor", "hnf", "--input", str(path)],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert proc.returncode == 1


def test_exit_code_for_missing_field(tmp_path):
    proc = invoke(["hnf"], {"wrong": 1}, tmp_path)
    assert proc.returncode == 1


def test_exit_code_for_bad_shape_declaration(tmp_path):
    proc = invoke(["hnf"], {"matrix": {"rows": 5, "data": [[1]]}}, tmp_path)
    assert proc.returncode == 1


def test_exit_code_for_precondition(tmp_path):
    proc = invoke(["fans"], {"matrix": {"data": [[1, 0], [0, 1]]}}, tmp_path)
    assert proc.returncode == 2
    assert "precondition" in proc.stderr


def test_exit_code_names_failed_conditions(tmp_path):
    # a matrix violating completeness: the failure names the condition
    proc = invoke(["cover"], {"matrix": {"data": [[1, 0, 1], [0, 1, 1]]}}, tmp_path)
    assert proc.returncode == 2
    assert "b" in proc.stderr


def test_output_is_deterministic(tmp_path):
    a = invoke(["pipeline"], EX2, tmp_path)
    b = invoke(["pipeline"], EX2, tmp_path, name="again.json")
    assert a.stdout == b.stdout


def test_big_integers_encoded_as_strings():
    from torifactor.cli import encode_matrix
    from torifactor import IntMatrix

    enc = encode_matrix(IntMatrix([[2**60, 1]]))
    assert enc["data"][0][0] == str(2**60)
    assert enc["data"][0][1] == 1


def test_big_integer_round_trip():
    from torifactor.cli import decode_matrix, encode_matrix
    from torifactor import IntMatrix

    m = IntMatrix([[-(2**70), 3], [5, 2**53]])
    assert decode_matrix(encode_matrix(m)) == m


def test_batch_inputs_preserve_order(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    p1.write_text(json.dumps({"matrix": {"data": [[2, 4], [1, 1]]}}))
    p2.write_text(json.dumps({"matrix": {"data": [[3, 0], [0, 3]]}}))
    proc = subprocess.run(
        [sys.executable, "-m", "torifactor", "hnf", "--input", str(p1), "--input", str(p2)],
        capture_output=True,
        text=True,
        env=ENV,
    )
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["H"]["data"] == [[1, 1], [0, 2]]
    assert json.loads(lines[1])["H"]["data"] == [[3, 0], [0, 3]]


def test_plain_format(tmp_path):
    proc = invoke(["torsion", "--format", "plain"], EX1, tmp_path)
    assert proc.returncode == 0
    assert "torsion_invariants" in proc.stdout


def test_run_entry_point_with_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"matrix": {"data": [[1, 1]]}})))
    code = run(["gale"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dual"]["data"] == [[1, -1]]


def test_cover_command(tmp_path):
    proc = invoke(["cover"], EX1, tmp_path)
    out = json.loads(proc.stdout)
    assert out["torsion_invariants"] == [5]
    assert out["Delta"]["data"] == [[1, 0, 0], [0, 1, 0], [0, 0, 5]]


def test_torsion_command(tmp_path):
    proc = invoke(["torsion"], EX1, tmp_path)
    out = json.loads(proc.stdout)
    assert out["generators"]["data"] == [[0, 0, 1, -1]]


def test_gamma_command(tmp_path):
    proc = invoke(["gamma"], EX1, tmp_path)
    out = json.loads(proc.stdout)
    assert out["Gamma"]["moduli"] == [5]
    assert out["Gamma"]["data"] == [[4, 3, 1, 0]]


def test_cartier_command(tmp_path):
    proc = invoke(["cartier"], EX1, tmp_path)
    out = json.loads(proc.stdout)
    assert len(out["fans"]) == 1
    cx = out["fans"][0]["C_X"]["data"]
    assert cx[-3:] == EX1["matrix"]["data"]


INEQUIVALENT = {
    "first": {"data": [[1, 0, -1], [0, 1, -1]]},
    "second": {"data": [[1, 1, -1], [0, 2, -1]]},
}

# equivalent, with equal minor invariants; four candidate bases for R
CAPPED = {
    "first": {"data": [[1, 0, -1, -1], [0, 1, -1, -2]]},
    "second": {"data": [[0, 1, -1, -1], [1, 0, -1, -2]]},
}


@pytest.mark.parametrize("value", ["abc", "-3", "0", "\u0663"])
def test_bad_permutation_cap_is_an_input_error(monkeypatch, capsys, value):
    monkeypatch.setenv("TORIFACTOR_MAX_PERM", value)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(INEQUIVALENT)))
    assert run(["equiv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("torifactor: input error")
    assert "TORIFACTOR_MAX_PERM" in captured.err


def test_reached_permutation_cap_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("TORIFACTOR_MAX_PERM", "1")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(CAPPED)))
    assert run(["equiv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("torifactor:")


@pytest.mark.parametrize("value", ["abc", "-3", "0", "\u0663"])
@pytest.mark.parametrize("command", ["fans", "pipeline"])
def test_bad_partial_fan_cap_is_an_input_error(monkeypatch, capsys, command, value):
    monkeypatch.setenv("TORIFACTOR_MAX_PARTIAL_FANS", value)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EX2)))
    assert run([command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("torifactor: input error")
    assert "TORIFACTOR_MAX_PARTIAL_FANS" in captured.err


# the fan search pushes 41 partial fans on the second example
@pytest.mark.parametrize("command", ["fans", "picard", "cartier", "pipeline"])
def test_partial_fan_cap_exits_2_once_reached(monkeypatch, capsys, command):
    monkeypatch.setenv("TORIFACTOR_MAX_PARTIAL_FANS", "41")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EX2)))
    assert run([command, "--fan", "0"]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setenv("TORIFACTOR_MAX_PARTIAL_FANS", "40")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EX2)))
    assert run([command, "--fan", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("torifactor: search limit reached: fan search exceeded 40")


@pytest.mark.parametrize("command", ["cover", "torsion", "gamma"])
def test_covering_commands_classify_each_input_once(count_calls, capsys, tmp_path, command):
    from torifactor import gale

    tables = count_calls(gale, "_minor_table", everywhere=False)
    weights = count_calls(gale, "classify_W")
    paths, inputs = [], []
    for name, payload in (("ex1.json", EX1), ("ex2.json", EX2)):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        paths += ["--input", str(path)]
        inputs.append((IntMatrix(payload["matrix"]["data"]),))
    assert run([command, *paths]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    # one table of maximal minors per input
    assert tables == inputs
    assert weights == []


def test_parser_is_built_once_and_runs_do_not_see_each_others_arguments(capsys, tmp_path):
    from torifactor import cli

    paths = []
    for name, payload in (("ex1.json", EX1), ("ex2.json", EX2)):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(json.dumps(payload))
    first = ["pipeline", "--input", paths[0], "--fan", "0", "--no-verify", "--format", "plain"]
    second = ["pipeline", "--input", paths[1]]
    assert cli.build_parser() is cli.build_parser()
    outputs = []
    for argv in (first, second):
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
    # the same runs on freshly built parsers, in the other order
    cli.build_parser.cache_clear()
    assert run(second) == 0
    assert capsys.readouterr().out == outputs[1]
    cli.build_parser.cache_clear()
    assert run(first) == 0
    assert capsys.readouterr().out == outputs[0]
    assert len(json.loads(outputs[1])["fans"]) == 3


# every command on both worked examples, with the exit code, stdout and stderr
# of each run when recorded: JSON and plain, nulls, booleans, integers beyond
# 53 bits in and outside matrices, and payloads with several faults, of which
# the one checked first is reported
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_output_is_byte_identical_to_the_recorded_output(monkeypatch, capsys, case):
    monkeypatch.delenv("TORIFACTOR_MAX_PERM", raising=False)
    monkeypatch.delenv("TORIFACTOR_MAX_PARTIAL_FANS", raising=False)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(case["payload"])))
    assert run(case["args"]) == case["code"]
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (case["stdout"], case["stderr"])


def test_recorded_outputs_cover_every_command():
    assert {case["args"][0] for case in GOLDEN} == set(COMMANDS)


def test_closed_stdout_exits_1_with_a_message_and_no_traceback(tmp_path):
    # the read end of the pipe is closed before the process starts, so every
    # write to stdout fails with EPIPE
    path = tmp_path / "ex2.json"
    path.write_text(json.dumps(EX2))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "torifactor", "pipeline", "--input", str(path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=ENV,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "torifactor: output error: stdout was closed\n"


def test_reconstruct_rejects_torsion_the_pairing_does_not_reach(tmp_path):
    # the moduli claim Z/3, but the residues pair every covering row to 0
    payload = {
        "weights": {"data": [[1, 1, 1]]},
        "torsion": {"moduli": [3], "data": [[1, 1, 1]]},
    }
    proc = invoke(["reconstruct"], payload, tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("torifactor:")


def test_reconstruct_rejects_a_torsion_order_beyond_the_digit_limit(tmp_path):
    # Z/t + Z/10t has an order of 5004 digits, more than a message can print
    t = 10**2501 + 1
    payload = {
        "weights": {"data": [[1, 1, 1]]},
        "torsion": {"moduli": [str(t), str(10 * t)], "data": [[1, 1, 1], [1, 1, 1]]},
    }
    proc = invoke(["reconstruct"], payload, tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("torifactor:")
    assert "Traceback" not in proc.stderr


def test_reconstruct_with_covering_computes_few_gale_duals(count_calls, capsys, tmp_path):
    from torifactor import gale

    calls = count_calls(gale, "gale_dual")
    payload = {
        "weights": {"data": [[1, 1, 1, 1]]},
        "torsion": {"moduli": [5], "data": [[1, 2, 3, 4]]},
        "covering": {"data": [[1, 0, 1, -2], [0, 1, -3, 2], [0, 0, 1, -1]]},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(payload))
    assert run(["reconstruct", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["beta"]
    assert len(calls) <= 2


def run_in_process(command, payload):
    """Exit code and stderr of one CLI job read from a swapped-in stdin;
    an exception the CLI does not handle propagates."""
    stdin, stdout, stderr = sys.stdin, io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(json.dumps(payload))
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = run([command])
    finally:
        sys.stdin = stdin
    return code, stderr.getvalue()


BAD_TORSION = (
    {"moduli": 5},
    {"moduli": [3], "data": [1, 1, 1]},
    {"moduli": [0, 5], "data": [[1, 1, 1], [1, 1, 1]]},
    {"moduli": [3], "data": "111"},
    {"moduli": [], "cols": -1},
    {"moduli": [5], "rows": 7, "data": [[1, 2, 3]]},
)


@pytest.mark.parametrize("torsion", BAD_TORSION)
def test_malformed_torsion_is_an_input_error(torsion):
    payload = {"weights": {"data": [[1, 1, 1]]}, "torsion": torsion}
    code, err = run_in_process("reconstruct", payload)
    assert code == 1
    assert err.startswith("torifactor: input error: torsion:")


def test_deeply_nested_json_is_an_input_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    proc = subprocess.run(
        [sys.executable, "-m", "torifactor", "hnf", "--input", str(path)],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("torifactor: input error: invalid JSON")
    assert "Traceback" not in proc.stderr


def test_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "job.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run(["hnf", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("torifactor: input error: cannot read")


def test_number_literal_beyond_the_digit_limit_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "job.json"
    path.write_text('{"matrix": {"data": [[' + "1" * (sys.get_int_max_str_digits() + 1) + "]]}}")
    assert run(["hnf", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("torifactor: input error: invalid JSON")


def test_result_entry_beyond_the_digit_limit_exits_2():
    # valid input, but the lcm in the Smith form has about 6000 digits
    big = {"matrix": {"data": [["1" + "0" * 3000 + "1", 0], [0, "1" + "0" * 3000 + "3"]]}}
    code, err = run_in_process("snf", big)
    assert code == 2
    assert err.startswith("torifactor: result too large:")
    assert f"{sys.get_int_max_str_digits()} digits" in err


LENIENT_INTEGERS = ("1_0", " 2 ", "\u0663", "+1", "1.0", "0x1", "", "-", "--1", "1\n", "\uff11")


@pytest.mark.parametrize("entry", LENIENT_INTEGERS)
def test_integer_strings_other_than_ascii_digits_are_input_errors(entry):
    code, err = run_in_process("hnf", {"matrix": {"data": [[entry, 1]]}})
    assert code == 1
    assert err.startswith("torifactor: input error: not an integer")


def test_integer_strings_of_ascii_digits_decode():
    decoded = decode_matrix({"data": [["1", "-2", str(2**60)]], "cols": "3"})
    assert decoded == IntMatrix([[1, -2, 2**60]])


FIELDS = ("matrix", "kind", "weights", "torsion", "covering", "reference", "first", "second")
SMALL_INT = st.integers(-3, 3)
JSON_LEAF = st.none() | st.booleans() | SMALL_INT | st.sampled_from(["", "1", "-2", "x", "F", "W"])
JSON_VALUE = st.recursive(
    JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(("data", "rows", "cols", "moduli")), inner, max_size=3),
    max_leaves=8,
)
# rectangular, ragged or empty rows of small entries, with or without declared shapes
ROWS = st.integers(0, 4).flatmap(
    lambda width: st.lists(
        st.lists(SMALL_INT, min_size=width, max_size=width) | st.lists(SMALL_INT, max_size=4),
        max_size=3,
    )
)
MATRIX_LIKE = st.fixed_dictionaries(
    {"data": ROWS | JSON_VALUE},
    optional={"rows": SMALL_INT | JSON_LEAF, "cols": SMALL_INT | JSON_LEAF, "moduli": JSON_VALUE},
)
TORSION_LIKE = st.fixed_dictionaries(
    {"moduli": st.lists(st.integers(-1, 6), max_size=3) | JSON_VALUE},
    optional={"data": ROWS | JSON_VALUE, "cols": SMALL_INT | JSON_LEAF},
)
WELL_FORMED = (
    st.integers(1, 5)
    .flatmap(lambda width: st.lists(st.lists(SMALL_INT, min_size=width, max_size=width), min_size=1, max_size=3))
    .map(lambda rows: {"data": rows})
)
# fan matrices (P^1, P^2, a weighted P^2 with Z/5 torsion, P^1 x P^1) and weight matrices
VALID = st.sampled_from(
    [
        {"data": [[1, -1]]},
        {"data": [[1, 0, -1], [0, 1, -1]]},
        {"data": [[1, 2, -3], [0, 5, -5]]},
        {"data": [[1, 0, -1, 0], [0, 1, 0, -1]]},
        EX1["matrix"],
        {"data": [[1, 1, 1]]},
        {"data": [[1, 1, 1, 1]]},
        {"data": [[1, 0, 1, 0], [0, 1, 0, 1]]},
    ]
)


def weighted(*pairs):
    """One of the strategies, each drawn with the given relative weight."""
    return st.sampled_from([strategy for weight, strategy in pairs for _ in range(weight)]).flatmap(
        lambda strategy: strategy
    )


FIELD_VALUE = weighted((2, VALID), (2, WELL_FORMED), (1, MATRIX_LIKE), (1, TORSION_LIKE), (1, JSON_VALUE))
TORSION_VALUE = weighted(
    (1, st.sampled_from([{"moduli": [], "cols": 3}, {"moduli": [3], "data": [[0, 1, 2]]}, {"moduli": [5], "data": [[1, 2, 3, 4]]}])),
    (2, TORSION_LIKE),
)
WEIGHTS_VALUE = weighted((2, st.sampled_from([{"data": [[1, 1, 1]]}, {"data": [[1, 1, 1, 1]]}])), (1, FIELD_VALUE))
KIND_VALUE = weighted((2, st.sampled_from(["F", "W"])), (1, JSON_VALUE))
SPECIAL_VALUES = {"kind": KIND_VALUE, "torsion": TORSION_VALUE, "weights": WEIGHTS_VALUE}
READ_FIELDS = ("matrix", "kind", "weights", "torsion", "first", "second")
# every field some command reads, each of any type, nesting and shape
PAYLOAD = weighted(
    (
        4,
        st.fixed_dictionaries(
            {field: SPECIAL_VALUES.get(field, FIELD_VALUE) for field in READ_FIELDS},
            optional={"covering": FIELD_VALUE, "reference": FIELD_VALUE},
        ),
    ),
    (1, st.dictionaries(st.sampled_from(FIELDS), FIELD_VALUE, max_size=3)),
)


@pytest.mark.parametrize("command", COMMANDS)
@given(payload=PAYLOAD)
@example(payload={"weights": {"data": [[1, 1, 1]]}, "torsion": BAD_TORSION[0]})
@example(payload={"weights": {"data": [[1, 1, 1]]}, "torsion": BAD_TORSION[1]})
@example(payload={"matrix": {"data": [["1_0", " 2 ", "\u0663"]]}})
@example(payload={"matrix": {"data": [["1", "-2", str(2**60)]], "cols": "+3"}})
def test_any_json_payload_exits_cleanly(command, payload):
    code, err = run_in_process(command, payload)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
