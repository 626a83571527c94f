import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from catborel import cli, dyck, ideals, matrices, rootsys, sequences, supports, verify

SRC = str(Path(__file__).resolve().parent.parent / "src")
QND_200_SHA256 = "4885874f5835aa027f7ca82732dced19f9a8395ca70d4f28900cba9cad2fd8f4"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "catborel.cli", *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_catalan_matrix_table():
    code, out, _ = run_cli("catalan-matrix", "5")
    assert code == 0
    rows = [line.split() for line in out.strip().split("\n")]
    assert rows[0] == ["5", "5", "3", "1", "0"]
    assert rows[4] == ["0", "0", "0", "0", "1"]


def test_bn_bfile_format():
    code, out, _ = run_cli("bn", "--upto", "10", "--format", "bfile")
    assert code == 0
    lines = out.split("\n")
    assert lines[-1] == ""  # newline terminated
    body = lines[:-1]
    assert body[0] == "1 1"
    assert body[2] == "3 18"
    assert body[9] == "10 584248"
    assert all(line == line.rstrip() for line in body)


def test_bn_past_the_int_to_text_digit_limit():
    # a fresh interpreter refuses to print an int of more than 4300 digits
    # unless the command lifts the limit; b_n passes it near n = 7140
    code, out, err = run_cli("bn", "--upto", "7200")
    assert code == 0, err
    n, value = out.splitlines()[-1].split()
    assert n == "7200" and len(value) > 4300


def test_cells_listing_and_counts():
    code, out, _ = run_cli("cells", "--n", "4", "--i", "1", "--j", "1")
    assert code == 0
    assert out.split() == ["rfrfrfrf", "rfrrffrf"]
    code, out, _ = run_cli("cells", "--n", "3", "--format", "csv")
    assert code == 0
    assert out == "1,1,0\n1,1,0\n0,0,1\n"


@pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (0, 0), (-1, 2), (4, 1), (1, 5)])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_cells_index_outside_one_to_n_exits_one(i, j, fmt):
    # the peak heights of a path of semilength n lie in 1..n
    code, out, err = run_cli("cells", "--n", "3", "--i", str(i), "--j", str(j), "--format", fmt)
    assert code == 1
    assert out == ""
    assert "cell indices must lie in 1..3" in err


def test_cells_empty_cell_in_range_exits_zero():
    # row n holds only the pyramid, at (n, n): the cell (4, 1) is empty
    code, out, err = run_cli("cells", "--n", "4", "--i", "4", "--j", "1")
    assert (code, out, err) == (0, "", "")
    code, out, _ = run_cli("cells", "--n", "4", "--i", "4", "--j", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 4, "i": 4, "j": 1, "paths": []}


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_cells_table_matches_generated_cells(fmt):
    n = 8
    counts = [[len(dyck.cell_paths(n, i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
    code, out, _ = run_cli("cells", "--n", str(n), "--format", fmt)
    assert code == 0
    if fmt == "json":
        assert json.loads(out) == {"n": n, "counts": counts}
    else:
        sep = "," if fmt == "csv" else None
        assert [[int(v) for v in line.split(sep)] for line in out.splitlines()] == counts


def test_catalan_matrix_matches_tau_recursion(capsys):
    """The command prints the closed-form cell counts; its oracle is the
    tau recursion of matrices.catalan_matrix, rendered here."""
    for n in range(1, 31):
        c = matrices.catalan_matrix(n)
        width = max(len(str(v)) for row in c for v in row)
        expected = {
            "table": "".join(" ".join(str(v).rjust(width) for v in row) + "\n" for row in c),
            "csv": "".join(",".join(map(str, row)) + "\n" for row in c),
            "json": json.dumps({"n": n, "entries": c}, sort_keys=True, indent=2) + "\n",
        }
        for fmt, text in expected.items():
            assert cli.main(["catalan-matrix", str(n), "--format", fmt]) == 0
            assert capsys.readouterr().out == text, (n, fmt)


def test_enumerate_basic_json_round_trip():
    code, out, _ = run_cli("enumerate-basic", "--n", "3", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 18
    keys = {"n", "p", "q", "s_plus", "s_minus", "generators", "quasi_abelian", "nd_plus", "qnd"}
    assert all(set(r) == keys for r in records)
    assert json.loads(json.dumps(records)) == records


def test_quasi_abelian_sequence():
    code, out, _ = run_cli("quasi-abelian", "--upto", "6")
    assert code == 0
    assert out == "1 1\n2 3\n3 11\n4 44\n5 183\n6 774\n"


def test_qnd_histogram_sums_to_count():
    code, out, _ = run_cli("qnd-histogram", "--n", "4")
    assert code == 0
    pairs = [line.split() for line in out.strip().split("\n")]
    assert sum(int(v) for _, v in pairs) == 82
    assert pairs[0] == ["1", "44"]


def test_qnd_histogram_at_200_sums_to_b_200():
    # CI pins the sha256 of these bytes
    code, out, _ = run_cli("qnd-histogram", "--n", "200")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == QND_200_SHA256
    pairs = [tuple(map(int, line.split())) for line in out.splitlines()]
    assert [k for k, _ in pairs] == list(range(1, 201))
    assert sum(v for _, v in pairs) == dict(sequences.b_sequence(200))[200]


def test_support_classes_csv():
    code, out, _ = run_cli("support-classes", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,level,case,count"
    counts = {line.split(",")[2]: int(line.split(",")[3]) for line in out.splitlines()[1:]}
    assert counts == {"I": 1, "III": 1, "IV": 2}


def test_support_classes_bfile_totals():
    code, out, _ = run_cli("support-classes", "--n", "4", "--format", "bfile")
    assert code == 0
    assert out == "1 1\n2 4\n3 21\n4 100\n"


def test_support_classes_json_n1_case_null():
    code, out, _ = run_cli("support-classes", "--n", "1", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert records == [
        {
            "case": None,
            "level": 1,
            "n": 1,
            "p": "rf",
            "p_prime": "rf",
            "q": "rf",
            "q_prime": "rf",
        }
    ]


@pytest.mark.parametrize("fmt", ["table", "json", "csv", "bfile"])
def test_support_classes_level_refused_where_not_printed(fmt):
    # the level only translates a support, so there is no --level option:
    # json and csv print level 1, and the flag is an unrecognized argument
    code, out, err = run_cli("support-classes", "--n", "3", "--level", "2", "--format", fmt)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --level 2" in err


def test_enumerate_basic_table_lines():
    # the four semilength-2 ideals: full plus-layer alone, the full
    # ideal, the minimum ideal, and the full minus-layer alone
    code, out, _ = run_cli("enumerate-basic", "--n", "2")
    assert code == 0
    assert out.splitlines() == [
        "rfrf rfrf gens=1 qa=1 nd=1 qnd=1",
        "rfrf rrff gens=2 qa=0 nd=1 qnd=2",
        "rrff rfrf gens=1 qa=1 nd=0 qnd=1",
        "rrff rrff gens=1 qa=1 nd=0 qnd=1",
    ]


def _old_table_line(r):
    return (
        f"{r['p']} {r['q']} gens={r['generators']} qa={int(r['quasi_abelian'])} "
        f"nd={r['nd_plus']} qnd={r['qnd']}"
    )


def _assert_same_lines(got, want):
    # line by line, so that a failure diffs one line and not megabytes
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for k, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"line {k + 1}"
    assert len(got) == len(want)


@pytest.mark.parametrize("n", range(1, 8))
def test_enumerate_basic_renders_like_stdlib(n, capsys):
    """The hand-written record template gives the stdlib encoder's text,
    and the table keeps its line format."""
    records = [ideals.ideal_record(b) for b in ideals.enumerate_basic(n)]
    assert cli.main(["enumerate-basic", "--n", str(n), "--format", "json"]) == 0
    _assert_same_lines(capsys.readouterr().out, cli._json_dump(records))
    assert cli.main(["enumerate-basic", "--n", str(n)]) == 0
    _assert_same_lines(capsys.readouterr().out, "".join(_old_table_line(r) + "\n" for r in records))


def _class_record(t, case):
    """The record a support class prints as: its four words, n, level 1
    and its shape, null outside the four shapes."""
    p, q, pp, qp = (path.word for path in t)
    return {
        "n": len(p) // 2, "level": 1, "p": p, "q": q, "p_prime": pp, "q_prime": qp,
        "case": case if case in supports.CASES else None,
    }


@pytest.mark.parametrize("n", range(1, 8))
def test_support_classes_renders_like_stdlib(n, capsys):
    """The hand-written class template gives the stdlib encoder's text of
    each class's record: its keys, level 1, n, the four words, and null
    for the semilength-1 class."""
    classes = supports.enumerate_classes(n)
    records = [_class_record(t, case) for t, case in classes]
    assert cli.main(["support-classes", "--n", str(n), "--format", "json"]) == 0
    _assert_same_lines(capsys.readouterr().out, json.dumps(records, sort_keys=True, indent=2) + "\n")


def test_enumerate_basic_empty_s_plus_record():
    # p = rrff holds no degree-zero root, so s_plus prints as []
    (b,) = [b for b in ideals.enumerate_basic(2) if (b.p.word, b.q.word) == ("rrff", "rrff")]
    assert cli._record_json(ideals.ideal_record(b)) == (
        "  {\n"
        '    "generators": 1,\n'
        '    "n": 2,\n'
        '    "nd_plus": 0,\n'
        '    "p": "rrff",\n'
        '    "q": "rrff",\n'
        '    "qnd": 1,\n'
        '    "quasi_abelian": true,\n'
        '    "s_minus": [\n'
        "      [\n"
        "        1,\n"
        "        1\n"
        "      ]\n"
        "    ],\n"
        '    "s_plus": []\n'
        "  }"
    )


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_enumerate_basic_refuses_a_non_partner(fmt, monkeypatch, capsys):
    # a partner index that hands the staircase to itself (n = 3) prints nothing
    found = ideals.partners
    monkeypatch.setattr(ideals, "partners", lambda p: (*found(p), dyck.staircase(p.semilength)))
    assert cli.main(["enumerate-basic", "--n", "3", "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "catborel: error: pair (rfrfrf, rfrfrf) is not admissible" in captured.err


def test_split_search_and_order_check():
    code, out, _ = run_cli("split-search", "--type", "F4")
    assert code == 0 and "0 violating splits" in out
    code, out, _ = run_cli("order-check", "--type", "G2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["orders_coincide"] is True
    assert payload["window_size"] == 13
    assert payload["covers"]["delta"] == []


def test_order_check_prints_the_canonical_label(capsys):
    # like split-search, order-check names the type as parsed, not as typed
    assert cli.main(["order-check", "--type", " g2"]) == 0
    assert capsys.readouterr().out == "G2: |D|=13 orders_coincide=True\n"
    assert cli.main(["order-check", "--type", " g2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["type"] == "G2"
    assert cli.main(["split-search", "--type", " g2"]) == 0
    assert capsys.readouterr().out.startswith("G2: ")


@pytest.mark.parametrize("command", ["split-search", "order-check"])
@pytest.mark.parametrize("label", ["A\u0663", "A\u20033", "\u3000G2", "E\uff18"])
def test_type_labels_outside_ascii_are_refused(command, label, capsys):
    # \d and \s would read an Arabic-Indic 3, an em space, an ideographic
    # space or a fullwidth 8 as the ASCII ones
    assert cli.main([command, "--type", label]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot parse type label" in captured.err


def test_usage_errors_exit_one():
    code, _, err = run_cli("bogus")
    assert code == 1
    code, _, err = run_cli("catalan-matrix", "0")
    assert code == 1 and "error" in err
    code, _, err = run_cli("split-search", "--type", "H9")
    assert code == 1


def test_verify_exit_zero_and_deterministic(tmp_path):
    args = ("verify", "--suite", "matrices", "--max-n", "4")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[-1].startswith("4/4 ")


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "seq.txt"
    code, out, _ = run_cli("bn", "--upto", "3", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "1 1\n2 4\n3 18\n"


@pytest.mark.parametrize("target", ["missing/seq.txt", "."])
def test_out_path_that_cannot_be_written_exits_one(target, tmp_path):
    # a missing directory and a directory: one error line, no traceback
    path = tmp_path / target
    code, out, err = run_cli("bn", "--upto", "3", "--out", str(path))
    assert code == 1
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"catborel: error: cannot write {path}: ")


def test_empty_out_path_exits_one():
    # an empty --out is a path that cannot be opened, not a request for stdout
    code, out, err = run_cli("bn", "--upto", "3", "--out", "")
    assert code == 1
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("catborel: error: cannot write : ")


def test_verify_unknown_suite_exits_one():
    code, out, err = run_cli("verify", "--suite", "bogus", "--max-n", "2")
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == "catborel: error: unknown suite 'bogus'"


def test_threads_flag_does_not_change_output():
    # --threads is gone: output is fixed by the other flags, the flag is refused
    first = run_cli("enumerate-basic", "--n", "4", "--format", "json")
    assert first == run_cli("enumerate-basic", "--n", "4", "--format", "json")
    code, _, _ = run_cli("bn", "--upto", "2", "--threads", "0")
    assert code == 1


@pytest.mark.parametrize(
    "args",
    [
        ("bn", "--upto", "-3"),
        ("bn", "--upto", "0"),
        ("quasi-abelian", "--upto", "0"),
        ("verify", "--max-n", "0"),
        ("verify", "--max-n", "-1"),
        ("support-classes", "--n", "2", "--level", "0"),
        ("catalan-matrix", "0"),
        ("cells", "--n", "0"),
        ("cells", "--n", "0", "--format", "json"),
        ("cells", "--n", "-2", "--format", "csv"),
        ("cells", "--n", "0", "--i", "1", "--j", "1"),
        ("enumerate-basic", "--n", "0"),
        ("qnd-histogram", "--n", "-1"),
        ("support-classes", "--n", "0", "--format", "bfile"),
    ],
)
def test_out_of_range_integers_exit_one(args):
    code, out, err = run_cli(*args)
    assert code == 1
    assert out == ""
    if "--level" in args:
        # support-classes has no --level option, so any value is refused
        assert "unrecognized arguments: --level 0" in err
        return
    minimum = 2 if args[0] == "verify" else 1
    assert f"must be at least {minimum}" in err


def test_verify_below_two_exits_one():
    # at max-n 1 every enumerating check would see nothing but n = 1;
    # 0 and 1 are refused by verify.run_suites with the same message
    for value in ("0", "1"):
        code, out, err = run_cli("verify", "--max-n", value)
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == f"catborel: error: max-n must be at least 2, got {value}"


FORMATS = ("table", "json", "csv", "bfile")
SUPPORTED = {
    ("catalan-matrix", "3"): ("table", "json", "csv"),
    ("cells", "--n", "3"): ("table", "json", "csv"),
    ("bn", "--upto", "3"): ("bfile", "json", "csv"),
    ("enumerate-basic", "--n", "2"): ("table", "json"),
    ("quasi-abelian", "--upto", "3"): ("bfile", "json"),
    ("qnd-histogram", "--n", "2"): ("bfile", "json"),
    ("support-classes", "--n", "2"): FORMATS,
    ("split-search", "--type", "A2"): ("table", "json"),
    ("order-check", "--type", "A2"): ("table", "json"),
    # verify prints only its table, so it takes no --format
    ("verify", "--max-n", "2"): (),
}


@pytest.mark.parametrize(
    "args",
    [
        (*cmd, "--format", fmt)
        for cmd, supported in SUPPORTED.items()
        for fmt in FORMATS
        if fmt not in supported
    ],
)
def test_unsupported_format_exits_one(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(args))
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if SUPPORTED[args[:-2]]:
        assert "invalid choice" in captured.err
    else:
        assert f"unrecognized arguments: --format {args[-1]}" in captured.err


SUPPORTED_ARGS = (
    [(*cmd, "--format", fmt) for cmd, supported in SUPPORTED.items() for fmt in supported]
    # a command without --format prints its one format
    + [cmd for cmd, supported in SUPPORTED.items() if not supported]
)


@pytest.mark.parametrize("args", SUPPORTED_ARGS)
def test_supported_format_exits_zero(args, capsys):
    assert cli.main(list(args)) == 0
    assert capsys.readouterr().out


def run_main_both_ways(args, tmp_path, capsys):
    """``cli.main(args)``'s exit code and stdout, once the same run with
    ``--out`` has been seen to give the same code, print nothing and
    write exactly the stdout bytes."""
    code = cli.main(list(args))
    stdout = capsys.readouterr().out
    target = tmp_path / "out.txt"
    assert cli.main([*args, "--out", str(target)]) == code
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == stdout.encode()
    return code, stdout


@pytest.mark.parametrize("args", SUPPORTED_ARGS, ids=" ".join)
def test_out_writes_the_stdout_bytes(args, tmp_path, capsys):
    # main alone writes a command's text, to stdout or to --out
    code, stdout = run_main_both_ways(args, tmp_path, capsys)
    assert code == 0 and stdout


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_split_search_with_a_violating_split_exits_two(fmt, monkeypatch, tmp_path, capsys):
    triple = ((1, 0), (0, 1), (1, 1))
    monkeypatch.setattr(rootsys, "highest_root_split_search", lambda rs: [triple])
    code, stdout = run_main_both_ways(["split-search", "--type", "A2", "--format", fmt], tmp_path, capsys)
    assert code == 2
    if fmt == "json":
        assert json.loads(stdout) == {
            "type": "A2",
            "positive_roots": 3,
            "violations": [[[1, 0], [0, 1], [1, 1]]],
        }
    else:
        assert stdout == "A2: 1 violating splits\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_order_check_with_differing_orders_exits_two(fmt, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(rootsys, "orders_coincide", lambda poset: False)
    code, stdout = run_main_both_ways(["order-check", "--type", "A2", "--format", fmt], tmp_path, capsys)
    assert code == 2
    if fmt == "json":
        assert json.loads(stdout)["orders_coincide"] is False
    else:
        assert stdout.startswith("A2: ") and stdout.endswith(" orders_coincide=False\n")


def test_verify_with_a_failing_check_exits_two(monkeypatch, tmp_path, capsys):
    failing = verify.Check("dyck", "fake", False, "n<=2")
    monkeypatch.setattr(verify, "run_suites", lambda names, max_n: [failing])
    code, stdout = run_main_both_ways(["verify", "--max-n", "2"], tmp_path, capsys)
    assert code == 2
    assert stdout == "FAIL dyck.fake: n<=2\n0/1 checks passed (max-n 2)\n"


def test_internal_key_error_is_not_a_usage_error(monkeypatch, capsys):
    def broken(upto):
        yield 1, 1
        raise KeyError("lost entry")

    monkeypatch.setattr(sequences, "b_sequence", broken)
    assert cli.main(["bn", "--upto", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal failure" in captured.err


# Runs cli.main on its arguments with stdout discarded (or only imports the
# CLI when given none), then reports what the run imported.
_IMPORT_PROBE = """
import contextlib, io, sys
from catborel import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(sys.argv[1:])
print(repr((
    sorted(m for m in sys.modules if m.partition(".")[0] == "catborel"),
    {m: m in sys.modules for m in ("dataclasses", "inspect", "json")},
)))
"""


def loaded_by(*args):
    """The catborel modules a fresh interpreter has loaded after running
    one command, and whether it loaded dataclasses, inspect and json."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        check=True,
    )
    modules, stdlib = ast.literal_eval(proc.stdout)
    return {m.removeprefix("catborel.") for m in modules} - {"catborel"}, stdlib


ALL_MODULES = {
    "cli", "dyck", "frozen", "ideals", "loopalgebra", "matrices", "rootsys", "sequences",
    "supports", "verify",
}

# per command, the catborel modules it may load and whether it loads
# dataclasses (no command does); none of these formats needs json, and
# the two JSON rows render by hand
IMPORTS = {
    (): ({"cli"}, False),
    ("bn", "--upto", "3"): ({"cli", "sequences"}, False),
    ("quasi-abelian", "--upto", "3"): ({"cli", "sequences"}, False),
    ("cells", "--n", "4", "--i", "2", "--j", "2"): ({"cli", "dyck", "frozen"}, False),
    ("catalan-matrix", "2"): ({"cli", "dyck", "frozen", "matrices"}, False),
    ("split-search", "--type", "A2"): ({"cli", "frozen", "rootsys"}, False),
    ("order-check", "--type", "A2"): ({"cli", "frozen", "rootsys"}, False),
    ("enumerate-basic", "--n", "3"): ({"cli", "dyck", "frozen", "ideals"}, False),
    ("enumerate-basic", "--n", "3", "--format", "json"): ({"cli", "dyck", "frozen", "ideals"}, False),
    ("qnd-histogram", "--n", "3"): ({"cli", "sequences"}, False),
    ("support-classes", "--n", "2"): ({"cli", "dyck", "frozen", "ideals", "supports"}, False),
    ("support-classes", "--n", "2", "--format", "json"): (
        {"cli", "dyck", "frozen", "ideals", "supports"}, False,
    ),
    ("verify", "--max-n", "2"): (ALL_MODULES, False),
}


@pytest.mark.parametrize("args", IMPORTS, ids=lambda args: " ".join(args) or "import")
def test_command_imports_only_what_it_runs(args):
    # start-up is most of the cost of the cheap commands; dataclasses
    # pulls in inspect, so each row pins both
    modules, with_dataclasses = IMPORTS[args]
    expected = {"dataclasses": with_dataclasses, "inspect": with_dataclasses, "json": False}
    assert loaded_by(*args) == (modules, expected)
