import json
import subprocess
import sys
from pathlib import Path

import pytest

from catborel import cli, dyck, ideals, matrices

SRC = str(Path(__file__).resolve().parent.parent / "src")


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


def test_cells_listing_and_counts():
    code, out, _ = run_cli("cells", "--n", "4", "--i", "1", "--j", "1")
    assert code == 0
    assert out.split() == ["rfrfrfrf", "rfrrffrf"]
    code, out, _ = run_cli("cells", "--n", "3", "--format", "csv")
    assert code == 0
    assert out == "1,1,0\n1,1,0\n0,0,1\n"


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
    tau recursion of matrices.catalan_matrix, rendered the same way."""
    for n in range(1, 31):
        c = matrices.catalan_matrix(n)
        expected = {
            "table": matrices.format_table(c) + "\n",
            "csv": "".join(",".join(str(v) for v in row) + "\n" for row in c.rows()),
            "json": json.dumps({"n": n, "entries": c.rows()}, sort_keys=True, indent=2) + "\n",
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


def test_split_search_and_order_check():
    code, out, _ = run_cli("split-search", "--type", "F4")
    assert code == 0 and "0 violating splits" in out
    code, out, _ = run_cli("order-check", "--type", "G2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["orders_coincide"] is True
    assert payload["window_size"] == 13
    assert payload["covers"]["delta"] == []


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
    assert "must be at least 1" in err


def test_verify_below_two_exits_one():
    # at max-n 1 every enumerating check would see nothing but n = 1
    code, out, err = run_cli("verify", "--max-n", "1")
    assert code == 1
    assert out == ""
    assert "must be at least 2" in err


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
    ("verify", "--max-n", "2"): ("table",),
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
    assert "invalid choice" in captured.err


@pytest.mark.parametrize(
    "args",
    [(*cmd, "--format", fmt) for cmd, supported in SUPPORTED.items() for fmt in supported],
)
def test_supported_format_exits_zero(args, capsys):
    assert cli.main(list(args)) == 0
    assert capsys.readouterr().out


def test_internal_key_error_is_not_a_usage_error(monkeypatch, capsys):
    def broken(n):
        raise KeyError("lost entry")

    monkeypatch.setattr(ideals, "b_count_formula", broken)
    assert cli.main(["bn", "--upto", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal failure" in captured.err
