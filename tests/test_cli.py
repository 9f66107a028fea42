import io
import json

import pytest

from vcbent.cli import main


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_spectrum_command():
    code, text = run("spectrum", "--p", "3", "--n", "2", "--values", "000012021")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "3 2"
    assert lines[1:10] == ["3", "3", "3", "3", "-3-3x", "3x", "3", "3x", "-3-3x"]
    assert lines[-1] == "strict-exponents: 000021012"


def test_spectrum_constant_has_no_strict_line():
    code, text = run("spectrum", "--n", "2", "--values", "000000000")
    assert code == 0
    assert "strict-exponents" not in text
    assert text.splitlines()[1] == "9"


def test_spectrum_fast_is_byte_identical():
    _, slow = run("spectrum", "--n", "2", "--values", "021201111")
    _, fast = run("spectrum", "--n", "2", "--values", "021201111", "--fast")
    assert slow == fast


def test_spectrum_pretty():
    _, text = run("spectrum", "--n", "2", "--values", "000012021", "--pretty")
    assert "3ξ" in text


def test_check_command_exit_codes():
    code, text = run("check", "--n", "2", "--values", "000012021")
    assert code == 0
    assert json.loads(text) == {"flat": True, "bent": True, "strict": True, "witness": None}
    code, text = run("check", "--n", "2", "--values", "021222120")
    assert code == 0
    code, text = run("check", "--n", "2", "--values", "000000000")
    assert code == 1
    assert json.loads(text)["witness"] == {"index": 0, "value": "9"}


def test_check_above_size_limit_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("BENT_SIZE_LIMIT", "9")
    code, text = run("check", "--n", "3", "--values", "0" * 27)
    assert code == 2 and text == ""
    assert "exceeds the size limit 9" in capsys.readouterr().err


def test_check_malformed_exits_2(capsys):
    code, _ = run("check", "--n", "2", "--values", "00001")
    assert code == 2
    code, _ = run("check", "--n", "2", "--values", "000012051")
    assert code == 2
    code, _ = run("check", "--n", "10000000", "--values", "0")
    assert code == 2
    assert "expected 3^10000000 values for p=3, n=10000000, got 1" in capsys.readouterr().err


def test_permute_table2():
    code, text = run("permute", "--expr", "kron(N,N)", "--function", "000012021")
    assert code == 0
    assert "g: 021222120" in text


def test_permute_case3_diag_and_kron_routes():
    code, text = run(
        "permute", "--expr", "diag(w^2,1,w,1,1,1,w,1,w^2)", "--function", "000012021"
    )
    assert code == 0 and "g: 102012222" in text
    code, text2 = run(
        "permute",
        "--expr",
        "kron(w^1*P12,compose(P01,compose(N,Z)))",
        "--function",
        "000012021",
    )
    assert code == 0 and "g: 102012222" in text2


def test_permute_via_routes_identical():
    for expr in ("kron(N,N)", "diag(w^2,1,w,1,1,1,w,1,w^2)", "blockdiag(I,I,X)"):
        _, dense = run("permute", "--expr", expr, "--function", "000012021", "--via", "dense")
        _, table = run("permute", "--expr", expr, "--function", "000012021", "--via", "table")
        assert dense == table


@pytest.mark.parametrize("expr", ["blockdiag(kron(I,I),kron(I,N),kron(N,I))", "blockdiag(I,I,I,I,I,I,I,I,X)"])
def test_permute_via_routes_identical_for_any_block_diagonal(capsys, expr):
    # block-diagonals other than three 3×3 blocks: 27×27 permutations on a 3-variable function
    args = ("permute", "--expr", expr, "--function", "012" * 9, "--via")
    code, text = run(*args, "dense")
    err = capsys.readouterr().err
    assert (run(*args, "table"), capsys.readouterr().err) == ((code, text), err)
    assert code == 0 and "spectrum:" in text


def test_permute_dense_is_guarded_by_its_p_2n_cost(monkeypatch, capsys):
    # W = C·P·C* has p^2n = 81 entries for kron(N,N); the spectrum itself has 9
    monkeypatch.setenv("BENT_SIZE_LIMIT", "80")
    args = ("permute", "--expr", "kron(N,N)", "--function", "000012021", "--via")
    code, text = run(*args, "dense")
    assert code == 2 and text == ""
    assert "exceeds the size limit 80" in capsys.readouterr().err
    code, text = run(*args, "table")
    assert code == 0 and "g: 021222120" in text


def test_permute_table_guards_a_dense_w_before_building_it(monkeypatch, capsys):
    # blockdiag(I,I,N) conjugates to a dense 9×9 W, so kron(..., X) is a dense 27×27 W
    monkeypatch.setenv("BENT_SIZE_LIMIT", "81")
    code, text = run("permute", "--expr", "kron(blockdiag(I,I,N),X)", "--function", "0" * 27, "--via", "table")
    assert code == 2 and text == ""
    assert "3^6 exceeds the size limit 81" in capsys.readouterr().err
    # a GenPerm W stays unguarded: it is densified only to print its 9×9 form
    monkeypatch.setenv("BENT_SIZE_LIMIT", "80")
    code, text = run("permute", "--expr", "kron(N,N)", "--function", "000012021", "--via", "table")
    assert code == 0 and "W:" in text


def test_permute_table_does_not_densify_a_w_too_large_to_print(monkeypatch):
    def refuse(self):
        raise AssertionError("a 27×27 W is not printed, so it must not be densified")

    monkeypatch.setattr("vcbent.genperm.GenPerm.to_dense", refuse)
    code, text = run("permute", "--expr", "kron(N,kron(N,N))", "--function", "0" * 27, "--via", "table")
    assert code == 0 and "not-bent: not-flat" in text and "W:" not in text


@pytest.mark.parametrize("via", ["dense", "table"])
@pytest.mark.parametrize("expr", ["blockdiag(I,I,N)", "diag(w^2,1,w,1,1,1,w,1,w^2)"])
def test_permute_block_diagonal_w_is_guarded_by_both_routes(monkeypatch, capsys, expr, via):
    # both expressions conjugate through the block-diagonal decomposition to a dense 9×9 W
    monkeypatch.setenv("BENT_SIZE_LIMIT", "80")
    code, text = run("permute", "--expr", expr, "--function", "000012021", "--via", via)
    assert code == 2 and text == ""
    assert "3^4 exceeds the size limit 80" in capsys.readouterr().err


def test_permute_function_length_not_a_power_exits_2():
    code, text = run("permute", "--expr", "kron(N,N)", "--function", "00001")
    assert code == 2 and text == ""


def test_permute_spectrum_file(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("3 2\nexp:000021012\n")
    code, text = run("permute", "--expr", "kron(N,N)", "--spectrum", str(path))
    assert code == 0
    assert "g: 021222120" in text


def test_permute_spectrum_file_rejects_exponent_digits_not_below_p(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("3 2\nexp:900000000\n")
    code, text = run("permute", "--expr", "kron(N,N)", "--spectrum", str(path))
    assert code == 2 and text == ""
    assert "exponent digit 9 at position 0 is not below 3" in capsys.readouterr().err


def test_permute_not_bent_stage_reported():
    code, text = run("permute", "--expr", "blockdiag(I,I,P12)", "--function", "000012021")
    assert code == 0
    assert "not-bent:" in text


def test_permute_parse_error_exits_2():
    code, _ = run("permute", "--expr", "kron(N", "--function", "000012021")
    assert code == 2


def test_enumerate_class():
    code, text = run("enumerate", "--class", "1")
    assert code == 0
    payload = json.loads(text)
    assert payload["class"] == 1
    assert len(payload["rows"]) == 18
    assert "rotations" not in payload


def test_enumerate_class_rotations():
    code, text = run("enumerate", "--class", "1", "--rotations")
    payload = json.loads(text)
    assert len(payload["rotations"]) == 54


def test_enumerate_all_lines():
    code, text = run("enumerate", "--all")
    lines = text.strip().splitlines()
    assert code == 0
    assert len(lines) == 486  # 9 attributed classes × 54; 270 distinct functions
    assert len({line.split("\t")[0] for line in lines}) == 270
    assert lines == sorted(lines)


def test_enumerate_out_file(tmp_path):
    path = tmp_path / "all.tsv"
    code, text = run("enumerate", "--all", "--out", str(path))
    assert code == 0 and text == ""
    assert len(path.read_text().strip().splitlines()) == 486


def test_enumerate_parallel_matches_sequential():
    _, seq = run("enumerate", "--all")
    _, par = run("enumerate", "--all", "--jobs", "2")
    assert seq == par


def test_verify_appendix_default_fixture():
    code, text = run("verify-appendix")
    assert code == 0
    assert "162/162 rows pass" in text


def test_verify_appendix_detects_mutation(tmp_path):
    from vcbent.appendix import fixture_text

    lines = fixture_text().splitlines()
    # flip one trit in one g vector
    parts = lines[3].split("\t")
    digits = list(parts[2])
    digits[0] = str((int(digits[0]) + 1) % 3)
    parts[2] = "".join(digits)
    lines[3] = "\t".join(parts)
    path = tmp_path / "fixture.tsv"
    path.write_text("\n".join(lines) + "\n")
    code, text = run("verify-appendix", str(path))
    assert code == 1
    assert "161/162 rows pass" in text
    assert text.count("FAIL") == 1


@pytest.mark.parametrize("class_id", ["0", "-1", "10"])
def test_verify_appendix_class_ids_outside_1_to_9_exit_2(tmp_path, capsys, class_id):
    from vcbent.appendix import fixture_text

    # class 9's 18 rows relabelled: class 0 used to pass as class 9, class 10 to crash
    lines = [class_id + line[1:] for line in fixture_text().splitlines() if line.startswith("9\t")]
    path = tmp_path / "fixture.tsv"
    path.write_text("\n".join(lines) + "\n")
    code, text = run("verify-appendix", str(path))
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"error: no reference class {class_id}; expected 1..9\n"


def test_maiorana_single():
    code, text = run("maiorana", "--q", "I", "--v", "000")
    assert code == 0
    assert text.strip() == "000012021"


def test_maiorana_enumerate():
    code, text = run("maiorana", "--enumerate")
    lines = text.strip().splitlines()
    assert code == 0
    assert lines[-1] == "count: 162"
    assert len(lines) == 163


def test_maiorana_bad_q_exits_2():
    code, _ = run("maiorana", "--q", "QQ", "--v", "000")
    assert code == 2


def test_oracle_command():
    code, text = run("oracle", "--emit", "tsv")
    lines = text.strip().splitlines()
    assert code == 0
    assert len(lines) == 486
    assert lines == sorted(lines)
    code, text = run("oracle", "--emit", "json")
    payload = json.loads(text)
    assert payload["count"] == 486


def test_demo_case2():
    code, text = run("demo", "--case", "2")
    assert code == 0
    assert "g = 021222120" in text


def test_demo_case3():
    code, text = run("demo", "--case", "3")
    assert code == 0
    assert "g = 102012222" in text
    assert "scale: 1/3" in text


def test_demo_case4():
    code, text = run("demo", "--case", "4")
    assert code == 0
    assert "[0 0 0 0 0 0 0 0 3x]" in text
    assert "not-a-sign at index 8: 3x" in text


def test_demo_theorem4():
    code, text = run("demo", "--case", "theorem4", "--p", "4")
    assert code == 0 and "g = 2301" in text
    code, text = run("demo", "--case", "theorem4", "--p", "3")
    assert code == 0 and "no function has sign -F" in text
    code, text = run("demo", "--case", "theorem4", "--p", "6")
    assert code == 0 and "shifts values by 3" in text


def test_usage_error_exit_code():
    code, _ = run("enumerate")
    assert code == 2


# -- cold processes -----------------------------------------------------------------

_BASE = ["vcbent", "vcbent.cli", "vcbent.cyclotomic", "vcbent.mvfunction", "vcbent.vctransform"]
_LOADS = [
    (["check", "--n", "2", "--values", "000012021"], ["bentlab"]),
    (["spectrum", "--n", "2", "--values", "000012021"], ["bentlab"]),
    (["oracle", "--emit", "json"], ["oracle"]),
    (
        ["permute", "--expr=kron(N,N)", "--function", "000012021", "--via", "table"],
        ["bentlab", "genperm", "permexpr"],
    ),
    (["verify-appendix"], ["appendix", "bentlab", "generator", "genperm"]),
]


@pytest.mark.parametrize("argv, extra", _LOADS, ids=[argv[0] for argv, _ in _LOADS])
def test_each_command_loads_only_the_modules_it_runs(fresh_python, argv, extra):
    # an eager import anywhere on the command's path shows up here as an extra module
    probe = (
        "import io, sys\n"
        "from vcbent import cli\n"
        "code = cli.main(sys.argv[1:], out=io.StringIO())\n"
        "print(code, *sorted(m for m in sys.modules if m.partition('.')[0] == 'vcbent'))\n"
    )
    proc = fresh_python("-c", probe, *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    code, *loaded = proc.stdout.decode().split()
    assert code == "0"
    assert loaded == sorted(_BASE + [f"vcbent.{name}" for name in extra])


@pytest.mark.parametrize(
    "values, expected_code",
    [("000012021", 0), ("000000000", 1), ("000012051", 2)],
    ids=["bent", "not-bent", "malformed"],
)
def test_module_entry_point_matches_main(fresh_python, capsys, values, expected_code):
    argv = ["check", "--n", "2", "--values", values]
    proc = fresh_python("-m", "vcbent", *argv)
    code, text = run(*argv)
    assert proc.returncode == code == expected_code
    assert proc.stdout == text.encode()
    assert proc.stderr.decode() == capsys.readouterr().err


def test_demo_cross_checks_hold_under_optimize(fresh_python):
    # -O strips assert statements; a wrong recovered function must still stop the demo
    probe = (
        "import io\n"
        "from vcbent import cli\n"
        "from vcbent.mvfunction import MvFunction\n"
        "cli.try_from_sign = lambda v: MvFunction(3, 2, (0,) * 9)\n"
        "cli.main(['demo', '--case', '1'], out=io.StringIO())\n"
    )
    proc = fresh_python("-O", "-c", probe)
    assert proc.returncode != 0
    assert b"AssertionError: P12(2) applied to conj(F) gave another function" in proc.stderr
