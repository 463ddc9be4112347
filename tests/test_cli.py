"""Command-line surface: exit codes, file formats, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

import andovar as av
import andovar.dilation
from andovar import serialize
from andovar.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pair(path, T1, T2):
    path.write_text(serialize.pair_to_json(np.asarray(T1, complex),
                                           np.asarray(T2, complex)))
    return str(path)


@pytest.fixture
def zero_pair_file(tmp_path):
    return write_pair(tmp_path / "pair.json", np.zeros((2, 2)), np.zeros((2, 2)))


@pytest.fixture
def poly_diff_file(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(serialize.poly_to_json(np.array([[0, -1], [1, 0]], complex)))
    return str(path)


class TestCheck:
    def test_valid_pair(self, zero_pair_file, capsys):
        code, out, _ = run(["check", zero_pair_file], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["pure"] == [True, True]

    def test_noncommuting_pair_exits_2(self, tmp_path, capsys):
        f = write_pair(tmp_path / "bad.json",
                       [[0, 1], [0, 0]], [[0, 0], [1, 0]])
        code, out, _ = run(["check", f], capsys)
        assert code == 2
        data = json.loads(out)
        assert data["details"]["commute_residual"] > 0.1

    def test_expansion_exits_2(self, tmp_path, capsys):
        f = write_pair(tmp_path / "big.json", 1.5 * np.eye(2), np.eye(2))
        code, out, _ = run(["check", f], capsys)
        assert code == 2
        assert "contraction" in json.loads(out)["error"]

    def test_parse_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run(["check", str(bad)], capsys)
        assert code == 1

    def test_missing_file_exits_1(self, capsys):
        code, _, _ = run(["check", "/nonexistent/pair.json"], capsys)
        assert code == 1

    def test_unknown_command_exits_1(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 1


class TestMalformedInput:
    @pytest.mark.parametrize("command", ["check", "dilate"])
    @pytest.mark.parametrize("text", [
        '{"n": null, "T1": [[[0, 0]]], "T2": [[[0, 0]]]}',
        '{"n": "x", "T1": [[[0, 0]]], "T2": [[[0, 0]]]}',
        '{"n": 0, "T1": [], "T2": []}',
        "5",
    ])
    def test_bad_pair_file_exits_1(self, tmp_path, capsys, command, text):
        f = tmp_path / "pair.json"
        f.write_text(text)
        code, out, err = run([command, str(f)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_polynomial_file_exits_1(self, zero_pair_file, tmp_path, capsys):
        poly = tmp_path / "poly.json"
        poly.write_text("5")
        code, out, err = run(["vn", zero_pair_file, str(poly)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestColligation:
    def test_blocks_and_bases_emitted(self, zero_pair_file, capsys):
        code, out, _ = run(["colligation", zero_pair_file], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["r1"] == 2 and data["r2"] == 2
        B = serialize.matrix_from_nested(data["B"])
        np.testing.assert_allclose(B, np.eye(2), atol=1e-12)
        assert data["unitarity_residual"] <= 1e-12

    def test_unitary_pair_has_empty_defects(self, tmp_path, capsys):
        f = write_pair(tmp_path / "p.json", np.eye(2), np.eye(2))
        code, out, _ = run(["colligation", f], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["r1"] == 0 and data["r2"] == 0
        assert data["unitarity_residual"] == 0.0


class TestToleranceContract:
    def test_validated_pair_reaches_the_colligation(self, tmp_path, capsys):
        # ||T1|| exceeds 1 by less than --tol-contract
        f = write_pair(tmp_path / "p.json", np.diag([1 + 0.9e-10, 0.3]),
                       np.diag([0.2, 0.1]))
        assert run(["check", f], capsys)[0] == 0
        code, out, _ = run(["colligation", f], capsys)
        assert code == 0
        assert json.loads(out)["unitarity_residual"] <= 1e-12
        # T1 is not pure, which the dilation reports as a PurityError
        code, out, _ = run(["dilate", f], capsys)
        assert code == 2
        assert "spectral_radius" in json.loads(out)["details"]


class TestToleranceOverrides:
    @pytest.fixture
    def edge_pair_file(self, tmp_path):
        # ||T1|| exceeds 1 by 0.7e-10: inside the default 1e-10, outside half of it
        return write_pair(tmp_path / "p.json", np.diag([1 + 0.7e-10, 0.3]),
                          np.diag([0.2, 0.1]))

    @pytest.mark.parametrize("flags, expected", [
        ([], 0),
        (["--strict"], 2),
        (["--tol-contract", "1e-12"], 2),
    ])
    def test_contractivity_tolerance(self, edge_pair_file, capsys, flags, expected):
        code, out, _ = run(["check", edge_pair_file, *flags], capsys)
        assert code == expected
        if expected == 2:
            assert json.loads(out)["details"]["norm"] > 1.0

    def test_negative_tolerance_exits_1(self, zero_pair_file, capsys):
        # NaN fails every comparison, so it must be refused, not let through
        for value in ("-1", "nan"):
            code, _, err = run(["check", zero_pair_file, "--tol-pure", value], capsys)
            assert code == 1, value
            assert "--tol-pure must be >= 0" in err

    @pytest.mark.parametrize("flag", ["--tol-commute", "--tol-contract", "--tol-pure",
                                      "--rank-tol", "--tol-trunc"])
    def test_infinite_tolerance_exits_1(self, tmp_path, capsys, flag):
        # an infinite tolerance would switch its check off: with
        # --tol-contract inf a norm-5 T1 passed as a valid pair
        f = write_pair(tmp_path / "p.json", [[5.0]], [[0.0]])
        code, out, err = run(["check", f, flag, "inf"], capsys)
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if line.startswith("Error:")]
        assert errors == [f"Error: {flag} must be >= 0 and finite"]


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["gen", "colligation", "variety", "vn", "dilate"])
    def test_missing_directory_exits_1(self, zero_pair_file, poly_diff_file, tmp_path,
                                       capsys, command):
        target = str(tmp_path / "missing" / "out")
        argv = {
            "gen": ["gen", "diag", "-o", target],
            "colligation": ["colligation", zero_pair_file, "-o", target],
            "variety": ["variety", zero_pair_file, "--theta-samples", "8", "-o", target],
            "vn": ["vn", zero_pair_file, poly_diff_file, "-o", target],
            "dilate": ["dilate", zero_pair_file, "--truncation", "4", "--dump", target],
        }[command]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write output file") and err.count("\n") == 1


class TestVariety:
    def test_zero_pair_diagonal_rows(self, zero_pair_file, tmp_path, capsys):
        out_csv = tmp_path / "variety.csv"
        code, _, err = run(
            ["variety", zero_pair_file, "--theta-samples", "32",
             "-o", str(out_csv)], capsys)
        assert code == 0
        rows = out_csv.read_text().strip().split("\n")[1:]
        assert len(rows) == 64
        for row in rows:
            parts = row.split(",")
            z1 = complex(float(parts[1]), float(parts[2]))
            z2 = complex(float(parts[3]), float(parts[4]))
            assert abs(z1 - z2) <= 1e-10
        assert "V1 points: 64" in err

    def test_identity_second_entry_all_v0(self, tmp_path, capsys):
        f = write_pair(tmp_path / "p.json", [[0, 0.5], [0, 0]], np.eye(2))
        out_csv = tmp_path / "v.csv"
        code, _, _ = run(["variety", f, "--theta-samples", "16", "-o", str(out_csv)], capsys)
        assert code == 0
        rows = out_csv.read_text().strip().split("\n")[1:]
        assert all(row.split(",")[5] == "V0" for row in rows)
        assert all(abs(complex(float(r.split(",")[3]), float(r.split(",")[4])) - 1.0) <= 1e-10
                   for r in rows)

    def test_nonpure_t1_exits_2(self, tmp_path, capsys):
        f = write_pair(tmp_path / "p.json", np.eye(2), np.zeros((2, 2)))
        code, _, _ = run(["variety", f], capsys)
        assert code == 2

    def test_svg_format(self, zero_pair_file, tmp_path, capsys):
        svg = tmp_path / "v.svg"
        code, _, _ = run(
            ["variety", zero_pair_file, "--theta-samples", "8",
             "--format", "svg", "-o", str(svg)], capsys)
        assert code == 0
        assert svg.read_text().startswith("<svg")


class TestVN:
    def test_difference_poly_on_zero_pair(self, zero_pair_file, poly_diff_file, capsys):
        code, out, _ = run(["vn", zero_pair_file, poly_diff_file], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["lhs"] == 0.0
        assert data["sup_variety"] <= 1e-12
        assert abs(data["sup_bidisc"] - 2.0) <= 1e-9


class TestDilate:
    def test_reports_residuals(self, zero_pair_file, capsys):
        code, out, _ = run(["dilate", zero_pair_file], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["res_z"] <= 1e-10
        assert data["res_psi"] <= 1e-10
        assert data["minimality_defect"] == 0

    def test_explicit_truncation_and_dump(self, zero_pair_file, tmp_path, capsys):
        dump = tmp_path / "ops.json"
        code, out, _ = run(
            ["dilate", zero_pair_file, "--truncation", "4", "--dump", str(dump)],
            capsys)
        assert code == 0
        assert json.loads(out)["N"] == 4
        ops = json.loads(dump.read_text())
        assert set(ops) == {"Pi", "Mz", "MPsi"}

    def test_bad_truncation_exits_1(self, zero_pair_file, capsys):
        code, _, _ = run(["dilate", zero_pair_file, "--truncation", "soon"], capsys)
        assert code == 1

    def test_capped_truncation_is_reported(self, tmp_path, capsys):
        f = write_pair(tmp_path / "slow.json", *av.generate_pair(
            "triangular-commuting", 1, seed=1, radius=0.99))
        with pytest.warns(UserWarning, match="capped"):
            code, out, _ = run(["dilate", f], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["N"] == 2000
        assert data["tail_bound"] > 1e-9
        assert data["truncation_capped"] is True

    def test_converged_truncation_is_not_capped(self, tmp_path, capsys):
        f = write_pair(tmp_path / "diag.json", *av.generate_pair("diag", 3, seed=7))
        code, out, _ = run(["dilate", f], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["tail_bound"] < 1e-9
        assert data["truncation_capped"] is False


class TestDilateDumpLimit:
    def test_dump_past_the_row_limit_exits_1(self, zero_pair_file, tmp_path,
                                             capsys, monkeypatch):
        monkeypatch.setattr(andovar.dilation, "DENSE_ROWS_MAX", 9)
        dump = tmp_path / "ops.json"
        code, out, err = run(
            ["dilate", zero_pair_file, "--truncation", "4", "--dump", str(dump)],
            capsys)
        assert code == 1
        assert out == ""
        assert "10 rows" in err
        assert not dump.exists()
        # without --dump the same dilation needs no dense operator
        code, out, _ = run(["dilate", zero_pair_file, "--truncation", "4"], capsys)
        assert code == 0
        assert json.loads(out)["rows"] == 10


class TestGen:
    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["gen", "diag", "--dim", "3", "--seed", "7", "-o", str(a)], capsys)[0] == 0
        assert run(["gen", "diag", "--dim", "3", "--seed", "7", "-o", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_pair_validates(self, tmp_path, capsys):
        f = tmp_path / "pair.json"
        run(["gen", "jordan-poly", "--dim", "4", "--seed", "3", "-o", str(f)], capsys)
        code, out, _ = run(["check", str(f)], capsys)
        assert code == 0
        assert json.loads(out)["pure"] == [True, True]

    def test_unknown_kind_exits_1(self, capsys):
        code, _, _ = run(["gen", "sparse-magic"], capsys)
        assert code == 1


class TestDemo:
    def test_shift_demo(self, capsys):
        code, out, _ = run(["demo", "shift", "--m", "2"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["colligation"]["B_equals_identity"] is True
        assert data["max_diagonal_deviation"] <= 1e-10
        assert data["vn"]["lhs"] == 0.0
        assert abs(data["vn"]["sup_bidisc"] - 2.0) <= 1e-9


class TestDeterminism:
    def test_variety_byte_identical(self, tmp_path, capsys):
        f = tmp_path / "pair.json"
        run(["gen", "triangular-commuting", "--dim", "4", "--seed", "42",
             "-o", str(f)], capsys)
        outs = []
        for name in ("v1.csv", "v2.csv"):
            out_path = tmp_path / name
            code, _, _ = run(["variety", str(f), "--theta-samples", "64",
                              "-o", str(out_path)], capsys)
            assert code == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]

    def test_vn_byte_identical(self, tmp_path, capsys):
        f = tmp_path / "pair.json"
        run(["gen", "diag", "--dim", "3", "--seed", "5", "-o", str(f)], capsys)
        poly = tmp_path / "poly.json"
        poly.write_text(serialize.poly_to_json(
            np.array([[0.3, -1], [1, 0.25j]], complex)))
        a = run(["vn", str(f), str(poly)], capsys)
        b = run(["vn", str(f), str(poly)], capsys)
        assert a == b and a[0] == 0
