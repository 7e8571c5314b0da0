import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from matschroed.cli import (
    DEFAULT_SEED,
    get_seed,
    load_mg,
    main,
    mg_from_dict,
    mg_to_dict,
    parse_grid,
    save_mg,
)
from matschroed.families import FamilySpec, build_family
from matschroed.matpoly import MatrixGaussian
from matschroed.operators import transform_apply


def random_mg(rng, degree, N):
    return MatrixGaussian.from_poly(
        rng.standard_normal((degree + 1, N, N)) + 1j * rng.standard_normal((degree + 1, N, N))
    )


def test_seed_default_and_env(monkeypatch):
    monkeypatch.delenv("MATSCHROED_SEED", raising=False)
    assert get_seed() == DEFAULT_SEED
    monkeypatch.setenv("MATSCHROED_SEED", "777")
    assert get_seed() == 777


def test_mg_json_roundtrip(tmp_path):
    rng = np.random.default_rng(41)
    f = random_mg(rng, 5, 3)
    path = tmp_path / "f.json"
    save_mg(f, path)
    g = load_mg(path)
    assert (f - g).max_abs() < 1e-15
    data = mg_to_dict(f)
    assert data["N"] == 3 and data["degree"] == 5
    assert (mg_from_dict(data) - f).max_abs() == 0.0


GOOD = {"N": 2, "degree": 1, "coeffs": [[[1.0, 0.0]] * 4, [[0.5, -0.5]] * 4]}


@pytest.mark.parametrize(
    "patch, field",
    [
        ({"degree": 2}, "'degree'"),  # more degrees than matrices
        ({"coeffs": [[[1.0, 0.0]] * 4, [[0.5, -0.5]] * 3]}, "'coeffs'"),  # ragged matrices
        ({"coeffs": [[[1.0, 0.0]] * 3, [[0.5, -0.5]] * 3]}, "'coeffs'"),  # fewer than N^2 entries
        ({"coeffs": [[[1.0, 0.0]] * 4] * 3}, "'degree'"),  # more matrices than degree + 1
        ({"coeffs": [[[float("nan"), 0.0]] * 4, [[0.5, -0.5]] * 4]}, "'coeffs'"),
    ],
    ids=["degree-too-large", "ragged", "short-matrix", "extra-matrix", "nan"],
)
def test_mg_from_dict_rejects_bad_input(tmp_path, capsys, patch, field):
    assert mg_from_dict(GOOD).degree == 1
    path = tmp_path / "f.json"
    path.write_text(json.dumps({**GOOD, **patch}))
    assert main(["transform", str(path), "--out", str(tmp_path / "o.json")]) == 2
    assert field in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, matschroed.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def test_parse_grid():
    np.testing.assert_allclose(parse_grid("-1:1:0.5"), [-1.0, -0.5, 0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        parse_grid("0:1")
    with pytest.raises(ValueError):
        parse_grid("1:0:0.5")


@pytest.mark.parametrize(
    "family_args",
    [
        ["--kind", "1", "--N", "2", "--nu", "1.0"],
        ["--kind", "2", "--N", "3", "--nu", "0.8,-1.3"],
    ],
)
def test_check_passes(capsys, family_args):
    rc = main(["check", *family_args, "--nmax", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


def test_check_scales_unnormalized_lines():
    # Phi_10 of this family reaches ~8e3 on [-3, 3]; the real-integral and
    # oracle lines are relative to max(1, max |Phi_n|) at their points
    assert main(["check", "--kind", "2", "--N", "5", "--nu=-1.8,1.2,-1.6,0.9", "--nmax", "10"]) == 0


def test_check_spec_json_inline(capsys):
    spec = json.dumps({"kind": 1, "N": 2, "nu": [0.5]})
    assert main(["check", "--spec", spec, "--nmax", "4"]) == 0


def test_check_impossible_tolerance():
    assert main(["check", "--kind", "1", "--N", "2", "--nu", "1.0", "--nmax", "4", "--tol", "1e-30"]) == 1


def test_usage_errors(capsys):
    # missing family config and bad inline JSON both exit 2
    assert main(["check"]) == 2
    assert main(["check", "--spec", "{not json"]) == 2
    assert main(["density", "--kind", "1", "--N", "2", "--nu", "1.0", "--entry", "9,9"]) == 2
    assert main(["density", "--kind", "1", "--N", "2", "--nu", "1.0", "--grid", "bad"]) == 2


def test_density_csv(tmp_path):
    out = tmp_path / "d.csv"
    rc = main(
        [
            "density",
            "--kind",
            "1",
            "--N",
            "2",
            "--nu",
            "1.0",
            "--nmax",
            "3",
            "--entry",
            "1,1",
            "--grid=-6:6:0.5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert data.dtype.names == ("x", "n0", "n1", "n2", "n3")
    for name in ("n0", "n1", "n2", "n3"):
        col = data[name]
        assert np.all(col >= -1e-12)  # diagonal density entries are nonnegative
        # trapezoid integral of the full density trace is close to 1 only for
        # entry sums; here just check the column integrates to something finite
        assert np.isfinite(np.trapezoid(col, data["x"]))


def test_transform_roundtrip_files(tmp_path):
    rng = np.random.default_rng(43)
    f = random_mg(rng, 7, 2)
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    save_mg(f, a)
    assert main(["transform", str(a), "--k", "1", "--out", str(b), "--verify"]) == 0
    assert main(["transform", str(b), "--k", "1", "--direction", "-1", "--out", str(c)]) == 0
    g = load_mg(c)
    assert (f - g).max_abs() < 1e-12 * f.max_abs()


def test_density_digits_match_the_complex_product(tmp_path):
    # entry (2, 3) summed in column order, exactly as a complex product with imaginary parts 0 sums it
    out = tmp_path / "d.csv"
    args = ["--kind", "2", "--N", "5", "--nu", "0.7,-0.6,0.9,0.8", "--nmax", "12", "--entry", "2,3"]
    assert main(["density", *args, "--grid=-6:6:0.05", "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    ctx = build_family(FamilySpec(2, 5, [0.7, -0.6, 0.9, 0.8]), 12)
    vals = np.stack([f(data[:, 0]) for f in ctx.phi_tilde]).astype(complex)
    np.testing.assert_array_equal(data[:, 1:], np.einsum("nxb,nxb->xn", vals[:, :, 1], np.conj(vals[:, :, 2])).real)


def test_real_function_file_round_trip(tmp_path):
    # every imaginary part in the file is 0: the function comes back real, with the same values
    f = MatrixGaussian(np.random.default_rng(44).standard_normal((6, 3, 3)))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_mg(f, a)
    g = load_mg(a)
    assert g.coeffs.dtype == np.float64
    np.testing.assert_array_equal(g.coeffs, f.coeffs)
    assert main(["transform", str(a), "--k", "2", "--out", str(b)]) == 0
    h = load_mg(b)  # the transform of a real function is complex
    assert h.coeffs.dtype == np.complex128 and h.coeffs.imag.any()
    np.testing.assert_array_equal(h.coeffs, transform_apply(f, 2).coeffs)


def test_transform_missing_file(tmp_path):
    assert main(["transform", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o.json")]) == 2


def test_expand_command(tmp_path, capsys):
    from matschroed.families import FamilySpec, build_family

    ctx = build_family(FamilySpec(1, 2, [1.0]), 4)
    f = ctx.phi_tilde[2].left_mul(np.array([[2.0, 0.0], [1.0, -1.0]]))
    path = tmp_path / "f.json"
    save_mg(f, path)
    out = tmp_path / "e.json"
    rc = main(
        ["expand", "--kind", "1", "--N", "2", "--nu", "1.0", "--nmax", "4", str(path), "--out", str(out)]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    coeffs = np.array(data["coeffs"])  # (n, 4, 2) -> re/im pairs of flattened blocks
    c2 = coeffs[2, :, 0].reshape(2, 2)
    np.testing.assert_allclose(c2, [[2.0, 0.0], [1.0, -1.0]], atol=1e-9)
    others = np.delete(coeffs, 2, axis=0)
    assert np.max(np.abs(others)) < 1e-9


def test_expand_out_of_span_exit_code(tmp_path):
    from matschroed.families import FamilySpec, build_family

    ctx = build_family(FamilySpec(1, 2, [1.0]), 8)
    path = tmp_path / "f.json"
    save_mg(ctx.phi_tilde[8], path)
    args = ["expand", "--kind", "1", "--N", "2", "--nu", "1.0", "--nmax", "4", str(path)]
    assert main(args) == 2
    assert main(args + ["--project", "--out", str(tmp_path / "e.json")]) == 0


def test_matrix_elements_star_pattern(capsys, tmp_path):
    out = tmp_path / "band.csv"
    rc = main(
        [
            "matrix-elements",
            "--kind",
            "1",
            "--N",
            "2",
            "--nu",
            "1.0",
            "--k",
            "1",
            "--nmax",
            "4",
            "--out",
            str(out),
        ]
    )
    printed = capsys.readouterr().out
    assert rc == 0
    rows = [line.split() for line in printed.strip().splitlines()]
    assert len(rows) == 10 and all(len(r) == 10 for r in rows)
    # zero main diagonal, band width two
    for i in range(10):
        assert rows[i][i] == "."
        for j in range(10):
            if abs(i - j) > 2:
                assert rows[i][j] == "."
    assert out.exists()
