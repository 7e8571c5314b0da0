import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matschroed.cli import (
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
    "data, field",
    [
        ({**GOOD, "degree": 2}, "'degree'"),  # more degrees than matrices
        ({**GOOD, "coeffs": [[[1.0, 0.0]] * 4, [[0.5, -0.5]] * 3]}, "'coeffs'"),  # ragged matrices
        ({**GOOD, "coeffs": [[[1.0, 0.0]] * 3, [[0.5, -0.5]] * 3]}, "'coeffs'"),  # fewer than N^2 entries
        ({**GOOD, "coeffs": [[[1.0, 0.0]] * 4] * 3}, "'degree'"),  # more matrices than degree + 1
        ({**GOOD, "coeffs": [[[float("nan"), 0.0]] * 4, [[0.5, -0.5]] * 4]}, "'coeffs'"),
        ([1, 2], "JSON object, got list"),  # not an object: no field to read
        (None, "JSON object, got NoneType"),
    ],
    ids=["degree-too-large", "ragged", "short-matrix", "extra-matrix", "nan", "list", "null"],
)
def test_mg_from_dict_rejects_bad_input(tmp_path, capsys, data, field):
    assert mg_from_dict(GOOD).degree == 1
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
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


def test_check_rejects_a_product_table_past_the_double_range():
    # R^{-1} peaks at 5e307, finite, but T = band R^{-1} overflows, and an SVD of inf does not return: run in a
    # child with a timeout, so that a regression fails instead of hanging
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "matschroed.cli", "check", "--kind", "1", "--N", "3",
         "--nu", "1e154,1e154", "--nmax", "8"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == "error: kind 1, N=3, nu=(1e+154, 1e+154), the product table T = band R^{-1} leaves the " \
                         "double range\n"


def run_check(*args):
    """`matschroed check` in a child with RuntimeWarnings as errors and a timeout, so that a hang fails, not waits."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "matschroed.cli", "check", *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=30,
    )


def assert_exit_rule(out):
    """Exit 0, 1 or 2, never a traceback, and one `error:` line on exit 2."""
    assert out.returncode in (0, 1, 2) and "Traceback" not in out.stderr, out.stderr
    if out.returncode == 2:
        assert [line.split(":")[0] for line in out.stderr.splitlines()] == ["error"], out.stderr


@pytest.mark.parametrize(
    "args, printed, error",
    [
        # the Frobenius norm of the pinned rows squares 1e160 to inf, and an SVD of inf does not return
        ("--kind 1 --N 3 --nu 1,1e160 --nmax 4", 0, "the pinned degree condition of row 1 leaves the double range"),
        ("--kind 2 --N 3 --nu 1,1e160 --nmax 4", 0, "the pinned degree condition of row 1 leaves the double range"),
        ("--kind 1 --N 4 --nu 1,1,1e200 --nmax 4", 0, "the pinned degree condition of row 1 leaves the double range"),
        # a ConsistencyError: the spec is outside the range the build can solve
        ("--kind 1 --N 3 --nu 1e50,1e50 --nmax 8", 0, "n=0, row 0: degree condition leaves a 2-dimensional"),
        # the family builds, and its lines up to real_integral print; gamma_n = 1 + n nu^2 / 2 does not fit a double
        ("--kind 1 --N 2 --nu 1e155 --nmax 4", 4, "gamma_n leaves the double range"),
    ],
    ids=["pin-kind1", "pin-kind2", "pin-N4", "consistency", "gamma"],
)
def test_check_exits_2_with_one_error_line(args, printed, error):
    out = run_check(*args.split())
    assert_exit_rule(out)
    assert out.returncode == 2 and error in out.stderr, out.stderr
    assert len(out.stdout.splitlines()) == printed


def nu_entries():
    """Signed, of magnitude log-uniform in 1e-300..1e300, or normal(0, 3), with equal odds."""
    log_uniform = st.builds(lambda e, s: s * 10.0**e, st.floats(-300.0, 300.0), st.sampled_from((-1.0, 1.0)))
    return st.one_of(log_uniform, st.floats(1e-9, 1.0 - 1e-9).map(statistics.NormalDist(0.0, 3.0).inv_cdf))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(("1", "2")), st.lists(nu_entries(), max_size=7), st.integers(0, 30))
def test_check_exits_0_1_or_2_on_any_spec(kind, nu, n_max):
    # ROADMAP item 10's spec distribution; with hypothesis 6.155, 3 of the 15 derandomized examples exit 2
    args = ["--kind", kind, "--N", str(len(nu) + 1), "--nmax", str(n_max)]
    assert_exit_rule(run_check(*args, *([f"--nu={','.join(map(repr, nu))}"] if nu else [])))


@pytest.mark.parametrize("n_max", [800, 1500])
@pytest.mark.parametrize("kind, N", [(1, 3), (1, 8), (2, 3), (2, 8)])
def test_check_passes_where_psi_has_mass_past_the_underflow(kind, N, n_max):
    # from n_max + D near 690 the psi_m have mass past |x| = 38, where e^{-x^2/2} underflows; the trapezoid lines
    # read 0.15 to 0.33 there before psi was scaled.  Kind 2, N=8 at nu = +-0.8 stops building at n = 248, so 0.1.
    v = 0.1 if (kind, N) == (2, 8) else 0.8
    nu = ",".join(str(v * (-1) ** j) for j in range(N - 1))
    assert main(["check", "--kind", str(kind), "--N", str(N), f"--nu={nu}", "--nmax", str(n_max)]) == 0


def test_check_does_not_pass_a_build_that_is_not_orthonormal(capsys):
    # rows barely determined (null_margin 1.4e-13): the build returns alpha with an orthonormality residual of 1.4e-6
    # from n = 8 and raises nothing, so check must fail it; exit 2 holds too, should the build raise instead
    nu = "3.234536205490036,-3.0548702620057124,9.637602694251615e-224,4.179121811283366,1846111315.1730225"
    code = main(["check", "--kind", "2", "--N", "6", f"--nu={nu}", "--nmax", "21"])
    assert code in (1, 2)
    if code == 1:
        assert "FAIL  orthonormality" in capsys.readouterr().out


def test_check_loads_no_numpy_random_and_is_seeded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, matschroed.cli as cli; "
        "code = cli.main(['check', '--kind', '2', '--N', '3', '--nu=0.8,-1.3', '--nmax', '6']); "
        "print('numpy.random' in sys.modules, code)"
    )
    outs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    assert outs[0].splitlines()[-1] == "False 0"
    assert outs[0] == outs[1]


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
        ["--kind", "1", "--N", "1"],
        ["--kind", "2", "--N", "1", "--nmax", "0"],
        ["--kind", "1", "--N", "3", "--nu", "0.8,-1.3", "--nmax", "0"],
        ["--kind", "2", "--N", "2", "--nu", "1.0", "--nmax", "0"],
        # n! leaves the double range from n = 171; the norms_N2 line compares logs
        *(["--kind", kind, "--N", "2", "--nu", "1.0", "--nmax", n_max]
          for kind in "12" for n_max in ("175", "250", "330")),
        # Phi_n = ||P_n|| Phi-tilde_n leaves it near n = 340; every line reads alpha or Phi-tilde_n
        *(["--kind", kind, "--N", "2", "--nu", "1.0", "--nmax", "345"] for kind in "12"),
        ["--kind", "1", "--N", "8", "--nu", ",".join(["0.8"] * 7), "--nmax", "400"],
    ],
)
def test_check_passes(capsys, family_args):
    rc = main(["check", "--nmax", "6", *family_args])  # a later --nmax in family_args wins
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    N = int(family_args[family_args.index("--N") + 1])
    n_max = int(family_args[family_args.index("--nmax") + 1]) if "--nmax" in family_args else 6
    expected = ["orthonormality", "schrodinger", "fourier_eigen", "real_integral"]
    expected += ["closed_form_N2", "norms_N2"] * (N == 2) + ["three_term"] * (n_max > 0)  # none at n_max = 0
    assert [line.split()[1] for line in out.splitlines() if line.startswith("PASS ")] == [
        *expected, "expand_reconstruct_roundtrip"]


def test_check_scales_unnormalized_lines():
    # Phi_10 of this family reaches ~8e3 on [-3, 3]; every line reads Phi-tilde_n,
    # which stays below 1 in size, so the pointwise lines are absolute
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
    for entry in ("1", "1,2,3", "a,b"):  # not two integers
        capsys.readouterr()
        assert main(["density", "--kind", "1", "--N", "2", "--nu", "1.0", "--entry", entry]) == 2
        assert capsys.readouterr().err == f"error: --entry must be two integers i,j, got '{entry}'\n"
    # malformed specs, an R^{-1} past the double range and a negative --nmax: a usage error, never a traceback
    capsys.readouterr()
    bad = ["[1]", '{"kind":1,"N":2,"nu":5}', '{"kind":1,"N":"2","nu":[1]}', '{"kind":1,"N":2,"nu":null}',
           '{"kind":true,"N":true,"nu":[]}', '{"kind":2.0,"N":2,"nu":[1]}', '{"kind":1,"N":2.0,"nu":[1]}',
           '{"kind":1,"N":2,"nu":[true]}']
    for spec in bad:
        assert main(["check", "--spec", spec]) == 2
    assert main(["check", "--kind", "1", "--N", "3", "--nu", "1e155,1e155"]) == 2
    assert main(["matrix-elements", "--kind", "1", "--N", "2", "--nu", "1.0", "--nmax", "-1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["error"] * 10, err
    assert "JSON object" in err[0] and "nu must be" in err[1] and "size must be" in err[2] and "nu must be" in err[3]
    assert "kind must be" in err[4] and "kind must be" in err[5] and "size must be" in err[6] and "nu must be" in err[7]
    assert "R^{-1} leaves the double range" in err[8] and "n_max must be in 0..0" in err[9]
    # a tolerance that is not a positive finite number: every line would read PASS (inf) or FAIL (nan, 0, < 0)
    capsys.readouterr()
    for tol in ("inf", "nan", "0", "-1e-9"):
        assert main(["check", "--kind", "1", "--N", "2", "--nu", "1.0", "--nmax", "2", f"--tol={tol}"]) == 2
        assert main(["matrix-elements", "--kind", "1", "--N", "2", "--nu", "1.0", f"--tol={tol}"]) == 2
        err = capsys.readouterr().err
        assert err.count("--tol must be a positive finite number") == 2, err
    # 1e12 points: numpy cannot allocate them, and exit 1 would claim a failing check
    assert main(["density", "--kind", "1", "--N", "2", "--nu", "1", "--grid=0:1e9:1e-3"]) == 2
    assert capsys.readouterr().err == "error: grid 0:1e9:1e-3 has 1000000000001 points, too many to allocate\n"
    # grids numpy cannot size: a bound or step that is not finite, or more points than its index range holds
    for grid in ("0:inf:1e-3", "-inf:0:1", "0:1:nan"):
        assert main(["density", "--kind", "1", "--N", "2", "--nu", "1", f"--grid={grid}"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: grid {grid} needs a finite lo, hi and step, with hi + step and hi - lo + step finite\n"
    assert main(["density", "--kind", "1", "--N", "2", "--nu", "1", "--grid=0:1e300:1e-300"]) == 2
    assert capsys.readouterr().err == "error: grid 0:1e300:1e-300 has more than 10^18 points, too many to allocate\n"


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
