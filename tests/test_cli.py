import numpy as np
import pytest

from ddfv.cli import EXIT_CONFIG, EXIT_PROPERTY, main
from ddfv.harness import CSV_HEADER
from ddfv.mesh import build_ddfv, gen_family, read_mesh, write_mesh


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- mesh command -------------------------------------------------------------


def test_mesh_gen_uniform(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "mesh", "gen", "--family", "uniform",
                           "--n", "4", "--out", str(tmp_path))
    assert code == 0
    mesh = read_mesh(tmp_path / "uniform_4.mesh")
    assert mesh.n_cells == 16
    assert "theta_star" in out


def test_mesh_inspect_uniform(tmp_path, capsys):
    run_cli(capsys, "mesh", "gen", "--family", "uniform", "--n", "4",
            "--out", str(tmp_path))
    code, out, _ = run_cli(capsys, "mesh", "inspect", "--mesh",
                           str(tmp_path / "uniform_4.mesh"))
    assert code == 0
    line = [ln for ln in out.splitlines() if "theta interior max" in ln][0]
    assert float(line.split()[-1]) == pytest.approx(1.0)


def test_mesh_gen_kershaw_reports_distortion(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "mesh", "gen", "--family", "kershaw",
                           "--n", "16", "--out", str(tmp_path))
    assert code == 0
    line = [ln for ln in out.splitlines() if ln.startswith("theta_star")][0]
    assert float(line.split()[-1]) > 1.0


def test_mesh_gen_leaves_no_file_for_a_rejected_mesh(tmp_path, capsys):
    # kershaw n=4 at the default distortion fails build_ddfv
    code, out, err = run_cli(capsys, "mesh", "gen", "--family", "kershaw",
                             "--n", "4", "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert "primal and dual edges do not cross" in err
    assert not (tmp_path / "kershaw_4.mesh").exists()
    # a rejected --lam is parsed before the mesh is written
    run_cli(capsys, "mesh", "gen", "--n", "3", "--out", str(tmp_path / "src"))
    source = str(tmp_path / "src" / "quad_3.mesh")
    out_dir = tmp_path / "out"
    for argv in (["mesh", "gen", "--n", "3", "--lam", "wat"],
                 ["mesh", "gen", "--n", "3", "--lam", "diag:1,-1"],
                 ["mesh", "convert", "--mesh", source, "--lam", "wat"]):
        code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "Traceback" not in err, argv
        assert not out_dir.exists(), argv


def test_mesh_convert_round_trip(tmp_path, capsys):
    run_cli(capsys, "mesh", "gen", "--family", "quad", "--n", "3",
            "--out", str(tmp_path))
    code, _, _ = run_cli(capsys, "mesh", "convert", "--mesh",
                         str(tmp_path / "quad_3.mesh"), "--out", str(tmp_path))
    assert code == 0
    a = read_mesh(tmp_path / "quad_3.mesh")
    b = read_mesh(tmp_path / "quad_3_converted.mesh")
    assert np.array_equal(a.vertices, b.vertices)
    assert a.cells == b.cells


def test_mesh_inspect_missing_file(capsys):
    code, _, err = run_cli(capsys, "mesh", "inspect", "--mesh", "/nope.mesh")
    assert code == 2
    assert "error" in err


def test_mesh_with_an_unused_vertex_exits_2(tmp_path, capsys):
    # four corners and a centre vertex that no cell uses
    path = tmp_path / "unused.mesh"
    path.write_text("vertices 5\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n"
                    "cells 1\n4 0 1 2 3\n")
    out_dir = tmp_path / "out"
    for argv in (["mesh", "inspect", "--mesh", str(path)],
                 ["run", "--mesh", str(path), "--out", str(out_dir)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG and out == "", argv
        assert err == "error: vertex 4 belongs to no cell\n", argv
    assert not out_dir.exists()


def test_mesh_inspect_bad_count(tmp_path, capsys):
    path = tmp_path / "bad.mesh"
    path.write_text("vertices 3\n0 0\n1 0\n0 1\ncells 2\n3 0 1 2\n0\n")
    code, _, err = run_cli(capsys, "mesh", "inspect", "--mesh", str(path))
    assert code == EXIT_CONFIG
    assert err.startswith("error: line 7:") and "Traceback" not in err


def test_mesh_actions_read_only_their_own_settings(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "mesh", "gen", "--family", "quad", "--n", "3")
    # generator flags are not settings of inspect, nor --out
    code, out, err = run_cli(capsys, "mesh", "inspect", "--mesh",
                             "quad_3.mesh", "--family", "kershaw", "--n",
                             "99", "--amplitude", "5", "--out", "DIR")
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith("error: ") and "--family kershaw" in err
    assert not (tmp_path / "DIR").exists()
    for argv in (["mesh", "convert", "--mesh", "quad_3.mesh", "--n", "4"],
                 ["mesh", "gen", "--mesh", "quad_3.mesh"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG and out == "", argv
        assert argv[-2] in err, argv
    cfg = tmp_path / "inspect.cfg"
    cfg.write_text("mesh = quad_3.mesh\nn = 99\n")
    code, _, err = run_cli(capsys, "mesh", "inspect", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert err == f"error: {cfg}:2: mesh inspect has no setting 'n'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inspect.cfg",
                                                          "quad_3.mesh"]


# command, stderr prefix, files it leaves
FILE_AND_VALUE_ERRORS = [
    ("check --seed -1", "error: seed must be nonnegative", []),
    ("mesh inspect --mesh adir", "error: [Errno", []),
    ("mesh inspect --mesh ff.bin",
     "error: ff.bin: not an ASCII text file (byte 0xff)", []),
    ("mesh inspect --mesh huge.mesh",
     "error: line 1: vertex count 1000000000000000 exceeds", []),
    ("run --config adir", "error: [Errno", []),
    ("run --config ff.bin", "error: ff.bin: not a text file (byte 0xff)", []),
    ("run --out afile/sub", "error: [Errno", []),
    ("run --n 2 --lam rotated:1,1,nan",
     "error: rotation angle is not finite: nan", []),
    ("run --n 2 --lam matrix:1,0,inf",
     "error: tensor entry (1, 1) is not finite: inf", []),
    ("run --n 2 --lam rotated:inf,1,0",
     "error: tensor entry (0, 0) is not finite: inf", []),
    ("run --n 2 --lam diag:nan,1",
     "error: tensor entry (0, 0) is not finite: nan", []),
    ("run --n 2 --dt 1e-320", "error: dt too small", []),
    # a subnormal dt whose steps fit in t_final: 1 / dt overflows
    ("run --n 4 --dt 1e-320 --tfinal 1e-319",
     "error: dt too small: 1 / dt is not finite", []),
    ("longtime --n 4 --dt 1e-320 --tfinal 1e-319",
     "error: dt too small: 1 / dt is not finite", []),
    ("converge --n0 4 --levels 1 --dt0 1e-320 --tfinal 1e-319",
     "error: dt too small: 1 / dt is not finite", []),
    # at the finest level, dt0 / 4**(levels - 1)
    ("converge --n0 4 --levels 2 --dt0 1e-308 --tfinal 1e-307",
     "error: dt too small: 1 / dt is not finite", []),
    # cells of area 16 on a mesh file: |K| / dt overflows where 1 / dt does not
    ("run --mesh big.mesh --dt 1e-308 --tfinal 1e-307 --out big",
     "error: dt too small: a cell area / dt is not finite", []),
    ("longtime --mesh big.mesh --dt 1e-308 --tfinal 1e-307 --out big",
     "error: dt too small: a cell area / dt is not finite", []),
    # coordinates whose areas overflow (1e320)
    ("run --mesh far160.mesh --out far",
     "error: mesh areas and edge lengths are not all finite normal floats", []),
    # data that overflow on a mesh of side 1e100, rejected before --out
    ("run --mesh far100.mesh --dt 1e-3 --tfinal 2e-3 --out far",
     "error: data of shape (40,) has the non-finite value", []),
    ("longtime --mesh far100.mesh --dt 1e-3 --tfinal 2e-3 --out far",
     "error: data of shape (40,) has the non-finite value", []),
    # coordinates whose areas underflow (1e-320 is subnormal, 1e-340 zero)
    ("mesh inspect --mesh tiny160.mesh",
     "error: mesh areas and edge lengths are not all finite normal floats", []),
    ("mesh inspect --mesh tiny170.mesh",
     "error: mesh areas and edge lengths are not all finite normal floats", []),
    # each setting is checked before --out is made
    ("run --beta 2", "error: penalization exponent 2.0 outside (0, 2)", []),
    ("run --newton-max-iter 0", "error: max_iter must be >= 1", []),
    ("run --family nope", "error: unknown mesh family 'nope'", []),
    ("run --case nope", "error: unknown case 'nope'", []),
    ("run --n 1", "error: n must be >= 2", []),
    ("run --family uniform --n 0", "error: n must be >= 1", []),
    ("run --family kershaw --n 1", "error: n must be >= 2", []),
    ("mesh gen --family kershaw --distortion -1",
     "error: distortion must be nonnegative", []),
    ("mesh inspect", "error: mesh inspect needs --mesh PATH", []),
    ("mesh convert", "error: mesh convert needs --mesh PATH", []),
    ("run --dt nan", "error: dt must be finite and positive", []),
    ("converge --levels 0", "error: levels must be >= 1", []),
    # level 0's mesh is rejected before the run's first state
    ("converge --family kershaw --n0 4 --levels 1",
     "error: edge (8, 13): primal and dual edges do not cross", []),
    ("longtime --tfinal -1", "error: t_final must be finite and positive", []),
    # grids whose solve needs more than the physical memory, rejected
    # before anything is allocated
    ("run --n 100000", "error: n = 100000 is too large", []),
    ("mesh gen --n 100000", "error: n = 100000 is too large", []),
    ("converge --n0 50000 --levels 1", "error: n = 50000 is too large", []),
    # at the finest level, n0 * 2**(levels - 1)
    ("converge --levels 10", "error: n = 4096 is too large", []),
    ("converge --levels 1000000000000", "error: n = 147573952589676412928 "
     "is too large", []),
    ("run --n 100000000000000000000", "error: n = 100000000000000000000 "
     "is too large", []),
    ("longtime --n 100000000000000000000", "error: n = 100000000000000000000 "
     "is too large", []),
    ("mesh gen --n 100000000000000000000", "error: n = 100000000000000000000 "
     "is too large", []),
    ("converge --n0 100000000000000000000 --levels 1",
     "error: n = 100000000000000000000 is too large", []),
]


@pytest.mark.parametrize("argv, prefix, left", FILE_AND_VALUE_ERRORS,
                         ids=[row[0] for row in FILE_AND_VALUE_ERRORS])
def test_file_and_value_errors_exit_2(tmp_path, capsys, monkeypatch, argv,
                                      prefix, left):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "ff.bin").write_bytes(b"\xff\n")
    (tmp_path / "afile").write_text("a regular file\n")
    (tmp_path / "huge.mesh").write_text("vertices 1000000000000000\n0 0\n")
    (tmp_path / "big.mesh").write_text(
        "vertices 9\n0 0\n4 0\n8 0\n0 4\n4 4\n8 4\n0 8\n4 8\n8 8\n"
        "cells 4\n4 0 1 4 3\n4 1 2 5 4\n4 3 4 7 6\n4 4 5 8 7\n")
    for name, side in (("far160", "1e160"), ("tiny160", "1e-160"),
                       ("tiny170", "1e-170")):
        (tmp_path / f"{name}.mesh").write_text(
            f"vertices 4\n0 0\n{side} 0\n{side} {side}\n0 {side}\n"
            "cells 1\n4 0 1 2 3\n")
    # the 2x2 mesh of big.mesh, with side 1e100
    (tmp_path / "far100.mesh").write_text(
        "vertices 9\n" + "".join(f"{x} {y}\n" for y in ("0", "5e99", "1e100")
                                 for x in ("0", "5e99", "1e100"))
        + "cells 4\n4 0 1 4 3\n4 1 2 5 4\n4 3 4 7 6\n4 4 5 8 7\n")
    inputs = {p.name for p in tmp_path.iterdir()}
    code, out, err = run_cli(capsys, *argv.split())
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()
                  if p.name not in inputs) == left


# --- settings a command does not read ------------------------------------------


@pytest.mark.parametrize("argv", [
    ["converge", "--levels", "1", "--n0", "4", "--n", "16"],
    ["converge", "--levels", "1", "--n0", "4", "--dt", "1e-4"],
    ["run", "--n", "4", "--tfinal", "0.004", "--seed", "1"],
    ["check", "--kappa", "5"],
    ["mesh", "gen", "--n", "2", "--dt", "1"],
    # a family argument is read only by its family, and not with --mesh
    ["run", "--family", "uniform", "--n", "4", "--tfinal", "0.008",
     "--amplitude", "0.2"],
    ["run", "--family", "kershaw", "--n", "5", "--tfinal", "0.004",
     "--amplitude", "0.24"],
    ["mesh", "gen", "--family", "quad", "--n", "4", "--distortion", "5"],
    ["converge", "--family", "uniform", "--levels", "1", "--n0", "4",
     "--tfinal", "0.008", "--amplitude", "0.1"],
    ["longtime", "--mesh", "../quad_3.mesh", "--tfinal", "0.01",
     "--distortion", "0.5"],
    # the same, as a config-file key (the message names its flag)
    ["run", "--family", "uniform", "--n", "4", "--tfinal", "0.008",
     "--config", "../amplitude.cfg"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_rejects_flag_the_command_does_not_read(tmp_path, capsys, monkeypatch,
                                                argv):
    # the inputs sit next to the working directory, which stays empty
    write_mesh(gen_family("quad", 3), tmp_path / "quad_3.mesh")
    (tmp_path / "amplitude.cfg").write_text("amplitude = 0.2\n")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and "Traceback" not in err
    assert ("--amplitude" if argv[-2] == "--config" else argv[-2]) in err
    assert out == "" and list(work.iterdir()) == []


@pytest.mark.parametrize("line, message", [
    ("levels 1", "expected 'key = value'"),
    ("n = 16", "converge has no setting 'n'"),
    ("seed = 3", "converge has no setting 'seed'"),
    ("levels = one", "cannot parse value for 'levels'"),
])
def test_config_file_errors_name_the_line(tmp_path, capsys, line, message):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"# one small level\nlevels = 1\nn0 = 4\n{line}\n")
    code, _, err = run_cli(capsys, "converge", "--config", str(cfg),
                           "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert err == f"error: {cfg}:4: {message}\n"


@pytest.mark.parametrize("argv, csv, keys", [
    pytest.param(
        ["converge", "--levels", "2", "--n0", "3", "--dt0", "0.01",
         "--tfinal", "0.02", "--kappa", "0.1", "--lam", "diag:1,0.5",
         "--amplitude", "0.1"],
        "convergence.csv",
        {"out", "case", "family", "levels", "n0", "dt0", "tfinal", "kappa",
         "beta", "lam", "amplitude", "newton_tol", "newton_max_iter"},
        id="converge"),
    pytest.param(
        ["longtime", "--n", "4", "--dt", "0.01", "--tfinal", "0.1",
         "--kappa", "0.1", "--beta", "1.5"],
        "energy_decay.csv",
        {"out", "case", "family", "n", "dt", "tfinal", "kappa", "beta",
         "newton_tol", "newton_max_iter"},
        id="longtime"),
])
def test_effective_config_replays(tmp_path, capsys, argv, csv, keys):
    first, second = tmp_path / "a", tmp_path / "b"
    code, _, _ = run_cli(capsys, *argv, "--out", str(first))
    assert code == 0
    cfg = first / "effective_config"
    # only the settings the command reads (unset optional ones are omitted)
    assert {ln.split(" = ")[0] for ln in cfg.read_text().splitlines()} == keys
    code, _, _ = run_cli(capsys, argv[0], "--config", str(cfg),
                         "--out", str(second))
    assert code == 0
    assert (first / csv).read_bytes() == (second / csv).read_bytes()


# --- run command ----------------------------------------------------------------


def test_run_stationary_case_constant_energy(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "run", "--case", "uniform", "--family",
                           "uniform", "--n", "4", "--dt", "0.01",
                           "--tfinal", "0.05", "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "trace.csv").read_text().splitlines()
    header = rows[0].split(",")
    energies = [float(r.split(",")[header.index("energy")]) for r in rows[1:]]
    assert max(energies) - min(energies) < 1e-12


def test_run_reference_case_invariants(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "run", "--case", "decay", "--family",
                           "quad", "--n", "8", "--dt", "4e-3",
                           "--tfinal", "0.04", "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "trace.csv").read_text().splitlines()
    header = rows[0].split(",")
    mass = [float(r.split(",")[header.index("mass")]) for r in rows[1:]]
    mins = [float(r.split(",")[header.index("min_u")]) for r in rows[2:]]
    assert max(mass) - min(mass) <= 1e-11 * abs(mass[0])
    assert min(mins) > 0.0
    assert "floor activated  False" in out
    h = build_ddfv(gen_family("quad", 8)).h
    assert f"dt/h             {4e-3 / h:.6g}\n" in out

    def column(name):
        return [int(r.split(",")[header.index(name)]) for r in rows[1:]]

    # the first step factorizes; later steps mostly reuse its factor
    iters, facts = column("newton_iters"), column("factorizations")
    assert facts[1] >= 1
    assert all(0 <= f <= i for f, i in zip(facts, iters))
    assert sum(facts) < sum(iters)
    assert column("newton_backtracks") == [0] * len(iters)
    # GMRES iterations, appended as the last column; none before step 1
    assert header[-1] == "krylov_iterations"
    krylov = column("krylov_iterations")
    assert krylov[0] == 0 and min(krylov) >= 0


def test_run_rejects_bad_beta(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--case", "uniform", "--family",
                           "uniform", "--n", "3", "--beta", "3",
                           "--out", str(tmp_path))
    assert code == 2
    assert "(0, 2)" in err
    # non-finite or nonpositive run parameters are config errors as well
    for bad in (
        ["run", "--dt", "nan"], ["run", "--dt", "inf"],
        ["run", "--tfinal", "nan"], ["run", "--tfinal", "-1"],
        ["run", "--kappa", "nan"], ["run", "--kappa", "inf"],
        ["run", "--newton-tol", "nan"],
        ["converge", "--dt0", "nan", "--levels", "1"],
    ):
        size = "--n0" if bad[0] == "converge" else "--n"
        code, _, err = run_cli(capsys, *bad, "--case", "uniform", "--family",
                               "uniform", size, "3", "--out", str(tmp_path))
        assert code == 2, bad
        assert err.startswith("error: ") and "Traceback" not in err, bad
    assert err.startswith("error: dt "), err


def test_run_solver_failure_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--case", "decay", "--family",
                           "quad", "--n", "8", "--dt", "4e-3",
                           "--tfinal", "0.02", "--newton-max-iter", "1",
                           "--out", str(tmp_path))
    assert code == 3
    assert "solver failure" in err


@pytest.mark.parametrize("flags, message", [
    (["--tfinal", "0.04", "--newton-tol", "100"],
     "step 1: energy decay violated by"),
    (["--dt", "1e300", "--tfinal", "1e300"], "step 1: relative mass drift"),
])
def test_run_invariant_violation_exit_code(tmp_path, capsys, flags, message):
    code, out, err = run_cli(capsys, "run", "--n", "4", *flags,
                             "--out", str(tmp_path))
    assert code == EXIT_PROPERTY and out == ""
    assert err.startswith("property failure: " + message), err
    assert not (tmp_path / "trace.csv").exists()
    # the run failed after its first state, so it can be reproduced
    assert (tmp_path / "effective_config").exists()


# ROADMAP item 3: Newton's l1 test cannot pass below the rounding floor of
# rows whose terms scale like 1/dt or kappa h^-beta, so these runs end in
# NoConvergence (exit 3) although each step has a converged answer.  The
# fix of item 3 must remove the markers.
ITEM_3_XFAIL = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 3: Newton stops at a fixed l1 tolerance below "
           "the rows' rounding floor (exit 3)")


@ITEM_3_XFAIL
def test_run_large_kappa_near_beta_2_converges(tmp_path, capsys):
    # last residual 5.108e-9 after 50 iterations
    code, _, err = run_cli(capsys, "run", "--family", "quad", "--n", "16",
                           "--kappa", "1e6", "--beta", "1.99",
                           "--tfinal", "0.05", "--out", str(tmp_path))
    assert code == 0, err


@ITEM_3_XFAIL
def test_run_tiny_dt_converges(tmp_path, capsys):
    # last residual 1.354e-7 after 50 iterations
    code, _, err = run_cli(capsys, "run", "--family", "quad", "--n", "8",
                           "--dt", "1e-9", "--tfinal", "3e-9",
                           "--out", str(tmp_path))
    assert code == 0, err


def test_run_config_round_trip(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    code, _, _ = run_cli(capsys, "run", "--case", "decay", "--family",
                         "quad", "--n", "4", "--dt", "0.004",
                         "--tfinal", "0.02", "--out", str(out1))
    assert code == 0
    cfg = out1 / "effective_config"
    assert cfg.exists()
    code, _, _ = run_cli(capsys, "run", "--config", str(cfg),
                         "--out", str(out2))
    assert code == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


# --- converge command -------------------------------------------------------------


def test_converge_uniform_two_levels(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "converge", "--case", "decay", "--family",
                           "uniform", "--levels", "2", "--n0", "4",
                           "--dt0", "4e-3", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    ordu = lines[2].split(",")[4]
    assert np.isfinite(float(ordu))


def test_converge_constant_case_zero_errors(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "converge", "--case", "uniform", "--family",
                         "uniform", "--levels", "2", "--n0", "3",
                         "--dt0", "0.05", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    for row in lines[1:]:
        assert float(row.split(",")[3]) == 0.0


@pytest.mark.parametrize("flags", [["--lam", "diag:1,0.01"],
                                   ["--tfinal", "0.008"]])
def test_converge_applies_case_overrides(tmp_path, capsys, flags):
    def csv(out, *extra):
        code, _, _ = run_cli(capsys, "converge", "--levels", "1", "--n0", "4",
                             *extra, "--out", str(tmp_path / out))
        assert code == 0
        return (tmp_path / out / "convergence.csv").read_bytes()

    assert csv("plain") != csv("override", *flags)


def test_converge_rejects_mesh_file(tmp_path, capsys):
    run_cli(capsys, "mesh", "gen", "--family", "quad", "--n", "4",
            "--out", str(tmp_path))
    mesh_path = str(tmp_path / "quad_4.mesh")
    code, _, err = run_cli(capsys, "converge", "--levels", "1", "--n0", "4",
                           "--mesh", mesh_path, "--out", str(tmp_path / "c"))
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and "Traceback" not in err
    # the same from a config file
    cfg = tmp_path / "conv.cfg"
    cfg.write_text(f"mesh = {mesh_path}\nlevels = 1\nn0 = 4\n")
    code, _, err = run_cli(capsys, "converge", "--config", str(cfg),
                           "--out", str(tmp_path / "d"))
    assert code == EXIT_CONFIG
    assert err.startswith("error: ")


# --- longtime and check -------------------------------------------------------------


def test_longtime_applies_lam_override(tmp_path, capsys):
    def csv(out, *extra):
        code, _, _ = run_cli(capsys, "longtime", "--n", "4", "--tfinal", "0.1",
                             *extra, "--out", str(tmp_path / out))
        assert code == 0
        return (tmp_path / out / "energy_decay.csv").read_bytes()

    assert csv("plain") != csv("lam", "--lam", "diag:1,0.01")


def test_longtime_stationary_saturates(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "longtime", "--case", "uniform",
                           "--family", "uniform", "--n", "4", "--dt", "0.01",
                           "--tfinal", "0.05", "--out", str(tmp_path))
    assert code == 0
    assert "saturated" in out
    assert (tmp_path / "energy_decay.csv").exists()


def test_longtime_decay_case_decreasing(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "longtime", "--case", "decay",
                           "--family", "quad", "--n", "8", "--dt", "2e-3",
                           "--tfinal", "0.1", "--plot-script",
                           "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "energy_decay.csv").read_text().splitlines()[1:]
    es = [float(r.split(",")[2]) for r in rows]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(es, es[1:]))
    assert (tmp_path / "plot_energy.py").exists()


def test_check_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "check", "--seed", "42")
    code2, out2, _ = run_cli(capsys, "check", "--seed", "42")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count("PASS") == 6


def test_check_failure_exit_code(capsys, monkeypatch):
    import ddfv.selfcheck as sc

    def failing(rng):
        return sc.CheckResult("rigged", False, "forced failure")

    monkeypatch.setattr(sc, "CHECKS", [failing])
    code, out, _ = run_cli(capsys, "check", "--seed", "1")
    assert code == 4
    assert "FAIL" in out
