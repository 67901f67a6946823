"""End-to-end tests of the command-line front end: exit codes, output
files, manifests and determinism."""

import json
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmfrac import cli, dictionary, dynamics, fit, spectrum
from ssmfrac.trajectory import Trajectory

COUETTE_LOGS = (-0.035068, -0.069776, -0.073369, -0.140274, -0.168877)


def write_map_logs(path):
    with open(path, "w") as fh:
        fh.write(",".join(str(v) for v in COUETTE_LOGS) + "\n")
    return str(path)


def couette_spectrum_json(path):
    part = spectrum.SpectralPartition.from_map_logs(
        [COUETTE_LOGS[0]], COUETTE_LOGS[1:])
    part.to_json(path)
    return str(path)


def write_model_data(dirpath, n_traj=3):
    """Map trajectory CSVs generated by a known dictionary model."""
    part = spectrum.SpectralPartition.from_map_logs(
        [COUETTE_LOGS[0]], COUETTE_LOGS[1:])
    d = dictionary.prune_near_integer(
        dictionary.dictionary_map_1d(part, 5), tol=0.05)
    true = np.zeros(len(d))
    true[d.multi_indices.index((1, 0, 0, 0, 0))] = 0.95
    true[d.multi_indices.index((2, 0, 0, 0, 0))] = 0.3
    true[d.multi_indices.index((0, 0, 1, 0, 0))] = -0.2
    os.makedirs(dirpath, exist_ok=True)
    for i, x0 in enumerate((0.05, 0.1, 0.2)[:n_traj]):
        vals = [x0]
        for _ in range(40):
            vals.append(float(d.evaluate([vals[-1]])[0] @ true))
        traj = Trajectory(times=np.arange(41, dtype=float),
                          states=np.array(vals)[:, None], kind="map")
        traj.write_csv(os.path.join(dirpath, f"traj{i}.csv"))
    return true, d


def write_flow_data(dirpath):
    """Flow trajectory CSVs of x' = -x, sampled on a uniform 0.025 grid,
    and the planar spectrum (lam = -1, kappa = -2.5) they are fitted on."""
    spectrum.SpectralPartition(kind="flow", lam=(-1.0,), kappa=(-2.5,)) \
        .to_json(os.path.join(dirpath, "spectrum.json"))
    t = 0.025 * np.arange(161)
    os.makedirs(os.path.join(dirpath, "data"))
    for i, x0 in enumerate((0.3, 0.6, 0.9)):
        Trajectory(times=t, states=x0 * np.exp(-t)[:, None]).write_csv(
            os.path.join(dirpath, "data", f"traj{i}.csv"))


# ---------------------------------------------------------------------------
# start-up: the scipy modules a fresh process loads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("module", ["ssmfrac", "ssmfrac.cli"])
def test_import_loads_no_scipy(fresh_interpreter, module):
    """The package and its command line import with numpy alone; scipy
    loads where a command first needs it, and concurrent.futures where a
    row-block loop first runs on worker threads."""
    assert fresh_interpreter(
        f"import {module}\n"
        "status = sorted(m for m in sys.modules\n"
        "                if m.split('.')[0] == 'concurrent')") == [[], []]


def test_spectrum_command_loads_no_scipy(fresh_interpreter, tmp_path):
    status, loaded = fresh_interpreter(
        "from ssmfrac import cli\n"
        f"status = cli.main(['spectrum', '--testbed', 'mixed3d', "
        f"'--masters', '2', '--outdir', {str(tmp_path / 'out')!r}])")
    assert status == 0 and loaded == []


def test_map_fit_loads_scipy_linalg_alone(fresh_interpreter, tmp_path):
    """A map fit factors its design with scipy.linalg and neither
    integrates nor evaluates a special function."""
    spec_path = couette_spectrum_json(tmp_path / "spectrum.json")
    write_model_data(tmp_path / "data")
    status, loaded = fresh_interpreter(
        "from ssmfrac import cli\n"
        f"status = cli.main(['fit', '--data', {str(tmp_path / 'data')!r}, "
        f"'--spectrum', {spec_path!r}, '--order', '5', '--prune', '0.05', "
        f"'--kind', 'map', '--outdir', {str(tmp_path / 'out')!r}])")
    assert status == 0 and "scipy.linalg" in loaded
    assert [m for m in loaded
            if m.startswith(("scipy.integrate", "scipy.special"))] == []


# ---------------------------------------------------------------------------
# spectrum command
# ---------------------------------------------------------------------------

def test_spectrum_from_map_logs(tmp_path):
    logs = write_map_logs(tmp_path / "logs.csv")
    out = tmp_path / "out"
    code = cli.main(["spectrum", "--map-logs", logs, "--kind", "map",
                     "--outdir", str(out)])
    assert code == 0
    for name in ("spectrum.json", "ratios.csv", "smoothness.json",
                 "manifest.json"):
        assert (out / name).exists()
    smooth = json.loads((out / "smoothness.json").read_text())
    assert smooth["eta"] == 1
    rows = (out / "ratios.csv").read_text().strip().splitlines()[1:]
    ratios = [float(r.split(",")[1]) for r in rows]
    np.testing.assert_allclose(
        ratios, [1.989734, 2.092192, 4.000057, 4.815701], atol=1e-5)


def test_spectrum_from_testbed(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["spectrum", "--testbed", "shaw_pierre",
                     "--masters", "2", "--outdir", str(out)])
    assert code == 0
    part = spectrum.SpectralPartition.from_json(out / "spectrum.json")
    assert (part.p, part.q, part.r, part.s) == (0, 1, 0, 1)


def test_spectrum_ratio_table_has_a_column_per_master(tmp_path):
    """mixed3d with two masters writes the whole quotient matrix: one
    ratio column per master, where a single-master file has one."""
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--testbed", "mixed3d", "--masters", "2",
                     "--outdir", str(out)]) == 0
    part = spectrum.SpectralPartition.from_json(out / "spectrum.json")
    assert (part.p, part.q, part.r, part.s) == (2, 0, 1, 0)
    header, *rows = (out / "ratios.csv").read_text().splitlines()
    assert header == "slaved_index,ratio_1,ratio_2"
    amp, _ = part.quotients()
    assert rows == [f"{i + 1},{a:.6f},{b:.6f}"
                    for i, (a, b) in enumerate(amp.tolist())]
    assert amp[0, 0] * amp[0, 1] < 0   # one quotient per master, not one


def test_spectrum_identity_matrix_is_input_error(tmp_path):
    mat = tmp_path / "m.csv"
    mat.write_text("1.0,0.0\n0.0,1.0\n")
    code = cli.main(["spectrum", "--matrix", str(mat), "--kind", "map",
                     "--masters", "1", "--outdir", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("logs", ["0.0,-0.5,-1.2", "1e-320,-0.5", "800,-0.5",
                                  "-0.1,-800", "-0.1,0.0", "-0.1,1e-12"])
def test_spectrum_degenerate_map_logs_are_input_errors(tmp_path, capsys,
                                                       logs):
    """A multiplier that is critical, or zero or infinite once
    exponentiated, exits 2 before any file is written."""
    path = tmp_path / "logs.csv"
    path.write_text(logs + "\n")
    out = tmp_path / "out"
    code = cli.main(["spectrum", "--map-logs", str(path), "--kind", "map",
                     "--outdir", str(out)])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_singular_map_matrix_is_input_error(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    mat.write_text("0.5,0\n0,0\n")
    out = tmp_path / "out"
    code = cli.main(["spectrum", "--matrix", str(mat), "--kind", "map",
                     "--masters", "1", "--outdir", str(out)])
    assert code == 2
    assert "nonzero" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_repeated_conjugate_pairs(tmp_path):
    mat = tmp_path / "m.csv"
    mat.write_text("-0.1,1,0,0\n-1,-0.1,0,0\n0,0,-0.1,1\n0,0,-1,-0.1\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--matrix", str(mat), "--masters", "2",
                     "--outdir", str(out)]) == 0
    part = spectrum.SpectralPartition.from_json(out / "spectrum.json")
    assert (part.p, part.q, part.r, part.s) == (0, 1, 0, 1)


def test_spectrum_without_source_is_input_error(tmp_path):
    code = cli.main(["spectrum", "--outdir", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("item", ["a=x", "a=nan", "a=inf"])
def test_spectrum_bad_params_is_input_error(tmp_path, capsys, item):
    code = cli.main(["spectrum", "--testbed", "planar", "--params", item,
                     "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert repr(item) in capsys.readouterr().err


def test_spectrum_zero_masters_is_input_error(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    mat.write_text("-1.0,0.0\n0.0,-2.0\n")
    code = cli.main(["spectrum", "--matrix", str(mat), "--masters", "0",
                     "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "master dimension" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["nan,0\n0,-2\n", "abc,0\n0,-2\n"],
                         ids=["nan", "abc"])
def test_spectrum_malformed_matrix_is_input_error(tmp_path, capsys, text):
    """A NaN cell, or a first row that is only partly numeric (not a
    header), is named as such instead of failing later."""
    mat = tmp_path / "m.csv"
    mat.write_text(text)
    code = cli.main(["spectrum", "--matrix", str(mat), "--masters", "1",
                     "--outdir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "m.csv" in err and "square" not in err and "Traceback" not in err


@pytest.mark.parametrize("first", [".5", "+0.5"])
def test_first_row_of_bare_or_signed_numbers_is_data(tmp_path, first):
    """A first line is a header only when none of its fields is a number,
    for trajectories and matrices alike."""
    csv = tmp_path / "traj.csv"
    csv.write_text(f"{first},1.0\n1.5,2.0\n")
    np.testing.assert_array_equal(Trajectory.read_csv(csv).times, [0.5, 1.5])
    mat = tmp_path / "m.csv"
    mat.write_text(f"{first},0\n0,-2\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--matrix", str(mat), "--masters", "1",
                     "--outdir", str(out)]) == 0
    part = spectrum.SpectralPartition.from_json(str(out / "spectrum.json"))
    assert (part.lam, part.kappa) == ((0.5,), (-2.0,))


def test_csv_comments_are_skipped(tmp_path):
    """'#' starts a comment in trajectories and matrices: numpy's
    multi-line savetxt header, comment lines and trailing comments."""
    csv = tmp_path / "traj.csv"
    np.savetxt(csv, [[0.0, 1.0], [0.5, 2.0]], delimiter=",",
               header="t,x1\nwritten by numpy")
    with open(csv, "a") as fh:
        fh.write("# one more\n1.0,3.0  # last row\n")
    traj = Trajectory.read_csv(csv)
    np.testing.assert_array_equal(traj.times, [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(traj.states[:, 0], [1.0, 2.0, 3.0])
    mat = tmp_path / "m.csv"
    mat.write_text("# a diagonal matrix\na,b\n-0.5,0  # master\n"
                   "# slaved row next\n0,-2\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--matrix", str(mat), "--masters", "1",
                     "--outdir", str(out)]) == 0
    part = spectrum.SpectralPartition.from_json(str(out / "spectrum.json"))
    assert (part.lam, part.kappa) == ((-0.5,), (-2.0,))


def test_csv_blank_and_indented_comment_lines_are_skipped(tmp_path):
    """Lines of whitespace alone, or of whitespace before a comment, are
    blank or comment-only lines too, before the header and between rows."""
    csv = tmp_path / "traj.csv"
    csv.write_text("  \n\t# written by hand\nt,x1\n \t\n0.0,1.0\n"
                   "   # between rows\n\f\n0.5,2.0\n  \n")
    traj = Trajectory.read_csv(csv)
    assert traj.kind == "flow"
    np.testing.assert_array_equal(traj.times, [0.0, 0.5])
    np.testing.assert_array_equal(traj.states[:, 0], [1.0, 2.0])


@pytest.mark.parametrize("first", ["nan", "inf"])
def test_non_finite_first_row_is_input_error(tmp_path, capsys, first):
    """A non-finite first row is data, not a header, and exits 2."""
    spec_path = couette_spectrum_json(tmp_path / "spectrum.json")
    data_dir = tmp_path / "data"
    write_model_data(data_dir)
    csv = data_dir / "traj1.csv"
    lines = csv.read_text().splitlines()
    csv.write_text("\n".join([f"{first},0.1"] + lines[2:]) + "\n")
    mat = tmp_path / "m.csv"
    mat.write_text(f"{first},0\n0,-2\n")
    for argv in (["fit", "--data", str(data_dir), "--spectrum", spec_path,
                  "--order", "5", "--prune", "0.05", "--kind", "map"],
                 ["spectrum", "--matrix", str(mat), "--masters", "1"]):
        assert cli.main(argv + ["--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "NaN or infinite" in err and "Traceback" not in err


@pytest.mark.parametrize("config", ["{bad", "[1, 2]", '{"masters": "two"}',
                                    '{"func": 3}', '{"nonsense": 3}',
                                    '{"kind": "neither"}'])
def test_spectrum_bad_config_is_input_error(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    code = cli.main(["spectrum", "--testbed", "planar", "--config", str(cfg),
                     "--outdir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "cfg.json" in err or "config" in err
    assert "Traceback" not in err


def test_spectrum_config_values_take_the_flag_type(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"masters": "2", "testbed": "shaw_pierre"}')
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--testbed", "planar", "--config", str(cfg),
                     "--outdir", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["masters"] == 2 and config["testbed"] == "shaw_pierre"


def test_spectrum_outputs_deterministic(tmp_path):
    logs = write_map_logs(tmp_path / "logs.csv")
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["spectrum", "--map-logs", logs, "--kind", "map",
                         "--outdir", str(out)]) == 0
        outs.append(out)
    for name in ("spectrum.json", "ratios.csv", "smoothness.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# ---------------------------------------------------------------------------
# fit command
# ---------------------------------------------------------------------------

def test_fit_round_trip(tmp_path):
    spec_path = couette_spectrum_json(tmp_path / "spectrum.json")
    data_dir = tmp_path / "data"
    true, d = write_model_data(data_dir)
    out = tmp_path / "out"
    code = cli.main(["fit", "--data", str(data_dir), "--spectrum", spec_path,
                     "--order", "5", "--prune", "0.05", "--kind", "map",
                     "--outdir", str(out)])
    assert code == 0
    model = fit.model_from_json(out / "model.json")
    assert model.kind == "map"
    np.testing.assert_allclose(model.coefficients[:, 0], true, atol=1e-3)
    report = json.loads((out / "report.json").read_text())
    assert report["dictionary_size"] == len(d)
    assert max(report["training_residuals"]) < 1e-10


def test_fit_with_test_data_reports_errors(tmp_path):
    spec_path = couette_spectrum_json(tmp_path / "spectrum.json")
    data_dir = tmp_path / "data"
    write_model_data(data_dir)
    out = tmp_path / "out"
    code = cli.main(["fit", "--data", str(data_dir), "--spectrum", spec_path,
                     "--order", "5", "--prune", "0.05", "--kind", "map",
                     "--test-data", str(data_dir), "--outdir", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["test_mean_relative_errors"]) == 3
    assert max(report["test_mean_relative_errors"]) < 1e-6


def test_fit_flow_with_test_data_reports_errors(tmp_path):
    """Each flow test error is the loaded model's prediction, integrated
    and sampled at the test trajectory's own times, against that
    trajectory."""
    write_flow_data(tmp_path)
    data_dir, out = tmp_path / "data", tmp_path / "out"
    code = cli.main(["fit", "--data", str(data_dir),
                     "--spectrum", str(tmp_path / "spectrum.json"),
                     "--order", "3", "--kind", "flow",
                     "--test-data", str(data_dir), "--outdir", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    model = fit.model_from_json(out / "model.json")
    sys_ = dynamics.FlowSystem(dim=1, f=lambda t, x: model.rhs(x[None])[0])
    expected = []
    for name in ("traj0.csv", "traj1.csv", "traj2.csv"):
        traj = Trajectory.read_csv(data_dir / name)
        pred = dynamics.integrate(sys_, traj.states[0],
                                  (traj.times[0], traj.times[-1]),
                                  t_eval=traj.times)
        expected.append(fit.relative_error(traj, pred)[1])
    assert report["test_mean_relative_errors"] == expected
    assert max(expected) < 1e-6


@pytest.mark.parametrize("map_spectrum, flags",
                         [(False, ["--kind", "map"]), (True, [])],
                         ids=["map_on_flow_spectrum", "flow_on_map_spectrum"])
def test_fit_kind_other_than_the_spectrum_is_input_error(tmp_path, capsys,
                                                          map_spectrum,
                                                          flags):
    """The spectrum's kind fixes a fractional model's kind: --kind map on
    the planar flow spectrum, or t-headed (flow) data on the Couette map
    spectrum, exits 2 and writes no model."""
    write_flow_data(tmp_path)
    spec_path = couette_spectrum_json(tmp_path / "map.json") \
        if map_spectrum else str(tmp_path / "spectrum.json")
    out = tmp_path / "out"
    code = cli.main(["fit", "--data", str(tmp_path / "data"), "--spectrum",
                     spec_path, "--order", "3", *flags, "--outdir", str(out)])
    assert code == 2
    assert not (out / "model.json").exists()
    assert "Traceback" not in capsys.readouterr().err


def test_fit_integer_only(tmp_path):
    spec_path = couette_spectrum_json(tmp_path / "spectrum.json")
    data_dir = tmp_path / "data"
    write_model_data(data_dir)
    out = tmp_path / "out"
    code = cli.main(["fit", "--data", str(data_dir), "--spectrum", spec_path,
                     "--order", "5", "--integer-only", "--kind", "map",
                     "--outdir", str(out)])
    assert code == 0
    model = fit.model_from_json(out / "model.json")
    assert model.dictionary.family == "integer"


def test_fit_integer_only_reads_every_master_column(tmp_path, capsys):
    """One real master and one pair span p + 2q = 3 state columns: the
    integer library fits 3-column data and rejects 2-column data."""
    mu = 0.8 * np.exp(0.5j)
    spec_path = tmp_path / "spectrum.json"
    spectrum.SpectralPartition(kind="map", lam=(0.9,),
                               alpha_omega=((mu.real, mu.imag),),
                               kappa=(0.3,)).to_json(spec_path)
    matrix = np.array([[0.9, 0.0, 0.0], [0.0, mu.real, -mu.imag],
                       [0.0, mu.imag, mu.real]])
    for width, code in ((3, 0), (2, 2)):
        data_dir = tmp_path / f"data{width}"
        data_dir.mkdir()
        for i, x in enumerate(([0.3, 0.2, 0.1], [-0.2, 0.1, -0.25],
                               [0.1, -0.3, 0.2])):
            rows = [np.array(x)]
            for _ in range(30):
                rows.append(matrix @ rows[-1])
            Trajectory(times=np.arange(31.0), states=np.array(rows)[:, :width],
                       kind="map").write_csv(data_dir / f"traj{i}.csv")
        assert cli.main(["fit", "--data", str(data_dir), "--spectrum",
                         str(spec_path), "--order", "2", "--integer-only",
                         "--outdir", str(tmp_path / f"out{width}")]) == code
        assert "Traceback" not in capsys.readouterr().err


def test_fit_map_2d_recovers_the_generating_model(tmp_path):
    """``ssmfrac fit`` over a map_2d library, which it fits in its real
    form, recovers the coefficients of data iterated from a model in the
    library's span, and reports the condition number of the column-scaled
    complex design."""
    mu, sigma = 0.9 * np.exp(0.7j), 0.9 ** 1.3 * np.exp(1.9j)
    part = spectrum.SpectralPartition(kind="map",
                                      alpha_omega=((mu.real, mu.imag),),
                                      beta_nu=((sigma.real, sigma.imag),))
    spec_path = tmp_path / "spectrum.json"
    part.to_json(spec_path)
    d = dictionary.dictionary_map_2d(part, 3)
    rng = np.random.default_rng(11)
    truth = 0.02 * (rng.normal(size=len(d)) + 1j * rng.normal(size=len(d)))
    truth[d.multi_indices.index((1, 0, 0, 0))] = mu
    data = tmp_path / "data"
    data.mkdir()
    samples = []
    for j in range(6):
        z = [(0.1 + 0.2 * rng.random()) * np.exp(2j * np.pi * rng.random())]
        for _ in range(60):
            z.append(d.evaluate(z[-1:])[0] @ truth)
        z = np.array(z)
        samples.append(z[:-1])
        Trajectory(times=np.arange(61.0), states=np.column_stack(
            [z.real, z.imag]), kind="map").write_csv(data / f"traj{j}.csv")
    out = tmp_path / "out"
    assert cli.main(["fit", "--data", str(data), "--spectrum",
                     str(spec_path), "--order", "3", "--kind", "map",
                     "--outdir", str(out)]) == 0
    model = fit.model_from_json(out / "model.json")
    np.testing.assert_allclose(model.coefficients[:, 0], truth, rtol=0,
                               atol=1e-12)
    design = d.evaluate(np.concatenate(samples))
    scaled = design / np.sqrt(np.mean(np.abs(design) ** 2, axis=0))
    report = json.loads((out / "report.json").read_text())
    assert report["condition_number"] == pytest.approx(
        np.linalg.cond(scaled), rel=1e-9)


def test_fit_empty_data_dir_is_input_error(tmp_path):
    spec_path = couette_spectrum_json(tmp_path / "spectrum.json")
    empty = tmp_path / "empty"
    empty.mkdir()
    code = cli.main(["fit", "--data", str(empty), "--spectrum", spec_path,
                     "--outdir", str(tmp_path / "out")])
    assert code == 2


def test_fit_rank_deficient_is_numerical_error(tmp_path):
    spec_path = couette_spectrum_json(tmp_path / "spectrum.json")
    data_dir = tmp_path / "data"
    write_model_data(data_dir)
    out = tmp_path / "out"
    # without pruning the near-integer columns collide at ridge 0
    code = cli.main(["fit", "--data", str(data_dir), "--spectrum", spec_path,
                     "--order", "5", "--kind", "map", "--outdir", str(out)])
    assert code == 3


@pytest.mark.parametrize("flags", [("--order", "-1"), ("--order", "0"),
                                   ("--ridge", "-1"), ("--ridge", "nan"),
                                   ("--ridge", "inf"), ("--order", "nan"),
                                   ("--order", "inf"), ("--prune", "nan")])
def test_fit_meaningless_settings_are_input_errors(tmp_path, flags):
    """A dictionary without terms, a negative ridge or a NaN or infinite
    setting (which comparisons false for NaN would let through) defines no
    model."""
    spec_path = couette_spectrum_json(tmp_path / "spectrum.json")
    data_dir = tmp_path / "data"
    write_model_data(data_dir)
    argv = ["fit", "--data", str(data_dir), "--spectrum", spec_path,
            "--order", "5", "--prune", "0.05", "--kind", "map",
            "--outdir", str(tmp_path / "out")]
    assert cli.main(argv + list(flags)) == 2
    if flags[0] != "--prune":           # --integer-only does not prune
        assert cli.main(argv + list(flags) + ["--integer-only"]) == 2


def test_fit_on_two_real_masters_is_input_error(tmp_path, capsys):
    """No fractional family fits a p = 2 master block."""
    spec_path = tmp_path / "spectrum.json"
    spectrum.SpectralPartition(kind="map", lam=(0.9, 0.8),
                               kappa=(0.3,)).to_json(spec_path)
    data_dir = tmp_path / "data"
    write_model_data(data_dir)
    code = cli.main(["fit", "--data", str(data_dir), "--spectrum",
                     str(spec_path), "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_fit_non_json_spectrum_is_input_error(tmp_path, capsys):
    bad = tmp_path / "spectrum.json"
    bad.write_text("1.0,2.0\n")
    data_dir = tmp_path / "data"
    write_model_data(data_dir)
    code = cli.main(["fit", "--data", str(data_dir), "--spectrum", str(bad),
                     "--outdir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("doc", ["{}", '{"kind": "map", "lambda": ["x"]}',
                                 "[1]"], ids=["no-kind", "text-lambda",
                                              "array"])
def test_fit_malformed_spectrum_is_input_error(tmp_path, capsys, doc):
    bad = tmp_path / "spectrum.json"
    bad.write_text(doc)
    data_dir = tmp_path / "data"
    write_model_data(data_dir)
    code = cli.main(["fit", "--data", str(data_dir), "--spectrum", str(bad),
                     "--outdir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "spectrum document" in err and "Traceback" not in err


@pytest.mark.parametrize("cell", ["abc", "nan"])
def test_fit_bad_data_cell_is_input_error(tmp_path, capsys, cell):
    """A non-numeric or NaN state cell is rejected before any fit runs."""
    spec_path = couette_spectrum_json(tmp_path / "spectrum.json")
    data_dir = tmp_path / "data"
    write_model_data(data_dir)
    csv = data_dir / "traj1.csv"
    lines = csv.read_text().splitlines()
    lines[5] = lines[5].split(",")[0] + "," + cell
    csv.write_text("\n".join(lines) + "\n")
    code = cli.main(["fit", "--data", str(data_dir), "--spectrum", spec_path,
                     "--order", "5", "--prune", "0.05", "--kind", "map",
                     "--outdir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "traj1.csv" in err and "Traceback" not in err


def test_fit_config_overrides_flags(tmp_path):
    spec_path = couette_spectrum_json(tmp_path / "spectrum.json")
    data_dir = tmp_path / "data"
    write_model_data(data_dir)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"prune": 0.05}))
    out = tmp_path / "out"
    code = cli.main(["fit", "--data", str(data_dir), "--spectrum", spec_path,
                     "--order", "5", "--kind", "map", "--outdir", str(out),
                     "--config", str(cfg)])
    assert code == 0


# ---------------------------------------------------------------------------
# reproduce command
# ---------------------------------------------------------------------------

def test_reproduce_unknown_example(tmp_path):
    code = cli.main(["reproduce", "nonsense",
                     "--outdir", str(tmp_path / "out")])
    assert code == 2


def test_reproduce_mixed3d(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["reproduce", "mixed3d", "--outdir", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in captured and "[FAIL]" not in captured
    checks = json.loads((out / "checks.json").read_text())
    assert all(entry["passed"] for entry in checks)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "reproduce"
    assert "checks.json" in manifest["outputs"]


def test_reproduce_config_example_sets_default_outdir(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text('{"example": "mixed3d"}')
    assert cli.main(["reproduce", "planar", "--config", "cfg.json"]) == 0
    assert (tmp_path / "reproduce_mixed3d" / "graph_coefficients.csv").exists()
    assert not (tmp_path / "reproduce_planar").exists()


def test_reproduce_planar(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["reproduce", "planar", "--outdir", str(out)])
    assert code == 0
    assert (out / "error_table.csv").exists()
    checks = json.loads((out / "checks.json").read_text())
    assert all(entry["passed"] for entry in checks)


def test_reproduce_sp_unforced(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["reproduce", "shaw_pierre_unforced",
                     "--outdir", str(out)])
    assert code == 0
    checks = json.loads((out / "checks.json").read_text())
    assert all(entry["passed"] for entry in checks)


# ---------------------------------------------------------------------------
# fuzz: documented exit codes for any file contents
# ---------------------------------------------------------------------------

EXIT_CODES = {0, 1, 2, 3}

# values of the wrong type, non-finite or out of range for any setting
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
JUNK_KEYS = st.dictionaries(st.text(max_size=6), JUNK, max_size=1)
# eigenvalue entries, the degenerate ones first (hypothesis favours them)
RATE = st.one_of(st.sampled_from([0.0, 1.0, -1e-9, 1e-300, 1e300,
                                  float("nan"), float("inf"), -0.5, 0.5]),
                 st.floats(-3.0, 3.0))


@st.composite
def spectrum_documents(draw):
    """A spectrum document shaped for a 1D or 2D library, with up to two
    keys dropped or given junk values, or junk in place of the object."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    pair = st.lists(RATE, min_size=2, max_size=2)
    doc = draw(st.fixed_dictionaries({
        "kind": st.sampled_from(["map", "flow"]),
        "lambda": st.lists(RATE, max_size=2),
        "alpha_omega": st.lists(pair, max_size=1),
        "kappa": st.lists(RATE, max_size=3),
        "beta_nu": st.lists(pair, max_size=2)}))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from([*doc, "p", "q", "r", "s", "extra"]))
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(JUNK)
    return doc


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A valid spectrum file and map-trajectory directory to vary."""
    base = tmp_path_factory.mktemp("fuzz")
    write_model_data(base / "data")
    return SimpleNamespace(base=str(base), data=str(base / "data"),
                           spectrum=couette_spectrum_json(base / "s.json"))


def run_cli(argv):
    code = cli.main(argv)
    assert code in EXIT_CODES
    return code


def fit_argv(inputs, work, spectrum_path=None, data=None):
    return ["fit", "--data", data or inputs.data,
            "--spectrum", spectrum_path or inputs.spectrum,
            "--order", "3", "--kind", "map", "--ridge", "1e-8",
            "--outdir", os.path.join(work, "out")]


@settings(max_examples=40, deadline=None)
@given(doc=spectrum_documents())
def test_fuzz_spectrum_document(fuzz_inputs, doc):
    with tempfile.TemporaryDirectory(dir=fuzz_inputs.base) as work:
        path = os.path.join(work, "s.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        run_cli(fit_argv(fuzz_inputs, work, spectrum_path=path))


@settings(max_examples=40, deadline=None)
@given(config=st.fixed_dictionaries({}, optional={
    "testbed": st.one_of(st.sampled_from(["planar", "mixed3d", "shaw_pierre",
                                          "lorenz"]), JUNK),
    "params": st.one_of(st.sampled_from(["a=2", "c=0.5,b=1", "a=-1", "x=1",
                                         "a", "gamma=0,A=1"]), JUNK),
    "kind": st.one_of(st.sampled_from(["flow", "map"]), JUNK),
    "masters": st.one_of(st.integers(-1, 5), JUNK),
    "matrix": JUNK, "map_logs": JUNK}).flatmap(
    lambda d: JUNK_KEYS.map(lambda extra: {**extra, **d})))
def test_fuzz_spectrum_config(fuzz_inputs, config):
    with tempfile.TemporaryDirectory(dir=fuzz_inputs.base) as work:
        path = os.path.join(work, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        run_cli(["spectrum", "--testbed", "planar", "--config", path,
                 "--outdir", os.path.join(work, "out")])


# log-moduli that are exactly critical, or zero, subnormal or infinite once
# exponentiated, first
MAP_LOG = st.one_of(st.sampled_from([0.0, 1e-320, -1e-320, 800.0, -800.0,
                                     1e-12, -1e-12]),
                    st.floats(-5.0, 5.0))
ENTRY = st.one_of(st.sampled_from([0.0, 1.0, -1.0, -0.1]),
                  st.floats(-3.0, 3.0))


@st.composite
def spectrum_sources(draw):
    """Arguments for a spectrum run: a map-logs vector, or a small flow or
    map matrix, possibly with a zero row or two copies of one 2 x 2
    block, plus the CSV text to write."""
    if draw(st.booleans()):
        logs = draw(st.lists(MAP_LOG, min_size=2, max_size=5))
        return ["--map-logs", "--kind", "map"], ",".join(map(repr, logs))
    if draw(st.booleans()):
        block = np.array(draw(st.lists(ENTRY, min_size=4, max_size=4)))
        A = np.kron(np.eye(2), block.reshape(2, 2))
    else:
        n = draw(st.integers(1, 4))
        A = np.array(draw(st.lists(ENTRY, min_size=n * n, max_size=n * n)))
        A = A.reshape(n, n)
    if draw(st.booleans()):
        A[draw(st.integers(0, len(A) - 1))] = 0.0
    kind = draw(st.sampled_from(["flow", "map"]))
    masters = draw(st.integers(1, len(A)))
    text = "\n".join(",".join(map(repr, row)) for row in A.tolist())
    return ["--matrix", "--kind", kind, "--masters", str(masters)], text


@settings(max_examples=80, deadline=None)
@given(source=spectrum_sources())
def test_fuzz_spectrum_numbers(fuzz_inputs, source):
    """Any spectrum, degenerate or not, ends in a documented exit code;
    an uncaught exception would propagate out of cli.main."""
    (flag, *rest), text = source
    with tempfile.TemporaryDirectory(dir=fuzz_inputs.base) as work:
        path = os.path.join(work, "in.csv")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        run_cli(["spectrum", flag, path, *rest,
                 "--outdir", os.path.join(work, "out")])


SETTINGS = st.sampled_from([-1, 0, 1e-8, 0.05, 3, "3", float("nan"),
                            float("inf"), None, True, "x", [3]])
# any finite order: a library above dictionary.MAX_TERMS terms exits 2
ORDERS = st.one_of(SETTINGS, st.just(1e6),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=30, deadline=None)
@given(config=st.fixed_dictionaries({}, optional={
    "order": ORDERS, "prune": SETTINGS, "ridge": SETTINGS,
    "kind": st.one_of(st.sampled_from(["flow", "map"]), JUNK),
    "integer_only": st.one_of(st.booleans(), JUNK)}).flatmap(
    lambda d: JUNK_KEYS.map(lambda extra: {**extra, **d})))
def test_fuzz_fit_config(fuzz_inputs, config):
    with tempfile.TemporaryDirectory(dir=fuzz_inputs.base) as work:
        path = os.path.join(work, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        run_cli(fit_argv(fuzz_inputs, work) + ["--config", path])


@settings(max_examples=30, deadline=None)
@given(row=st.integers(0, 41), col=st.integers(0, 2),
       cell=st.one_of(st.text(max_size=8), st.sampled_from(
           ["", "nan", "-inf", "1e999", "0x10", "1_0", " 2 ", "1,2"])))
def test_fuzz_trajectory_cell(fuzz_inputs, row, col, cell):
    with tempfile.TemporaryDirectory(dir=fuzz_inputs.base) as work:
        data = os.path.join(work, "data")
        os.makedirs(data)
        for name in sorted(os.listdir(fuzz_inputs.data)):
            with open(os.path.join(fuzz_inputs.data, name)) as fh:
                lines = fh.read().splitlines()
            if name == "traj1.csv":
                cells = lines[row].split(",")
                cells[min(col, len(cells) - 1)] = cell
                lines[row] = ",".join(cells)
            with open(os.path.join(data, name), "w") as fh:
                fh.write("\n".join(lines) + "\n")
        run_cli(fit_argv(fuzz_inputs, work, data=data))
