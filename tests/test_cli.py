import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import covertsense
from covertsense import cli
from covertsense.cli import main

THETA3 = "[0.6283185307179586,1.5707963267948966,2.5132741228718345]"
FAST = ["--shots", "100", "--set", "compute_qcrb=false"]


def run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def test_fig3_csv_byte_identical_reruns(tmp_path):
    args = ["fig3", *FAST, "--set", f"theta_grid={THETA3}"]
    out = [run([*args, "--out", str(tmp_path / f"{i}.csv")]) for i in range(2)]
    assert all(r.exit_code == 0 for r in out)
    a, b = (tmp_path / "0.csv").read_bytes(), (tmp_path / "1.csv").read_bytes()
    assert a == b
    text = a.decode()
    assert text.startswith("# covertsense")
    assert "# config:" in text
    assert text.count("\n") > 6  # header + 6 data rows


def test_fig3_seed_changes_output(tmp_path):
    args = ["fig3", *FAST, "--set", f"theta_grid={THETA3}"]
    run([*args, "--seed", "1", "--out", str(tmp_path / "a.csv")])
    run([*args, "--seed", "2", "--out", str(tmp_path / "b.csv")])
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


def test_fig3_monte_carlo_row_columns(tmp_path):
    res = run(["fig3", "--shots", "100", "--set", f"theta_grid={THETA3}",
               "--out", str(tmp_path / "f.csv")])
    assert res.exit_code == 0
    rows = list(csv.DictReader(
        l for l in (tmp_path / "f.csv").read_text().splitlines() if not l.startswith("#")
    ))
    assert list(rows[0]) == [
        "variant", "theta", "N_S", "N_B", "M", "mse_cos", "mse_theta", "theory_mse_cos",
        "theory_mse", "qcrb", "seed", "rms_cos", "rms_theta", "stderr",
    ]
    assert len(rows) == 6
    for row in rows:
        assert 0.0 < float(row["qcrb"]) < math.inf
        assert float(row["rms_theta"]) == math.sqrt(float(row["mse_theta"]))


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    exec(block.split("```", 1)[0], {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3
    assert all(0.0 < float(v) < math.inf for v in printed)


def test_json_format_mirrors_csv_rows(tmp_path):
    res = run(["fig3", *FAST, "--set", f"theta_grid={THETA3}", "--format", "json",
               "--out", str(tmp_path / "f.json")])
    assert res.exit_code == 0
    doc = json.loads((tmp_path / "f.json").read_text())
    assert doc["command"] == "fig3"
    assert len(doc["rows"]) == 6
    assert doc["config"]["shots"] == 100


def test_unknown_config_key_rejected():
    res = CliRunner().invoke(main, ["fig3", "--set", "bogus=1"])
    assert res.exit_code == 2
    assert "unknown config key" in res.output


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"shots": 50, "scenario": {"N_B": 80.0}}))
    res = run(["covertness", "--config", str(cfg), "--set", "scenario.N_B=320.0",
               "--out", str(tmp_path / "c.csv")])
    assert res.exit_code == 0
    text = (tmp_path / "c.csv").read_text()
    header = json.loads(text.splitlines()[2].removeprefix("# config: "))
    assert header["scenario"]["N_B"] == 320.0  # flag beats file
    assert header["shots"] == 50  # file beats default


def test_covertness_ladder_columns(tmp_path):
    res = run(["covertness", "--set", 'grid={"N_S":[0.0008,0.0016]}',
               "--out", str(tmp_path / "c.csv")])
    assert res.exit_code == 0
    lines = [l for l in (tmp_path / "c.csv").read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    for row in lines[1:]:
        vals = dict(zip(header, row.split(",")))
        assert float(vals["pe_lower"]) <= float(vals["pe_exact"]) <= 0.5


def test_qcrb_zero_probe_row(tmp_path):
    res = run(["qcrb", "--set", 'grid={"N_S":[0.0]}', "--out", str(tmp_path / "q.csv")])
    assert res.exit_code == 0
    lines = [l for l in (tmp_path / "q.csv").read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["J"]) == 0.0
    assert row["qcrb"] == "inf"


def test_qcrb_zero_background_rows(tmp_path):
    res = run(["qcrb", "--set", "scenario.N_B=0", "--out", str(tmp_path / "q.csv")])
    assert res.exit_code == 0
    lines = [l for l in (tmp_path / "q.csv").read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [r["variant"] for r in rows] == ["entangled", "classical_thermal"]
    assert all(float(r["J"]) > 0.0 for r in rows)


def test_sweep_failing_point_sets_exit_code(tmp_path):
    # W*T = 1 mode: the CLT guard refuses this point, the other succeeds
    res = CliRunner().invoke(
        main,
        ["sweep", *FAST, "--set", 'grid={"W":[8.0e3,1.0e9]}',
         "--out", str(tmp_path / "s.csv")],
    )
    assert res.exit_code == 1
    assert "FAILED" in res.stderr
    kept = [l for l in (tmp_path / "s.csv").read_text().splitlines() if not l.startswith("#")]
    # only the entangled point at W=8e3 trips the guard (the classical
    # variant's bright reference keeps its arm counts above it)
    assert len(kept) == 1 + 3


def test_sweep_failing_bounds_fail_only_their_points(tmp_path):
    # N_B = 0: the relative entropy against a vacuum null state is infinite
    res = CliRunner().invoke(
        main,
        ["sweep", *FAST, "--set", 'grid={"N_B":[0.0,160.0]}',
         "--out", str(tmp_path / "s.csv")],
    )
    assert res.exit_code == 1
    failed = [l for l in res.stderr.splitlines() if l.startswith("FAILED")]
    assert len(failed) == 2
    assert all(l.startswith("FAILED N_B=0 variant=") for l in failed)
    lines = [l for l in (tmp_path / "s.csv").read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    assert [float(r["N_B"]) for r in rows] == [160.0, 160.0]


def test_sweep_rejected_transmissivity_fails_only_its_points(tmp_path):
    # kappa_T * kappa_E = 5e-324 * 0.36 underflows to 0.0, which the thermal-loss
    # gate refuses inside the stacked receiver call; its neighbours still run
    def data_rows(grid, name):
        res = run(["sweep", *FAST, "--set", f"grid={grid}", "--out", str(tmp_path / name)])
        rows = [l for l in (tmp_path / name).read_text().splitlines() if not l.startswith("#")]
        return res, rows[1:]

    res, rows = data_rows('{"kappa_T":[0.5,5e-324,1.0]}', "s.csv")
    assert res.exit_code == 1
    failed = [l for l in res.stderr.splitlines() if l.startswith("FAILED")]
    assert failed == [
        f"FAILED kappa_T=4.94066e-324 variant={v}: transmissivity must be in (0, 1], got 0.0"
        for v in ("entangled", "classical_thermal")
    ]
    assert [r.split(",")[2] for r in rows] == ["entangled", "classical_thermal"] * 2
    # the first point's rows, at point indices 0 and 1, match a grid of that point alone
    assert rows[:2] == data_rows('{"kappa_T":[0.5]}', "one.csv")[1]


def test_sweep_overflowing_background_fails_only_its_points(tmp_path):
    # where RuntimeWarning is an error, as in this suite, the thermal-loss
    # gate's overflow at N_B = 1e308 fails that point's rows, not the sweep
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = run(["sweep", *FAST, "--set", "grid.N_B=[1.0e+308,160]",
                   "--out", str(tmp_path / "s.csv")])
    assert res.exit_code == 1
    failed = [l for l in res.stderr.splitlines() if l.startswith("FAILED")]
    assert failed == [
        f"FAILED N_B=1e+308 variant={v}: overflow encountered in multiply"
        for v in ("entangled", "classical_thermal")
    ]
    lines = [l for l in (tmp_path / "s.csv").read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    assert [(r["N_B"], r["variant"]) for r in rows] == [
        ("160.0", "entangled"), ("160.0", "classical_thermal")
    ]


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("sweep", "grid=5", "grid must be a mapping"),
        ("sweep", "grid=null", "grid must be a mapping"),
        ("qcrb", "grid=5", "grid must be a mapping"),
        ("fig3", "theta_grid=5", "theta_grid must be a list"),
        ("fig4", "nb_grid=5", "nb_grid must be a list"),
        ("fig5", "t_grid=5", "t_grid must be a list"),
    ],
)
def test_config_value_shape_comes_from_defaults(command, setting, message):
    res = CliRunner().invoke(main, [command, "--set", setting])
    assert res.exit_code == 2
    assert message in res.output


@pytest.mark.parametrize(
    "command, setting, key",
    [
        ("sweep", "shots=abc", "shots"),
        ("sweep", "shots=1", "shots"),
        ("sweep", "shots=true", "shots"),
        ("sweep", "shots=1e3", "shots"),
        ("sweep", "seed=abc", "seed"),
        ("sweep", "seed=-1", "seed"),
        ("sweep", f"seed={2**64}", "seed"),
        ("sweep", "compute_qcrb=maybe", "compute_qcrb"),
        ("sweep", "compute_qcrb=1", "compute_qcrb"),
        ("covertness", "scenario.N_S=abc", "scenario.N_S"),
        ("covertness", "scenario.N_S=true", "scenario.N_S"),
        ("fig4", "epsilon=[2e-4]", "epsilon"),
        ("fig3", "theta_grid=[abc]", "theta_grid[0]"),
        ("fig3", "theta_grid=[0.5,true]", "theta_grid[1]"),
        ("fig4", "nb_grid=[abc]", "nb_grid[0]"),
        ("fig4", "nb_grid=[null]", "nb_grid[0]"),
        ("fig5", "t_grid=[abc]", "t_grid[0]"),
        ("fig5", "t_grid=[[1.0]]", "t_grid[0]"),
    ],
)
def test_config_scalar_type_comes_from_defaults(command, setting, key):
    res = CliRunner().invoke(main, [command, "--set", setting])
    assert res.exit_code == 2
    assert f"Error: {key} must be" in res.output


@pytest.mark.parametrize(
    "command, exponent_form, plain_form",
    [
        ("fig3", "theta_grid=[1e-1]", "theta_grid=[0.1]"),
        ("fig4", "nb_grid=[4e2]", "nb_grid=[400.0]"),
        ("fig5", "t_grid=[625e-4]", "t_grid=[0.0625]"),
    ],
)
def test_config_list_entry_in_exponent_form_matches_plain(tmp_path, command, exponent_form,
                                                          plain_form):
    # YAML 1.1 loads 1e-1 (no dot) as a string; a list of floats parses it
    outs = []
    for i, setting in enumerate((exponent_form, plain_form)):
        out = tmp_path / f"{i}.csv"
        res = run([command, *FAST, "--set", setting, "--set", 'variants=["entangled"]',
                   "--out", str(out)])
        assert res.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_fig4_epsilon_in_exponent_form_matches_default(tmp_path):
    # YAML 1.1 loads 2e-4 (no dot) as a string; a float key parses it
    outs = []
    for extra in ([], ["--set", "epsilon=2e-4"]):
        out = tmp_path / f"f{len(extra)}.csv"
        assert run(["fig4", *FAST, *extra, "--out", str(out)]).exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_covertness_scenario_value_in_exponent_form(tmp_path):
    outs = []
    for value in ("1e-3", "0.001"):
        out = tmp_path / f"{value}.csv"
        res = run(["covertness", "--set", f"scenario.N_S={value}", "--out", str(out)])
        assert res.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert '"N_S": 0.001' in outs[0].decode()


def test_fig5_has_schedule_columns(tmp_path):
    res = run(["fig5", *FAST, "--set", "t_grid=[0.0625,4.0]",
               "--set", 'variants=["entangled"]', "--out", str(tmp_path / "f5.csv")])
    assert res.exit_code == 0
    lines = [l for l in (tmp_path / "f5.csv").read_text().splitlines() if not l.startswith("#")]
    assert lines[0].split(",")[:2] == ["schedule", "T"]
    schedules = {row.split(",")[0] for row in lines[1:]}
    assert schedules == {"obey", "violate"}


def test_fig4_regime_rows(tmp_path):
    res = run(["fig4", *FAST, "--set", "nb_grid=[160.0]",
               "--set", 'variants=["entangled"]', "--out", str(tmp_path / "f4.csv")])
    assert res.exit_code == 0
    lines = [l for l in (tmp_path / "f4.csv").read_text().splitlines() if not l.startswith("#")]
    regimes = {row.split(",")[0] for row in lines[1:]}
    assert regimes == {"fixed_covertness", "fixed_power"}


def test_qcrb_rejects_unknown_variant():
    res = CliRunner().invoke(main, ["qcrb", "--set", 'variants=["coherent_baseline"]'])
    assert res.exit_code == 2
    assert "'coherent_baseline' is not a valid ProtocolVariant" in res.output


def test_package_exports_resolve():
    missing = [name for name in covertsense.__all__ if not hasattr(covertsense, name)]
    assert missing == []


def _package_env():
    src = str(Path(covertsense.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src)


def _fresh_interpreter(code: str) -> list[str]:
    """The words code prints when run by a new interpreter."""
    return subprocess.run([sys.executable, "-c", code], env=_package_env(), check=True,
                          capture_output=True, text=True).stdout.split()


def test_cli_import_leaves_out_scipy_stats():
    # every CLI process pays for what the package imports; the counting test
    # needs scipy.special ufuncs only, its optimisers are ported, and mpmath
    # is a test-only reference
    code = (
        "import sys, covertsense; package = 'mpmath' in sys.modules; "
        "import covertsense.cli; "
        "print(*(m in sys.modules for m in ('scipy.stats', 'scipy.optimize', 'scipy.linalg')), "
        "package, 'mpmath' in sys.modules); "
        "import covertsense.fock; print('scipy.optimize' in sys.modules)"
    )
    assert _fresh_interpreter(code) == ["False"] * 6


def test_cli_import_loads_scipy_special_ufuncs_without_the_package():
    # the package __init__ would bring in scipy's array-API layer; a later
    # import of the package must reuse the loaded extension
    code = (
        "import sys, scipy, covertsense.cli; "
        "print(*(m in sys.modules for m in "
        "('scipy.special', 'scipy._lib._array_api', 'scipy.special._ufuncs')), "
        "vars(scipy).get('special') is not None); "
        "from covertsense import adversary, fock; import scipy.special; "
        "print(adversary._ufuncs is scipy.special._ufuncs is fock.ufuncs, "
        "scipy.special.ndtr is adversary._ufuncs.ndtr, scipy.special.gammaln is fock.gammaln, "
        "hasattr(scipy.special, 'logsumexp'))"
    )
    assert _fresh_interpreter(code) == ["False", "False", "True", "False"] + ["True"] * 4


def test_fock_oracle_run_imports_no_scipy_special():
    # scipy.linalg.logm, which the oracle's unitaries use, imports the
    # scipy.special package on its first call; fock loads it at import
    code = (
        "import sys; from covertsense import fock; from covertsense.protocol import tmsv; "
        "before = set(sys.modules); fock.from_gaussian(tmsv(0.01), (4, 4)); "
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('scipy.special')))"
    )
    assert _fresh_interpreter(code) == ["[]"]


def test_scipy_special_imported_first_shares_the_ufuncs():
    code = (
        "import scipy.special, covertsense.cli; from covertsense import adversary; "
        "print(adversary._ufuncs is scipy.special._ufuncs)"
    )
    assert _fresh_interpreter(code) == ["True"]


def test_scipy_ufuncs_fall_back_to_the_package_import():
    # a scipy whose special directory is elsewhere makes the stand-in
    # package route raise ImportError; the plain import then loads the
    # real package and its extension
    code = (
        "import os, sys, scipy; scipy.__file__ = os.path.join(os.sep, 'nonexistent', 'x.py'); "
        "from covertsense import adversary; special = sys.modules['scipy.special']; "
        "print(adversary._ufuncs is special._ufuncs, hasattr(special, '__file__'), "
        "hasattr(special, 'logsumexp'))"
    )
    assert _fresh_interpreter(code) == ["True"] * 3


def test_figure_commands_import_no_scipy_module_while_running(tmp_path):
    # start-up cost must not move into the run: fig3 draws the first Monte
    # Carlo shots, fig4 reaches the root finder and fig5 Willie's CLT test
    code = (
        "import sys; from covertsense.cli import main; before = set(sys.modules)\n"
        "for command in ('fig3', 'fig4', 'fig5', 'sweep', 'covertness'):\n"
        "    try:\n"
        "        main([command, '--out', sys.argv[1] + command + '.csv'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        "print(sorted(set(sys.modules) - before))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path) + "/"], env=_package_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["[]"]
    assert (tmp_path / "fig5.csv").read_text().count("gaussian_approx") > 0


def test_montecarlo_import_leaves_out_metrology():
    # the package __init__ imports every layer, so load montecarlo under a
    # bare package module to see only what montecarlo itself pulls in
    code = (
        "import importlib.util, sys, types; "
        "pkg = types.ModuleType('covertsense'); "
        "pkg.__path__ = list(importlib.util.find_spec('covertsense').submodule_search_locations); "
        "sys.modules['covertsense'] = pkg; "
        "import covertsense.montecarlo; "
        "print('covertsense.receivers' in sys.modules, 'covertsense.metrology' in sys.modules)"
    )
    assert _fresh_interpreter(code) == ["True", "False"]


def test_qcrb_runs_without_mpmath(tmp_path):
    # the QFI needs only the standard library's decimal module
    res = run(["qcrb", "--out", str(tmp_path / "in_process.csv")])
    assert res.exit_code == 0
    code = (
        "import sys; sys.modules['mpmath'] = None; "
        "from covertsense.cli import main; main(sys.argv[1:])"
    )
    out = tmp_path / "no_mpmath.csv"
    proc = subprocess.run([sys.executable, "-c", code, "qcrb", "--out", str(out)],
                          env=_package_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (tmp_path / "in_process.csv").read_bytes()


def test_failed_line_names_exception_without_message(tmp_path, monkeypatch):
    def bare(*args, **kwargs):
        raise RuntimeError()

    monkeypatch.setattr(cli, "simulate", bare)
    res = CliRunner().invoke(
        main, ["sweep", *FAST, "--set", 'grid={"N_B":[160.0]}', "--out", str(tmp_path / "s.csv")]
    )
    assert res.exit_code == 1
    failed = [l for l in res.stderr.splitlines() if l.startswith("FAILED")]
    assert failed and all(l.endswith(": RuntimeError") for l in failed)
