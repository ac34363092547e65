"""Config validation, CLI pipelines, report determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cmclab
from cmclab.cli import main, run_experiment
from cmclab.config import config_from_dict, parse_config
from cmclab.errors import ConfigurationError


def write_config(tmp_path, text):
    p = tmp_path / "config.yaml"
    p.write_text(text)
    return p


def test_minimal_schwarzschild_config_is_valid(tmp_path):
    p = write_config(tmp_path, "model:\n  kind: schwarzschild\n  m: 1.0\n")
    cfg = parse_config(p)
    model = cfg.build_model()
    assert model.mass == 1.0
    assert cfg.band_limit == 32


def test_range_error_names_the_key(tmp_path):
    p = write_config(tmp_path, "model:\n  kind: perturbed\n  epsilon: -0.5\n")
    with pytest.raises(ConfigurationError, match="model.epsilon"):
        parse_config(p)


def test_unknown_key_rejected_with_suggestion(tmp_path):
    p = write_config(tmp_path, "model:\n  kind: schwarzschild\n  masss: 1.0\n")
    with pytest.raises(ConfigurationError, match="masss.*'m'"):
        parse_config(p)


def test_unknown_top_level_section(tmp_path):
    p = write_config(tmp_path, "modle:\n  kind: schwarzschild\n")
    with pytest.raises(ConfigurationError, match="modle"):
        parse_config(p)


def test_malformed_yaml(tmp_path):
    p = write_config(tmp_path, "model: [unclosed\n")
    with pytest.raises(ConfigurationError, match="malformed"):
        parse_config(p)


def test_missing_file():
    with pytest.raises(ConfigurationError, match="does not exist"):
        parse_config("/nonexistent/cfg.yaml")


def test_config_builds_translated_interpolated_model():
    cfg = config_from_dict(
        {"model": {"kind": "perturbed", "m": 1.0, "epsilon": 0.5, "A": 0.1, "shape": "odd",
                   "tau": 0.5, "a": [5.0, 0.0, 0.0]}}
    )
    model = cfg.build_model()
    assert np.allclose(model.exclusion_center, [5.0, 0.0, 0.0])


def small_config(tmp_path, **extra):
    cfg = config_from_dict(
        {
            "model": {"kind": "schwarzschild", "m": 1.0, "B": 1.0, "delta": 1.0},
            "run": {"sigmas": [8.0, 16.0], "band_limit": 8, "out": str(tmp_path / "run")},
            **extra,
        }
    )
    return cfg


def test_foliate_manifest_and_csv(tmp_path):
    cfg = small_config(tmp_path)
    manifest, status = run_experiment("foliate", cfg)
    assert status == 0
    assert manifest["status"]["foliate"] == "ok"
    csv = (tmp_path / "run.csv").read_text().splitlines()
    assert csv[0].startswith("sigma,areaRadius,z1")
    assert len(csv) == 3
    payload = json.loads((tmp_path / "run.json").read_text())
    assert payload["reports"]["foliate"]["nested"] is True
    assert len(payload["reports"]["foliate"]["leaves"]) == 2


def test_manifest_records_blas_and_thread_variables(tmp_path, monkeypatch):
    """The ``environment`` record holds the BLAS name and each thread variable as the process sees it."""
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    manifest, _ = run_experiment("adm-center", small_config(tmp_path))
    environment = json.loads((tmp_path / "run.json").read_text())["environment"]
    assert environment == manifest["environment"]
    assert environment["blas"] == np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    assert environment["threads"] == {
        "CMCLAB_THREADS": os.environ.get("CMCLAB_THREADS"),
        "OMP_NUM_THREADS": "3",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "MKL_NUM_THREADS": None,
    }


def test_reports_are_bit_identical_across_runs(tmp_path):
    cfg = small_config(tmp_path)
    run_experiment("foliate", cfg)
    first_csv = (tmp_path / "run.csv").read_bytes()
    first_json = json.loads((tmp_path / "run.json").read_text())
    run_experiment("foliate", cfg)
    second_csv = (tmp_path / "run.csv").read_bytes()
    second_json = json.loads((tmp_path / "run.json").read_text())
    assert first_csv == second_csv
    first_json.pop("timings")
    second_json.pop("timings")
    assert first_json == second_json


def run_in_subprocess(out, command, threads):
    """Run ``cmclab.cli`` with a pinned BLAS thread count; returns (manifest, csv bytes, stderr)."""
    src = str(Path(cmclab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(
        os.environ,
        PYTHONPATH=pythonpath,
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    done = subprocess.run(
        [sys.executable, "-m", "cmclab.cli", *command, "--out", str(out)],
        env=env,
        check=True,
        timeout=600,
        capture_output=True,
        text=True,
    )
    manifest = json.loads(Path(f"{out}.json").read_text())
    return manifest, Path(f"{out}.csv").read_bytes(), done.stderr


def test_reports_are_bit_identical_across_blas_thread_counts(tmp_path):
    """Positive mass: a study run's reports do not depend on the BLAS thread count."""
    config = write_config(
        tmp_path,
        "model:\n  kind: perturbed\n  m: 1.0\n  epsilon: 0.5\n  A: 0.1\n  shape: odd\n"
        "  a: [0.2, -0.1, 0.3]\n  B: 1.0\n  b: [0.6, 0.0, 0.8]\n"
        "run:\n  sigmas: [16.0, 32.0]\n  band_limit: 16\n",
    )
    outputs = []
    for threads in ("1", "2"):
        command = ["study", "--config", str(config), "--log", "quiet"]
        manifest, csv, _ = run_in_subprocess(tmp_path / f"threads{threads}", command, threads)
        assert manifest["status"]["study"] == "ok"
        outputs.append((json.dumps(manifest["reports"], sort_keys=True).encode(), csv))
    assert outputs[0] == outputs[1]


def test_degenerate_and_large_sigma_eigenvalues_are_deterministic(tmp_path):
    """Schwarzschild and flat leaves, whose low clusters are degenerate, give the same bytes.

    Two runs at 1 BLAS thread and one at 2; sigma = 4096 is where a dense
    eigensolve used to answer, and flat leaves used to take the dense
    eigenbasis for every solve and eigenpair.  Every Newton step logs its
    Krylov iteration count.
    """
    commands = [
        ["foliate", "--mass", "1", "--sigma", "8,16,4096"],
        ["foliate", "--model", "euclidean", "--sigma", "4,8,16"],
    ]
    for case, command in enumerate(commands):
        command += ["--bandlimit", "16", "--log", "debug"]
        outputs = []
        for run, threads in enumerate(("1", "1", "2")):
            out = tmp_path / f"case{case}run{run}"
            manifest, csv, log = run_in_subprocess(out, command, threads)
            assert manifest["status"]["foliate"] == "ok"
            leaves = manifest["reports"]["foliate"]["leaves"]
            assert len(leaves) == 3 and all(len(leaf["eigenvalues"]) == 3 for leaf in leaves)
            steps = [line.split("krylov=")[1] for line in log.splitlines() if "krylov=" in line]
            assert len(steps) == sum(leaf["iterations"] for leaf in leaves)
            assert all(count.isdigit() for count in steps)
            outputs.append((json.dumps(manifest["reports"], sort_keys=True).encode(), csv))
        assert outputs[0] == outputs[1] == outputs[2]


def test_evolve_time_symmetric_residuals_tiny(tmp_path):
    cfg = config_from_dict(
        {
            "model": {"kind": "schwarzschild", "m": 1.0},
            "run": {"sigmas": [8.0, 16.0], "band_limit": 8, "out": str(tmp_path / "ev")},
        }
    )
    manifest, status = run_experiment("evolve", cfg)
    assert status == 0
    for row in manifest["reports"]["evolve"]["reports"]:
        assert row["residual"] <= 1e-8


def test_artificial_on_schwarzschild_is_zero_path(tmp_path):
    cfg = config_from_dict(
        {
            "model": {"kind": "schwarzschild", "m": 1.0},
            "run": {"sigmas": [10.0], "band_limit": 8, "out": str(tmp_path / "art")},
            "artificial": {"tau_steps": 4},
        }
    )
    manifest, status = run_experiment("artificial", cfg)
    assert status == 0
    flow = manifest["reports"]["artificial"]["flows"][0]
    assert np.abs(np.array(flow["centers"])).max() == 0.0
    assert flow["endpoint_gap"] < 1e-10


def test_momentum_and_adm_center_stages(tmp_path):
    cfg = small_config(tmp_path, adm={"radii": [16.0, 32.0, 64.0]})
    manifest, status = run_experiment("momentum", cfg)
    assert status == 0
    totals = manifest["reports"]["momentum"]["momenta"][0]["pseudo_momentum"]
    assert abs(totals[0]) > 1e-3  # nonzero first component for b = e1
    manifest, status = run_experiment("adm-center", cfg)
    assert status == 0
    assert len(manifest["reports"]["adm-center"]["centers"]) == 3


def test_study_stage_gates(tmp_path):
    cfg = config_from_dict(
        {
            "model": {"kind": "schwarzschild", "m": 1.0, "B": 1.0, "delta": 1.0},
            "run": {"sigmas": [8.0, 16.0, 32.0], "band_limit": 8, "out": str(tmp_path / "study")},
        }
    )
    manifest, status = run_experiment("study", cfg)
    assert status == 0
    rows = manifest["reports"]["study"]["rows"]
    by_name = {r["quantity"]: r for r in rows}
    assert by_name["evolution_residual"]["passed"]
    assert by_name["evolution_residual"]["exponent"] >= 0.7
    assert by_name["eigenvalue_deviation"]["passed"]


def test_study_evolution_gate_reads_configured_delta(tmp_path):
    """kbar ~ r^-(1.3) bounds the residual exponent by min(epsilon, delta) = 0.3, not 1."""
    cfg = config_from_dict(
        {
            "model": {"kind": "schwarzschild", "m": 1.0, "B": 1.0, "delta": 0.3},
            "run": {"sigmas": [16.0, 32.0, 64.0, 128.0], "band_limit": 8, "out": str(tmp_path / "s")},
        }
    )
    manifest, status = run_experiment("study", cfg)
    assert status == 0
    assert manifest["status"]["study"] == "ok"
    rows = {r["quantity"]: r for r in manifest["reports"]["study"]["rows"]}
    row = rows["evolution_residual"]
    assert 0.0 <= row["exponent"] < 0.7
    assert row["passed"]
    # the Schwarzschild leaves are centered at the origin up to round-off: no growth fit
    assert rows["center_growth"] == {"quantity": "center_growth", "exponent": 0.0, "fit_residual": 0.0, "passed": True}


@pytest.mark.parametrize("B", [1.0, 0.0])
def test_study_gate_fails_on_a_pre_asymptotic_center_growth(tmp_path, B):
    """A translated odd model whose center-growth fit over sigma = 16-128 is pre-asymptotic.

    |z| fits a growth exponent of 0.643 against the gate's 1 - epsilon + 0.1 = 0.6, so the
    stage exits 1 with ``failed-gate`` and ``center_growth`` is the only failing row.  With
    B = 0 the data are time-symmetric: the evolution residuals vanish at solver accuracy,
    so that row is not fitted and passes.
    """
    model = {
        "kind": "perturbed", "m": 1.0, "epsilon": 0.5, "A": 0.1, "shape": "odd",
        "a": [-0.161, 0.076, 0.037], "B": B, "b": [0.966, -0.259, 0.021],
    }
    config = write_config(
        tmp_path,
        json.dumps(
            {
                "model": model,
                "run": {"sigmas": [16.0, 32.0, 64.0, 128.0], "band_limit": 24},
                "solver": {"newton_tol": 1e-10},
            }
        ),
    )
    out = tmp_path / "study"
    assert main(["study", "--config", str(config), "--out", str(out), "--log", "quiet"]) == 1
    manifest = json.loads(out.with_suffix(".json").read_text())
    assert manifest["status"]["study"] == "failed-gate"
    rows = {r["quantity"]: r for r in manifest["reports"]["study"]["rows"]}
    assert [name for name, row in rows.items() if not row["passed"]] == ["center_growth"]
    assert rows["center_growth"]["exponent"] == pytest.approx(0.643, abs=5e-4)
    if B == 0.0:
        assert rows["evolution_residual"] == {
            "quantity": "evolution_residual", "exponent": float("inf"), "fit_residual": 0.0, "passed": True
        }


def test_cli_main_exit_codes(tmp_path):
    out = tmp_path / "cli"
    rc = main(
        [
            "foliate",
            "--mass",
            "1.0",
            "--sigma",
            "8,16",
            "--bandlimit",
            "8",
            "--out",
            str(out),
            "--log",
            "quiet",
        ]
    )
    assert rc == 0
    assert out.with_suffix(".csv").exists()
    bad = tmp_path / "bad.yaml"
    bad.write_text("model:\n  masss: 1\n")
    rc = main(["foliate", "--config", str(bad), "--log", "quiet"])
    assert rc == 2


def test_cli_override_revalidates(tmp_path):
    rc = main(["foliate", "--mass", "-3", "--out", str(tmp_path / "x"), "--log", "quiet"])
    assert rc == 2


@pytest.mark.parametrize(
    "setting",
    [
        "newton_tol: 0",
        "max_newton: 0",
        "max_newton: many",
        "max_newton: 2.5",
        "compute_eigenvalues: 'no'",
    ],
)
def test_solver_section_errors_exit_2_naming_the_key(tmp_path, capsys, setting):
    out = tmp_path / "run"
    p = write_config(tmp_path, f"solver:\n  {setting}\nrun:\n  band_limit: 8\n  out: {out}\n")
    assert main(["foliate", "--config", str(p), "--log", "quiet"]) == 2
    key = setting.split(":")[0]
    assert f"config error: solver.{key}" in capsys.readouterr().err
    assert not out.with_suffix(".json").exists()


@pytest.mark.parametrize(
    "section, setting",
    [
        ("run", "band_limit: abc"),
        ("run", "band_limit: 24.7"),
        ("run", "sigmas: 16"),
        ("model", "m: heavy"),
        ("model", "kind: 5"),
        ("model", "a: [1, 2, x]"),
        ("adm", "radii: [32, x]"),
        ("artificial", "tau_steps: 2.5"),
        ("artificial", "kbar_factor: half"),
    ],
)
def test_values_of_the_wrong_type_exit_2_naming_the_key(tmp_path, capsys, section, setting):
    """A value that does not convert, or converts lossily, is a config error, not a traceback or a truncation."""
    out = tmp_path / "run"
    p = write_config(tmp_path, f"{section}:\n  {setting}\n")
    assert main(["foliate", "--config", str(p), "--out", str(out), "--log", "quiet"]) == 2
    key = setting.split(":")[0]
    assert f"config error: {section}.{key} = " in capsys.readouterr().err
    assert not out.with_suffix(".json").exists()


@pytest.mark.parametrize("section", ["model", "run", "solver", "adm", "artificial"])
def test_sections_that_are_not_mappings_exit_2_naming_the_section(tmp_path, capsys, section):
    p = write_config(tmp_path, f"{section}: 5\n")
    assert main(["foliate", "--config", str(p), "--out", str(tmp_path / "run"), "--log", "quiet"]) == 2
    assert f"config error: {section} section must be a mapping" in capsys.readouterr().err


def test_recenter_threshold_is_an_unknown_solver_key(tmp_path, capsys):
    """Re-centering has no threshold to set: every iterate off its centroid is resampled."""
    out = tmp_path / "run"
    p = write_config(tmp_path, f"solver:\n  recenter_threshold: 0.1\nrun:\n  band_limit: 8\n  out: {out}\n")
    assert main(["foliate", "--config", str(p), "--log", "quiet"]) == 2
    assert "config error: unknown key solver.'recenter_threshold'" in capsys.readouterr().err
    assert not out.with_suffix(".json").exists()


def test_eigen_and_study_reuse_leaf_eigenvalues(tmp_path, monkeypatch):
    """eigen and study report the eigenvalues solve_cmc computes, whatever the config key says."""
    from cmclab import cmc

    calls = []
    original = cmc.low_eigenpairs

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cmc, "low_eigenpairs", counting)
    for stage in ("eigen", "study"):
        reports = []
        for compute in (True, False):
            calls.clear()
            config = small_config(tmp_path, solver={"compute_eigenvalues": compute})
            manifest, _ = run_experiment(stage, config)
            assert manifest["status"][stage] == "ok"
            assert len(calls) == len(config.sigmas)  # one eigensolve per leaf
            reports.append(manifest["reports"])
        assert reports[0] == reports[1]


@pytest.mark.parametrize("stage", ["artificial", "momentum", "evolve", "centers"])
def test_stages_without_eigenvalue_reports_skip_the_eigensolve(tmp_path, monkeypatch, stage):
    """These stages report no eigenvalues, so they solve without them whatever the config says."""
    from cmclab import cmc

    def refuse(*args, **kwargs):
        raise AssertionError("eigenpairs computed by a stage that does not report them")

    monkeypatch.setattr(cmc, "low_eigenpairs", refuse)
    config = write_config(
        tmp_path,
        "model:\n  kind: perturbed\n  m: 1.0\n  epsilon: 0.5\n  A: 0.1\n  shape: odd\n"
        "  B: 1.0\n  delta: 1.0\n"
        "run:\n  sigmas: [8.0, 16.0]\n  band_limit: 8\n"
        "solver:\n  compute_eigenvalues: true\n"
        "artificial:\n  tau_steps: 2\n",
    )
    out = tmp_path / stage
    assert main([stage, "--config", str(config), "--out", str(out), "--log", "quiet"]) == 0
    manifest = json.loads(out.with_suffix(".json").read_text())
    assert manifest["status"][stage] == "ok"
