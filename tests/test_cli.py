import json

import pytest

from sqgrad import cli
from sqgrad.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, main


def test_usage_errors():
    assert main([]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["estimate", "--estimator", "esg:arch"]) == EXIT_USAGE
    assert main(["--help"]) == EXIT_OK


def test_validate_tuple_ok(capsys):
    assert main(["validate-tuple", "arch"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "calibration[quadrature]" in out and "ok" in out
    assert "convolution" in out


def test_validate_tuple_longjump_skips_convolution(capsys):
    # The two-point perturbation has no density to convolve.
    assert main(["validate-tuple", "longjump"]) == EXIT_OK
    assert "convolution skipped" in capsys.readouterr().out


def test_validate_tuple_failure_exit(capsys):
    assert main(["validate-tuple", "arch", "--tol", "1e-300"]) == EXIT_VALIDATION
    assert "FAILED" in capsys.readouterr().out


def test_validate_tuple_monte_carlo(capsys):
    assert main(["validate-tuple", "spike", "--method", "monte_carlo",
                 "--samples", "20000"]) == EXIT_OK
    assert "calibration[monte_carlo]" in capsys.readouterr().out


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_validate_tuple_rejects_nonpositive_samples(samples, capsys):
    assert main(["validate-tuple", "spike", "--method", "monte_carlo",
                 "--samples", samples]) == EXIT_USAGE
    assert "--samples: must be at least 1" in capsys.readouterr().err


def test_estimate_json(capsys):
    rc = main(["estimate", "--estimator", "esg:longjump", "--problem", "slice:4",
               "--x", "0.5", "--samples", "4000", "--seed", "1"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["estimator"] == "esg:longjump"
    assert out["n_samples"] == 4000 and out["queries"] == 4000
    assert len(out["mean_gradient"]) == 4
    assert out["mean_value"] is not None


def test_estimate_reinforce_has_no_value(capsys):
    rc = main(["estimate", "--estimator", "reinforce", "--problem", "slice:4",
               "--x", "0.25,0.5,0.5,0.75", "--samples", "2000"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["mean_value"] is None and out["value_std_err"] is None


def test_estimate_unknown_estimator_is_runtime_error(capsys):
    assert main(["estimate", "--estimator", "magic", "--problem", "slice:4",
                 "--x", "0.5"]) == EXIT_RUNTIME
    assert "sqgrad:" in capsys.readouterr().err


def test_exact_json(capsys):
    rc = main(["exact", "--problem", "slice:3", "--x", "0.5", "--grad",
               "--fd", "1e-5"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"value", "gradient", "fd_gradient", "oracle_calls"}
    assert len(out["gradient"]) == 3
    # value 2^d, gradient one vertex sweep, fd 2d value sweeps
    assert out["oracle_calls"] == 2**3 + 2**3 + 2 * 3 * 2**3
    for g, fd in zip(out["gradient"], out["fd_gradient"]):
        assert g == pytest.approx(fd, abs=1e-6)


def test_exact_bad_point(capsys):
    assert main(["exact", "--problem", "slice:3", "--x", "0.5,oops"]) == EXIT_RUNTIME
    assert "cannot parse point" in capsys.readouterr().err


def _descent_config(tmp_path, **kw):
    cfg = {"estimator": "esg:arch", "problem": "slice:4", "steps": 30,
           "eta": 0.1, "direction": "maximize", "seed": 5}
    cfg.update(kw)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def test_descend_single_run(tmp_path, capsys):
    out_file = tmp_path / "traj.json"
    rc = main(["descend", "--config", str(_descent_config(tmp_path)),
               "--out", str(out_file)])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert len(out["final_x"]) == 4
    assert out["oracle_calls"] == 30
    assert out["trajectory_file"] == str(out_file)
    traj = json.loads(out_file.read_text())
    assert traj["estimator"] == "esg:arch"
    assert traj["snapshot_steps"][0] == 0


def test_descend_encoded_dispatch(tmp_path, capsys):
    rc = main(["descend", "--config",
               str(_descent_config(tmp_path, estimator="encoded_esg:longjump"))])
    assert rc == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)["final_x"]) == 4


def test_descend_repeated(tmp_path, capsys):
    rc = main(["descend", "--config", str(_descent_config(tmp_path)),
               "--trials", "5"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["trials"] == 5 and len(out["best_per_trial"]) == 5
    assert out["oracle_calls_per_trial"] == 30


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_descend_rejects_nonpositive_trials(tmp_path, trials, capsys):
    rc = main(["descend", "--config", str(_descent_config(tmp_path)),
               "--trials", trials])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--trials: must be at least 1" in captured.err and captured.out == ""


def test_descend_missing_config(capsys):
    assert main(["descend", "--config", "/nonexistent.json"]) == EXIT_RUNTIME


def test_experiment_writes_outputs(tmp_path, capsys):
    spec = {"name": "cli_micro", "problem": "slice:4", "budget": 30,
            "n_trials": 2, "base_seed": 3,
            "methods": [{"estimator": "esg:arch", "eta": 0.1}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(["experiment", "--spec", str(spec_path),
               "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("cli_micro.csv") and lines[1].endswith("cli_micro.svg")
    assert (tmp_path / "out" / "cli_micro.csv").exists()
    assert (tmp_path / "out" / "cli_micro.svg").exists()


def test_experiment_bad_spec(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    assert main(["experiment", "--spec", str(path)]) == EXIT_RUNTIME


def _no_run(spec):
    pytest.fail("the experiment ran although its outputs cannot be written")


def test_experiment_out_dir_that_is_a_file_fails_before_the_run(
    tmp_path, capsys, monkeypatch
):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "cli_micro", "problem": "slice:4", "budget": 30, "n_trials": 2,
        "methods": [{"estimator": "esg:arch", "eta": 0.1}]}))
    monkeypatch.setattr(cli, "run_experiment", _no_run)
    rc = main(["experiment", "--spec", str(spec_path), "--out-dir", str(spec_path)])
    assert rc == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith(f"sqgrad: {spec_path}: ")


def test_experiment_name_too_long_for_a_file_is_rejected_at_load(
    tmp_path, capsys, monkeypatch
):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "n" * 300, "problem": "slice:4", "budget": 30, "n_trials": 2,
        "methods": [{"estimator": "esg:arch", "eta": 0.1}]}))
    monkeypatch.setattr(cli, "run_experiment", _no_run)
    rc = main(["experiment", "--spec", str(spec_path), "--out-dir", str(tmp_path)])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith(f"sqgrad: {spec_path}: ") and "name is too long" in err
