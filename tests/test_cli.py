import io
import json
import math

import pytest

from sqgrad import cli, descent, oracles
from sqgrad.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, main
from sqgrad.errors import SqgradError


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


@pytest.mark.parametrize("argv", [
    ["validate-tuple", "spike"],
    ["estimate", "--estimator", "esg:arch", "--problem", "slice:4", "--x", "0.5"],
    ["exact", "--problem", "slice:4", "--x", "0.5"],
], ids=lambda argv: argv[0])
def test_a_negative_seed_is_a_usage_error(argv, capsys):
    # Not a traceback from the generator, and not exit 1, which means
    # a failed validation.
    assert main(argv + ["--seed", "-1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--seed: must be at least 0" in captured.err and captured.out == ""


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


def _strict_json(text):
    """json.loads that refuses NaN and the infinities."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def test_exact_nan_point_is_runtime_error(capsys):
    assert main(["exact", "--problem", "slice:4", "--x", "nan"]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == "" and "[0, 1]" in captured.err


@pytest.mark.parametrize("estimator", ["esg:arch", "naive", "reinforce", "disarm"])
def test_estimate_from_one_sample_prints_strict_json(estimator, capsys):
    # A variance needs two samples: every standard error is NaN, and
    # every NaN is printed as null.
    rc = main(["estimate", "--estimator", estimator, "--problem", "slice:6",
               "--x", "0.3", "--samples", "1"])
    assert rc == EXIT_OK
    out = _strict_json(capsys.readouterr().out)
    assert out["n_samples"] == 1
    assert out["gradient_std_err"] == [None] * 6
    assert out["value_std_err"] is None


def test_json_output_maps_nan_to_null_and_refuses_infinity():
    buf = io.StringIO()
    cli._dump_json({"a": math.nan, "b": [1.0, [math.nan, 2.5]], "c": "x"}, buf)
    assert _strict_json(buf.getvalue()) == {"a": None, "b": [1.0, [None, 2.5]], "c": "x"}
    buf = io.StringIO()
    with pytest.raises(SqgradError, match="JSON"):
        cli._dump_json({"a": [1.0, math.inf]}, buf)
    assert buf.getvalue() == ""


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_estimate_that_overflows_is_runtime_error(tmp_path, capsys):
    # Squared gradients of +-1e300 values overflow the variance to inf.
    table = tmp_path / "huge.csv"
    table.write_text("bits,value\n" + "".join(
        f"{k:03b},{(-1) ** k * 1e300}\n" for k in range(8)))
    rc = main(["estimate", "--estimator", "esg:arch", "--problem", f"table:{table}",
               "--x", "0.3", "--samples", "100"])
    assert rc == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == "" and "JSON" in captured.err


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


def test_the_instance_and_the_noise_draw_from_different_streams(tmp_path, monkeypatch, capsys):
    # A knapsack's weights and the first noise draws must not be read from
    # the same words; estimate and exact face the same instance at one seed.
    instances, noises = [], []
    make_knapsack, estimate, derive_rng = (
        oracles.make_knapsack, cli.estimate_mean_and_variance, descent.derive_rng)

    def knapsack_spy(d, rng):
        instances.append(rng.bit_generator.state)
        return make_knapsack(d, rng)

    def estimate_spy(*args):
        noises.append(args[-1].bit_generator.state)
        return estimate(*args)

    def derive_spy(*key):  # descent's noise streams
        rng = derive_rng(*key)
        noises.append(rng.bit_generator.state)
        return rng

    monkeypatch.setattr(oracles, "make_knapsack", knapsack_spy)
    monkeypatch.setattr(cli, "estimate_mean_and_variance", estimate_spy)
    monkeypatch.setattr(descent, "derive_rng", derive_spy)
    assert main(["estimate", "--estimator", "esg:arch", "--problem", "knapsack:6",
                 "--x", "0.3", "--samples", "10", "--seed", "5"]) == EXIT_OK
    assert main(["exact", "--problem", "knapsack:6", "--x", "0.3", "--seed", "5"]) == EXIT_OK
    config = _descent_config(tmp_path, problem="knapsack:6", steps=3)
    assert main(["descend", "--config", str(config)]) == EXIT_OK
    capsys.readouterr()
    assert len(instances) == 3 and len(noises) == 2
    assert instances[0] == instances[1]
    assert not any(state in noises for state in instances)


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
