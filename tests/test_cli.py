"""Command-line surface: outputs, determinism, validation, round trips."""

import json

import numpy as np
import pytest

from mimicgame.cli import load_config, main, resolved_config

FIG_BLOCK = {"params": {"r1": 0.5, "r2": 0.5, "lambda": 2.0, "psi": 1.5,
                        "u": 1.0, "c": 1.0, "w_NI": 1.0, "w_I": -1.0}}


@pytest.fixture()
def fig_config(tmp_path):
    path = tmp_path / "fig.json"
    path.write_text(json.dumps(FIG_BLOCK))
    return str(path)


def test_solve_outputs(tmp_path, fig_config):
    out = tmp_path / "out"
    code = main(["solve", "--config", fig_config, "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "equilibrium.json").read_text())
    assert doc["p_star"] == pytest.approx(0.565, abs=0.01)
    assert doc["regime"] == "hump-shaped"
    assert doc["p_star_star"] == pytest.approx(0.5, abs=1e-12)
    assert doc["p_H"] == pytest.approx(0.9, abs=1e-12)
    for name in ("curve_a.csv", "curve_v.csv", "curve_W.csv"):
        text = (out / name).read_text()
        assert text.startswith("# mimicgame")
        assert "# config:" in text
        assert text.endswith("\n")
        rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(rows) == 1 + doc["diagnostics"]["grid_n"]


def test_solve_deterministic_bytes(tmp_path, fig_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", fig_config, "--out", str(out1), "--grid", "1001"]) == 0
    assert main(["solve", "--config", fig_config, "--out", str(out2), "--grid", "1001"]) == 0
    for name in ("equilibrium.json", "curve_a.csv", "curve_v.csv", "curve_W.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_deterministic_and_seeded(tmp_path, fig_config):
    out1, out2, out3 = (tmp_path / x for x in "abc")
    args = ["simulate", "--config", fig_config, "--grid", "1001",
            "--set", "command.n_paths=400", "--set", "command.p0=0.3",
            "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "sim_report.json").read_bytes() == (out2 / "sim_report.json").read_bytes()
    assert main(["simulate", "--config", fig_config, "--grid", "1001",
                 "--set", "command.n_paths=400", "--seed", "8", "--out", str(out3)]) == 0
    assert (out1 / "sim_report.json").read_bytes() != (out3 / "sim_report.json").read_bytes()
    doc = json.loads((out1 / "sim_report.json").read_text())
    assert doc["report"]["n_paths"] == 400
    assert doc["closed_form"]["p_star"] == pytest.approx(0.565, abs=0.01)


def test_ep_command(tmp_path, fig_config):
    out = tmp_path / "out"
    assert main(["ep", "--config", fig_config, "--out", str(out), "--grid", "1001"]) == 0
    doc = json.loads((out / "ep_shape.json").read_text())
    assert doc["classification"] == "ZigZag"
    body = (out / "ep_curve.csv").read_text()
    assert body.splitlines()[2] == "p,EP"


def test_sweep_psi_command(tmp_path, fig_config):
    out = tmp_path / "out"
    assert main(["sweep-psi", "--config", fig_config, "--out", str(out),
                 "--grid", "1001", "--set", "command.psi_list=[1.0,2.0]"]) == 0
    lines = (out / "sweep_psi.csv").read_text().splitlines()
    assert lines[2] == "psi,p_star,W_probe,gap_under,gap_over,a_at_pstar,error"
    assert len(lines) == 5


def test_sweep_patience_command(tmp_path, fig_config):
    out = tmp_path / "out"
    assert main(["sweep-patience", "--config", fig_config, "--out", str(out),
                 "--grid", "1001", "--set", "command.scale_list=[1.0,0.3]"]) == 0
    lines = (out / "sweep_patience.csv").read_text().splitlines()
    assert lines[2].startswith("scale,p_star,sup_dist_stop_value")
    assert len(lines) == 5


def test_oracle_check_command(tmp_path, fig_config):
    out = tmp_path / "out"
    code = main(["oracle-check", "--config", fig_config, "--out", str(out),
                 "--delta", "0.004", "--set", "command.z_max=8.0"])
    assert code == 0
    doc = json.loads((out / "oracle_report.json").read_text())
    assert doc["passed"] is True
    assert doc["gap_p_star"] < 0.02
    assert doc["agent_solves"] > 0 and doc["principal_solves"] > 0


def test_config_validation_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"params": {"r1": 0.5}, "bogus": 1}))
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 1
    bad.write_text(json.dumps({"params": dict(FIG_BLOCK["params"], zeta=1.0)}))
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 1
    bad.write_text(json.dumps(dict(FIG_BLOCK, command={"name": "ep"})))
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 1
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 1
    # w_I must stay negative
    bad.write_text(json.dumps(FIG_BLOCK))
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path),
                 "--set", "params.w_I=0.5"]) == 1
    # a path count must be an integer
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path), "--grid", "1001",
                 "--set", "command.n_paths=2.5"]) == 1


def test_simulate_rejects_unbounded_cap(tmp_path, fig_config, capsys):
    # an infinite cap overflowed the table size with a traceback
    assert main(["simulate", "--config", fig_config, "--out", str(tmp_path), "--grid", "1001",
                 "--set", "command.z_cap=Infinity"]) == 1
    assert "z_cap" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--seed", "-1"], ["--set", "command.seed=2.5"]])
def test_simulate_rejects_bad_seed(tmp_path, fig_config, capsys, args):
    # -1 overflowed in the kernels with a traceback; 2.5 ran seed 2's streams
    # and recorded seed 2.5
    assert main(["simulate", "--config", fig_config, "--out", str(tmp_path), "--grid", "1001",
                 "--set", "command.n_paths=10"] + args) == 1
    err = capsys.readouterr().err
    assert "validation error" in err and "seed" in err
    assert not (tmp_path / "sim_report.json").exists()


@pytest.mark.parametrize("flag, value", [("--delta", "5"), ("--seed", "3")])
def test_solve_rejects_flags_it_does_not_read(tmp_path, fig_config, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", fig_config, "--out", str(tmp_path), flag, value])
    assert exc.value.code == 2


def test_overrides_and_header_roundtrip(tmp_path, fig_config):
    out = tmp_path / "out"
    assert main(["solve", "--config", fig_config, "--out", str(out),
                 "--grid", "1001", "--set", "params.psi=2.0"]) == 0
    doc = json.loads((out / "equilibrium.json").read_text())
    assert doc["config"]["params"]["psi"] == 2.0
    # the embedded config re-parses to the same resolved structure
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(doc["config"]))
    params, numerics, cblock = load_config(str(echo), command="solve")
    assert resolved_config(params, numerics, {"name": "solve"}) == doc["config"]
    # and the CSV header carries the identical config line
    header = (out / "curve_W.csv").read_text().splitlines()[1]
    assert json.loads(header.removeprefix("# config: ")) == doc["config"]
