import json
from pathlib import Path

import pytest

import transferlab as tl
from transferlab import ratelab
from transferlab.cli import build_parser, main

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).parent.parent / "configs"


def run(args):
    return main(args)


def test_help_golden():
    parser = build_parser()
    chunks = [parser.format_help()]
    for _, sub in parser._subparsers._group_actions[0].choices.items():
        chunks.append("=" * 72 + "\n" + sub.format_help())
    assert "\n".join(chunks) == (DATA / "cli_help.txt").read_text()


def test_scenario_list(capsys):
    assert run(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for sid in "1234":
        assert out.startswith(f"{sid}:") or f"\n{sid}:" in out


def test_scenario_describe(capsys):
    assert run(["scenario", "describe", "--set", "id=2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified"]["gamma"] == 1.0
    assert doc["certified"]["C_gamma"] == 2.0


def test_scenario_emit_roundtrip(tmp_path):
    out = tmp_path / "ex2.json"
    assert run(["scenario", "emit", "--set", "id=2", "--set", "cells=64",
                "--out", str(out)]) == 0
    pair = tl.load_scenario(out)
    assert pair.p.size == 64
    assert pair.certified.gamma == 1.0


def test_exponent_example2_gamma(tmp_path):
    out = tmp_path / "rep.json"
    assert run(["exponent", "--config", str(CONFIGS / "example2_exponent.json"),
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == 1.0
    assert doc["constant"] == 2.0


def test_exponent_unknown_field_rejected(capsys):
    assert run(["exponent", "--set", "scenario.id=2", "--set", "quantity=gamma",
                "--set", "bogus=1"]) == 2


def test_exponent_missing_config_file():
    assert run(["exponent", "--config", "/nonexistent/x.json"]) == 2


def test_verify_family_cmd(capsys):
    assert run(["verify-family", "--set",
                'family={"kind":"single-scale","d_h":9,"rho":2,"beta_p":0.5,'
                '"beta_q":0.5,"epsilon":0.25}']) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_ok"] is True
    assert doc["pairs"] == 256


def test_rates_deterministic_bytes(tmp_path):
    args = ["rates", "--seed", "11", "--jobs", "1",
            "--set", 'family={"kind":"single-scale","d_h":9,"rho":1,'
            '"beta_p":0.5,"beta_q":0.5,"epsilon":0.25}',
            "--set", "estimator=erm_q",
            "--set", "grid=[[0,64],[0,256]]", "--set", "trials=1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rates_tuned_cells_honour_jobs(tmp_path, monkeypatch):
    workers = []

    class Pool(ratelab.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(ratelab, "ProcessPoolExecutor", Pool)
    args = ["rates", "--seed", "0", "--config", str(CONFIGS / "target_rate_sweep.json"),
            "--set", "grid=[[0,64],[0,128],[0,256]]", "--set", "trials=20",
            "--set", "drop_smallest=0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--jobs", "1", "--out", str(a)]) == 0
    assert run(args + ["--jobs", "2", "--out", str(b)]) == 0
    assert workers == [2]
    assert a.read_bytes() == b.read_bytes()


def test_rates_requires_exactly_one_input(tmp_path):
    assert run(["rates", "--out", str(tmp_path / "x.csv"),
                "--set", "estimator=erm_q", "--set", "grid=[[0,8]]"]) == 2


def test_rates_with_theory_report(tmp_path):
    out = tmp_path / "r.csv"
    code = run(["rates", "--seed", "3", "--jobs", "1", "--out", str(out),
                "--set", 'family={"kind":"single-scale","d_h":9,"rho":1,'
                '"beta_p":0.5,"beta_q":0.5,"epsilon":0.25,"sigma_index":"all-ones"}',
                "--set", "tune=true", "--set", "estimator=erm_q",
                "--set", "grid=[[0,64],[0,128],[0,256],[0,512],[0,1024],[0,2048]]",
                "--set", "trials=60", "--set", "theory_exponent=-0.6667",
                "--set", "tolerance=0.2", "--set", 'confidence={"c":1.0,"delta":0.1}'])
    assert code == 0
    report = json.loads((tmp_path / "r.csv.report.json").read_text())
    assert report["passed"] is True


def test_adaptive_cmd_summary(tmp_path, capsys):
    out = tmp_path / "tr.jsonl"
    code = run(["adaptive", "--seed", "3", "--out", str(out),
                "--set", 'scenario={"id":2,"cells":64}', "--set", "eps=0.1",
                "--set", 'cost_p={"form":"linear","unit":0.01}',
                "--set", 'cost_q={"form":"linear","unit":1.0}',
                "--set", "trials=3", "--set", 'confidence={"c":1.0,"delta":0.1}'])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["success_rate"] == 1.0
    lines = out.read_text().strip().splitlines()
    assert all("decision" in json.loads(l) for l in lines)


def test_select_cmd(capsys):
    code = run(["select", "--seed", "4",
                "--set", 'sources=[{"id":3,"gamma":1.0,"cells":32},'
                '{"id":3,"gamma":3.0,"cells":32}]',
                "--set", "n_sources=[1024,1024]", "--set", "unlabeled=2048",
                "--set", "trials=4", "--set", 'confidence={"c":1.0,"delta":0.1}'])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["frequency"][0] >= 0.75


def test_reweight_cmd(capsys):
    dens = [[1.0] * 16, ([2.0] * 8 + [0.0] * 8)]
    code = run(["reweight", "--seed", "5",
                "--set", 'scenario={"id":2,"cells":16}',
                "--set", f"densities={json.dumps(dens)}",
                "--set", "n_p=256", "--set", "unlabeled=512", "--set", "trials=2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["chosen"]) == 2


def test_cli_runtime_error_exit_code(tmp_path):
    # adaptive on a continuous scenario without cells is a config error
    assert run(["adaptive", "--set", 'scenario={"id":2}', "--set", "eps=0.1",
                "--set", 'cost_p={"form":"linear","unit":1}',
                "--set", 'cost_q={"form":"linear","unit":1}']) == 2
    # malformed family parameters surface as runtime errors
    assert run(["verify-family", "--set",
                'family={"kind":"single-scale","d_h":7,"rho":1,"beta_p":0.5,'
                '"beta_q":0.5,"epsilon":0.25}']) == 3


def test_cli_idempotent_given_seed(tmp_path, capsys):
    args = ["select", "--seed", "8",
            "--set", 'sources=[{"id":3,"gamma":1.0,"cells":32},'
            '{"id":3,"gamma":3.0,"cells":32}]',
            "--set", "n_sources=[512,512]", "--set", "unlabeled=1024",
            "--set", "trials=3", "--set", 'confidence={"c":1.0,"delta":0.1}']
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_select_rejects_empty_sources(capsys):
    assert run(["select", "--set", "sources=[]", "--set", "n_sources=[]",
                "--set", "unlabeled=64"]) == 2
    assert "sources" in capsys.readouterr().err


def test_reweight_rejects_densities_off_the_support(capsys):
    for dens in ([[1, 1, 1]], [[1, 1, 1, 1], [1, 1, 1, 1, 9, 9]]):
        assert run(["reweight", "--set", 'scenario={"id":2,"cells":4}',
                    "--set", f"densities={json.dumps(dens)}",
                    "--set", "n_p=16", "--set", "unlabeled=16"]) == 2
        assert "densities" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["select", "--set", 'sources=[{"id":3,"gamma":1.0,"cells":8}]',
     "--set", "n_sources=[16]", "--set", "unlabeled=64"],
    ["reweight", "--set", 'scenario={"id":2,"cells":4}', "--set", "densities=[[1,1,1,1]]",
     "--set", "n_p=16", "--set", "unlabeled=16"],
    ["adaptive", "--set", 'scenario={"id":2,"cells":16}', "--set", "eps=0.2",
     "--set", 'cost_p={"form":"linear","unit":1}', "--set", 'cost_q={"form":"linear","unit":1}'],
    ["rates", "--out", "unused.csv", "--set", 'scenario={"id":2,"cells":16}',
     "--set", "estimator=transfer", "--set", "grid=[[4,4]]"],
], ids=lambda c: c[0])
def test_zero_trials_rejected(command, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(command + ["--set", "trials=0"]) == 2
    assert "trials" in capsys.readouterr().err


def test_adaptive_rejects_removed_step6_width(capsys):
    assert run(["adaptive", "--config", str(CONFIGS / "cheap_source_adaptive.json"),
                "--set", "trials=1", "--set", "step6_width=basic"]) == 2
    assert "step6_width" in capsys.readouterr().err


def test_select_rejects_sources_on_different_supports(capsys):
    assert run(["select", "--set", 'sources=[{"id":3,"gamma":1.0,"cells":8},'
                '{"id":3,"gamma":1.0,"cells":16}]',
                "--set", "n_sources=[16,16]", "--set", "unlabeled=64"]) == 2
    assert "sources" in capsys.readouterr().err


def test_rates_rejects_sigma_index_out_of_range(tmp_path, capsys):
    family = ('family={"kind":"single-scale","d_h":9,"rho":1,"beta_p":0.5,'
              '"beta_q":0.5,"epsilon":0.25,"sigma_index":%d}')
    for ix in (999, 256, -1):
        assert run(["rates", "--jobs", "1", "--out", str(tmp_path / "r.csv"),
                    "--set", family % ix, "--set", "estimator=erm_q",
                    "--set", "grid=[[0,8]]", "--set", "trials=1"]) == 2
        assert "sigma_index" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("override,field", [
    (["--set", "axis=n_x"], "axis"),
    (["--set", "statistic=mode"], "statistic"),
    (["--set", "grid=[[0,64],[0,128],[0,256],[0,512]]"], "drop_smallest"),
    (["--set", "axis=n_p"], "n_p"),
], ids=["axis", "statistic", "few-n_q", "few-n_p"])
def test_rates_fit_options_fail_before_trials(override, field, tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run(["rates", "--jobs", "1", "--out", str(out),
                "--config", str(CONFIGS / "target_rate_sweep.json")] + override) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_adaptive_rejects_small_explicit_unlabeled(capsys):
    need = tl.unlabeled_requirement(0.1, 0.1, 1)
    assert run(["adaptive", "--config", str(CONFIGS / "cheap_source_adaptive.json"),
                "--set", f"unlabeled={need - 1}"]) == 2
    err = capsys.readouterr().err
    assert "unlabeled" in err and str(need) in err


CONFIG_COMMANDS = {
    "cheap_source_adaptive.json": ["adaptive", "--set", "trials=2"],
    "example2_exponent.json": ["exponent"],
    "single_scale_verify.json": ["verify-family"],
    "target_rate_sweep.json": ["rates", "--set", "trials=5"],
}


def test_every_shipped_config_is_covered():
    assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(CONFIG_COMMANDS)


@pytest.mark.parametrize("name", sorted(CONFIG_COMMANDS))
def test_shipped_config_runs(name, tmp_path, capsys):
    command = CONFIG_COMMANDS[name]
    assert run(command + ["--config", str(CONFIGS / name), "--seed", "0", "--jobs", "1",
                          "--out", str(tmp_path / "out")]) == 0
