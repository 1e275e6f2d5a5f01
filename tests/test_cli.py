import concurrent.futures
import copy
import json
import math
import shlex
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
import transferlab as tl
from transferlab import cli
from transferlab.cli import build_parser, load_config, main

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).parent.parent / "configs"
README = Path(__file__).parent.parent / "README.md"


def run(args):
    return main(args)


def named_fields(err: str) -> list[str]:
    """The dotted paths an exit-2 message starts with."""
    assert err.startswith("error: "), err
    return err[len("error: "):].split(": ", 1)[0].split(", ")


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


def _payload(doc) -> dict:
    """A library result as the CLI prints it, read back."""
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize("quantity", ["d_a", "d_y", "beta_p", "beta_q"])
def test_exponent_prints_the_library_value(quantity, capsys):
    argv = ["exponent", "--set", "scenario.id=2", "--set", f"quantity={quantity}"]
    pair, cls = tl.example_scenario(2), tl.threshold_class()
    if quantity in ("d_a", "d_y"):
        want = {"quantity": quantity, "value": getattr(tl, quantity)(pair, cls)}
    else:
        argv += ["--set", "constant=2"]
        side = pair.p if quantity == "beta_p" else pair.q
        want = {"quantity": quantity, **tl.beta_max(side, cls, 2.0).to_json_dict()}
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out) == _payload(want)


@pytest.mark.parametrize("scenario,quantity,build,op", [
    ('{"id":1}', "rho", lambda: tl.example_scenario(1), tl.rho_min),
    ('{"id":1,"n_angles":8}', "gamma", lambda: tl.example_scenario(1, n_angles=8), tl.gamma_min),
    ('{"rcs_gap":0.2}', "rho_prime", lambda: tl.rcs_violating_pair(0.2), tl.rho_prime_min),
], ids=["ring-rho", "ring-8-gamma", "rcs-rho_prime"])
def test_exponent_on_finite_scenarios(scenario, quantity, build, op, capsys):
    assert run(["exponent", "--set", f"scenario={scenario}", "--set", f"quantity={quantity}"]) == 0
    want = {"quantity": quantity, **op(*build(), 1.0).to_json_dict()}
    assert json.loads(capsys.readouterr().out) == _payload(want)


def test_an_infinite_exponent_prints_null(capsys):
    # the source-optimal classifier has target excess 0.15 at zero source
    # excess, so no finite rho fits; strict JSON has no Infinity to print
    assert tl.rho_min(*tl.rcs_violating_pair(0.15), 1.0).value == math.inf
    assert run(["exponent", "--set", "scenario.rcs_gap=0.15", "--set", "quantity=rho"]) == 0
    assert json.loads(capsys.readouterr().out, parse_constant=refuse_constant)["value"] is None


def test_an_unsatisfiable_noise_exponent_prints_null_with_its_witness(capsys):
    # at constant 0.4 even beta = 0 fails on P's side: the value 0.0 it
    # printed read as "beta_max = 0 holds"
    pair, cls = tl.rcs_violating_pair(0.15)
    report = tl.beta_max(pair.p, cls, 0.4)
    assert (report.value, report.satisfied) == (0.0, False)
    assert run(["exponent", "--set", 'scenario={"rcs_gap":0.15}', "--set", "quantity=beta_p",
                "--set", "constant=0.4"]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
    assert out == {"quantity": "beta_p", "value": None, "constant": 0.4,
                   "witness_labels": list(report.witness.labels), "witness_threshold": None}


def test_scenario_describe_ring(capsys):
    assert run(["scenario", "describe", "--set", "id=1"]) == 0
    pair, _ = tl.example_scenario(1)
    assert json.loads(capsys.readouterr().out) == {
        "id": 1, "summary": cli.SCENARIO_SUMMARY[1], "gamma": None, "discrete": True,
        "certified": _payload(pair.certified.to_json_dict())}


@pytest.mark.parametrize("action", ["describe", "emit"])
def test_scenario_without_id_exits_2_naming_it(action, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["scenario", action, "--out", str(out)]) == 2
    assert named_fields(capsys.readouterr().err) == ["id"]
    assert not out.exists()


def test_verify_two_scale_family_cmd(capsys):
    doc = {"kind": "two-scale", "d_h": 9, "rho": 4.0, "beta_p": 0.5, "beta_q": 0.5,
           "eps1": 0.25, "eps2": 0.125}
    assert run(["verify-family", "--set", f"family={json.dumps(doc)}", "--set", "rho=3"]) == 0
    fam = tl.build_two_scale_family(9, 4.0, 0.5, 0.5, 0.25, 0.125)
    reports = tl.verify_family(fam, rho=3.0)
    assert json.loads(capsys.readouterr().out) == _payload({
        "family": fam.params, "kind": "two-scale", "pairs": len(fam),
        "all_ok": all(r.ok for r in reports), "per_sigma_ok": [r.ok for r in reports],
        "violations": sum(members.size for r in reports
                          for members, _, _ in r.violations.values())})


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

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    args = ["rates", "--seed", "0", "--config", str(CONFIGS / "target_rate_sweep.json"),
            "--set", "grid=[[0,64],[0,128],[0,256]]", "--set", "trials=20",
            "--set", "drop_smallest=0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--jobs", "1", "--out", str(a)]) == 0
    assert run(args + ["--jobs", "2", "--out", str(b)]) == 0
    assert workers == [2]
    assert a.read_bytes() == b.read_bytes()


def test_rates_runs_in_process_without_jobs(tmp_path, monkeypatch):
    # --jobs defaulted to 0, which started a worker per core
    class Refused(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            raise AssertionError("rates started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Refused)
    assert run(["rates", "--config", str(CONFIGS / "target_rate_sweep.json"),
                "--set", "trials=5", "--out", str(tmp_path / "r.csv")]) == 0


DRAWING = ("rates", "adaptive", "select", "reweight")


@pytest.mark.parametrize("name", cli._COMMANDS)
def test_seed_is_an_option_of_the_commands_that_draw(name, capsys):
    # scenario, exponent and verify-family took a --seed that they never read
    argv = [name] + (["list"] if name == "scenario" else []) + ["--out", "unused", "--seed", "1"]
    if name in DRAWING:
        assert build_parser().parse_args(argv).seed == 1
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_rates_tuned_cells_use_family_seed(tmp_path):
    # at d_h = 12 the sign vectors are a seeded packing, so sigma_index 5 names
    # a different pair under each family.seed, in every tuned cell too
    out = {}
    for seed in (0, 3):
        out[seed] = tmp_path / f"seed{seed}.csv"
        assert run(["rates", "--seed", "1", "--jobs", "1", "--out", str(out[seed]),
                    "--set", 'family={"kind":"single-scale","d_h":12,"rho":1,'
                    '"beta_p":0.5,"beta_q":0.5,"epsilon":0.25,"sigma_index":5,'
                    f'"seed":{seed}}}', "--set", "tune=true",
                    "--set", "estimator=erm_q", "--set", "grid=[[0,64],[0,256]]",
                    "--set", "trials=5"]) == 0
    assert out[0].read_bytes() != out[3].read_bytes()


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
    # the returned cut member is named by its threshold alone
    _, cls = tl.discretize_pair(tl.example_scenario(2), 16)
    assert doc["last_hypothesis_labels"] is None
    assert doc["last_hypothesis_threshold"] in cls.thresholds.tolist()


# verify-family stdout recorded before pairs were derived from one profile per
# sign-flip orbit: the shipped config, the same at rho 1.99 (one violation per
# pair), a d_h = 13 family below its certified constant (684 736 violations)
# and a family whose P margin underflows, so that every point is a tie point
VERIFY_GOLDEN_RUNS = {
    "shipped": ["--config", str(CONFIGS / "single_scale_verify.json")],
    "rho_1_99": ["--config", str(CONFIGS / "single_scale_verify.json"), "--set", "rho=1.99"],
    "d13_constant_0_9": ["--set", 'family={"kind":"single-scale","d_h":13,"rho":1,"beta_p":0.9,'
                         '"beta_q":0.9,"epsilon":0.1,"seed":3}', "--set", "constant=0.9"],
    "tie": ["--set", 'family={"kind":"single-scale","d_h":9,"rho":2000,"beta_p":0,'
            '"beta_q":0.5,"epsilon":0.25}', "--set", "beta_p=0.5"],
}


@pytest.mark.parametrize("name", VERIFY_GOLDEN_RUNS)
def test_verify_family_golden_bytes(name, capsys):
    assert run(["verify-family"] + VERIFY_GOLDEN_RUNS[name]) == 0
    golden = DATA / "verify_family_golden" / f"{name}.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


EXPONENT_GOLDEN_RUNS = {
    "shipped": ["--config", str(CONFIGS / "example2_exponent.json")],
    "cells16_rho": ["--config", str(CONFIGS / "example2_exponent.json"),
                    "--set", "scenario.cells=16", "--set", "quantity=rho"],
}


@pytest.mark.parametrize("name", EXPONENT_GOLDEN_RUNS)
def test_exponent_golden_bytes(name, capsys):
    # a grid witness (shipped) and a cut witness (cells16_rho) are each named
    # by their threshold alone
    assert run(["exponent"] + EXPONENT_GOLDEN_RUNS[name]) == 0
    golden = DATA / "exponent_golden" / f"{name}.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_rates_shipped_golden_bytes(jobs, tmp_path, capsys):
    # the shipped rates config's CSV and stdout report, recorded before a
    # cell's trial streams were built in one batch
    out = tmp_path / "shipped.csv"
    assert run(["rates", "--config", str(CONFIGS / "target_rate_sweep.json"), "--jobs", jobs,
                "--out", str(out)]) == 0
    golden = DATA / "rates_golden"
    assert capsys.readouterr().out.encode() == (golden / "shipped.json").read_bytes()
    assert out.read_bytes() == (golden / "shipped.csv").read_bytes()


def test_adaptive_shipped_golden_bytes(tmp_path, capsys):
    # the README's adaptive example: its stdout summary and every round record
    out = tmp_path / "shipped.jsonl"
    assert run(["adaptive", "--config", str(CONFIGS / "cheap_source_adaptive.json"),
                "--seed", "7", "--out", str(out)]) == 0
    golden = DATA / "adaptive_golden"
    assert capsys.readouterr().out.encode() == (golden / "shipped.json").read_bytes()
    assert out.read_bytes() == (golden / "shipped.jsonl").read_bytes()


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    # adaptive on a continuous scenario without cells is a config error
    assert run(["adaptive", "--set", 'scenario={"id":2}', "--set", "eps=0.1",
                "--set", 'cost_p={"form":"linear","unit":1}',
                "--set", 'cost_q={"form":"linear","unit":1}']) == 2
    assert "scenario" in named_fields(capsys.readouterr().err)
    # a family parameter the family constructor refuses is a config error too
    assert run(["verify-family", "--set",
                'family={"kind":"single-scale","d_h":7,"rho":1,"beta_p":0.5,'
                '"beta_q":0.5,"epsilon":0.25}']) == 2
    assert "family.d_h" in named_fields(capsys.readouterr().err)
    # a valid config whose run fails is a runtime error
    out = tmp_path / "runs.jsonl"
    assert run(["adaptive", "--config", str(CONFIGS / "cheap_source_adaptive.json"),
                "--set", "trials=1", "--set", "max_rounds=1", "--out", str(out)]) == 3
    assert "no stopping rule fired" in capsys.readouterr().err
    # a grid of 4 thresholds that misses h*_P gains it, so E_P <= 0 is no runtime error
    assert run(["exponent", "--set", "scenario.id=2", "--set", "quantity=d_y_localized",
                "--set", "eps=0", "--set", "grid_size=4"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0.0


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


def test_select_draws_pairwise_distinct_seeds(monkeypatch, capsys):
    seeds = []

    def recording(sample):
        def wrapper(dist, n, seed):
            seeds.append(seed)
            return sample(dist, n, seed)
        return wrapper

    monkeypatch.setattr(cli, "sample_labeled", recording(tl.sample_labeled))
    monkeypatch.setattr(cli, "sample_unlabeled", recording(tl.sample_unlabeled))
    source = '{"id":3,"gamma":1.0,"cells":8}'
    assert run(["select", "--set", f"sources=[{source},{source},{source}]",
                "--set", "n_sources=[8,8,8]", "--set", "n_q=4", "--set", "unlabeled=16",
                "--set", "trials=40"]) == 0
    # per trial: three sources, the target sample and the unlabeled pool
    assert len(seeds) == 40 * 5
    assert len(set(seeds)) == len(seeds)


# one run per command that draws, each on finite-support pairs
POINTS_VS_COUNTS = {
    "select": ["select", "--seed", "4", "--set",
               'sources=[{"id":3,"gamma":1.0,"cells":64},{"id":3,"gamma":3.0,"cells":64}]',
               "--set", "n_sources=[512,512]", "--set", "n_q=16", "--set", "unlabeled=1024",
               "--set", "trials=3"],
    "reweight": ["reweight", "--seed", "2", "--set", 'scenario={"id":2,"cells":16}',
                 "--set", "densities=[[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1],"
                 "[2,2,2,2,2,2,2,2,0,0,0,0,0,0,0,0]]",
                 "--set", "n_p=512", "--set", "n_q=16", "--set", "unlabeled=1024",
                 "--set", "trials=3"],
    "adaptive": ["adaptive", "--config", str(CONFIGS / "cheap_source_adaptive.json"),
                 "--seed", "7", "--set", "trials=3"],
}


@pytest.mark.parametrize("command", list(POINTS_VS_COUNTS))
def test_cli_bytes_equal_on_points_and_counts(command, monkeypatch, tmp_path, capsys):
    # the same draws handed over as support-index points, expanded from the
    # counts, give the same bytes: counts are integers, so every sum is exact
    def output(tag):
        out = tmp_path / f"{tag}.out"
        assert run(POINTS_VS_COUNTS[command] + ["--out", str(out)]) == 0
        return capsys.readouterr().out, out.read_bytes()

    counts = output("counts")
    expanded = []

    def as_points(sample):
        def draw(dist, n, seed):
            got = sample(dist, n, seed)
            expanded.append(len(got))
            return oracles.points_of(got, seed)
        return draw

    monkeypatch.setattr(cli, "sample_labeled", as_points(tl.sample_labeled))
    monkeypatch.setattr(cli, "sample_unlabeled", as_points(tl.sample_unlabeled))
    points = output("points")
    assert sum(expanded) > 0
    assert points == counts


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
              '"beta_q":0.5,"epsilon":0.25,"sigma_index":%s}')
    for ix in ("999", "256", "-1", "[1]", "[-1]", "[1,1]"):
        assert run(["rates", "--jobs", "1", "--out", str(tmp_path / "r.csv"),
                    "--set", family % ix, "--set", "estimator=erm_q",
                    "--set", "grid=[[0,8]]", "--set", "trials=1"]) == 2
        assert named_fields(capsys.readouterr().err) == ["family.sigma_index"]
    assert not (tmp_path / "r.csv").exists()


def test_rates_fit_leaves_out_a_zero_axis_row(tmp_path, capsys):
    # log 0 is undefined: the (64, 0) row is left out of the n_q fit and counted
    out = tmp_path / "r.csv"
    assert run(["rates", "--jobs", "1", "--out", str(out),
                "--config", str(CONFIGS / "target_rate_sweep.json"),
                "--set", "estimator=transfer", "--set", "drop_smallest=0",
                "--set", "grid=[[64,16],[0,32],[64,64],[256,128],[64,0]]"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["n_used"], report["n_excluded"]) == (4, 1)


@pytest.mark.parametrize("override,field", [
    (["--set", "axis=n_x"], "axis"),
    (["--set", "statistic=mode"], "statistic"),
    (["--set", "grid=[[0,64],[0,128],[0,256],[0,512]]"], "drop_smallest"),
    (["--set", "axis=n_p"], "n_p"),
    # log 0 is undefined, so a zero n_q is no usable value
    (["--set", "drop_smallest=0", "--set", "grid=[[0,0],[0,32],[0,64]]"], "grid"),
], ids=["axis", "statistic", "few-n_q", "few-n_p", "zero-n_q"])
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
    assert run(command + ["--config", str(CONFIGS / name), "--jobs", "1",
                          "--out", str(tmp_path / "out")]) == 0


FAMILY9 = '{"kind":"single-scale","d_h":9,"rho":1,"beta_p":0.5,"beta_q":0.5,"epsilon":0.25}'
EXPONENT = ["exponent", "--set", "scenario.id=2", "--set", "quantity=gamma"]
VERIFY = ["verify-family", "--set", "family=" + FAMILY9]
RATES = ["rates", "--set", 'scenario={"id":2,"cells":16}', "--set", "estimator=erm_q",
         "--set", "grid=[[0,8]]", "--set", "trials=1"]
ADAPTIVE = ["adaptive", "--config", str(CONFIGS / "cheap_source_adaptive.json"),
            "--set", "trials=1"]
SELECT = ["select", "--set", 'sources=[{"id":3,"gamma":1.0,"cells":8}]',
          "--set", "n_sources=[16]", "--set", "unlabeled=64"]
REWEIGHT = ["reweight", "--set", 'scenario={"id":2,"cells":4}', "--set", "densities=[[1,1,1,1]]",
            "--set", "n_p=16", "--set", "unlabeled=16"]

BAD_FIELDS = [
    # accepted with another meaning, or ignored
    (RATES + ["--set", "tune=true"], "tune"),
    (RATES + ["--set", "c1=0.5"], "c1"),
    (RATES + ["--set", "axis=n_p"], "axis"),
    (["exponent", "--set", 'scenario={"id":2,"cells":8}', "--set", "quantity=gamma",
      "--set", "grid_size=10"], "grid_size"),
    (EXPONENT + ["--set", "eps=0.1"], "eps"),
    (["exponent", "--set", "scenario.id=2", "--set", "quantity=d_a", "--set", "constant=2"],
     "constant"),
    (["scenario", "describe", "--set", "id=2", "--set", "n_angles=8"], "n_angles"),
    (EXPONENT + ["--set", "scenario.n_angles=8"], "scenario.n_angles"),
    (["scenario", "describe", "--set", "id=2", "--set", "gamma=2"], "gamma"),
    (["scenario", "emit", "--set", "id=1", "--set", "cells=8"], "cells"),
    (VERIFY + ["--set", "family.eps1=0.1"], "family.eps1"),
    (VERIFY + ["--set", "family.sigma_index=3"], "family.sigma_index"),
    (ADAPTIVE + ["--set", "cost_q.exponent=0.5"], "cost_q.exponent"),
    (ADAPTIVE + ["--set", "q_only=no"], "q_only"),
    (SELECT + ["--set", "trials=2.9"], "trials"),
    (["scenario", "describe", "--set", "id=2.7"], "id"),
    (["scenario", "list", "--set", "id=abc"], "id"),
    (EXPONENT + ["--jobs", "-1"], "--jobs"),
    # --jobs 0 started a worker per core, and jobs=0 ran in-process
    (RATES + ["--jobs", "0"], "--jobs"),
    # refused only by the library, after setup
    (SELECT + ["--set", "trials=abc"], "trials"),
    (ADAPTIVE + ["--set", "unlabeled=abc"], "unlabeled"),
    (ADAPTIVE + ["--set", "cost_p=3"], "cost_p"),
    (ADAPTIVE + ["--set", "confidence=5"], "confidence"),
    (RATES + ["--set", "grid=[[0]]"], "grid[0]"),
    (["rates", "--config", str(CONFIGS / "target_rate_sweep.json"), "--set", "trials=2",
      "--set", "theory_exponent=null"], "theory_exponent"),
    (ADAPTIVE + ["--set", "confidence.delta=2"], "confidence.delta"),
    (EXPONENT + ["--set", "scenario.id=9"], "scenario.id"),
    (["exponent", "--set", 'scenario={"id":3}', "--set", "quantity=gamma"], "scenario.gamma"),
    (EXPONENT + ["--set", "scenario.cells=0"], "scenario.cells"),
    (RATES + ["--set", "grid=[[-5,8]]"], "grid[0][0]"),
    (SELECT + ["--set", "n_sources=[-4]"], "n_sources[0]"),
    (SELECT + ["--set", "unlabeled=-1"], "unlabeled"),
    (REWEIGHT + ["--set", "pseudo_dim=-3"], "pseudo_dim"),
    (REWEIGHT + ["--set", "densities=[[1,1,-1,1]]"], "densities"),
    (ADAPTIVE + ["--set", "cost_p.form=foo"], "cost_p.form"),
    (ADAPTIVE + ["--set", "kappa=-1"], "kappa"),
    (ADAPTIVE + ["--set", "max_rounds=0"], "max_rounds"),
    (EXPONENT + ["--set", "constant=-1"], "constant"),
    (["exponent", "--set", "scenario.id=2", "--set", "quantity=d_y_localized",
      "--set", "eps=-1"], "eps"),
    (EXPONENT + ["--set", "grid_size=0"], "grid_size"),
    (VERIFY + ["--set", "family.d_h=30"], "family.d_h"),
    (VERIFY + ["--set", "family.epsilon=0.9"], "family.epsilon"),
    (["scenario", "describe", "--set", "id=7"], "id"),
    # refused before, but naming something else
    (["verify-family", "--set", "family=abc"], "family"),
    # accepted with another meaning: a negative drop is no drop, and a
    # negative tolerance fails every fit
    (["rates", "--config", str(CONFIGS / "target_rate_sweep.json"),
      "--set", "drop_smallest=-1"], "drop_smallest"),
    (["rates", "--config", str(CONFIGS / "target_rate_sweep.json"),
      "--set", "tolerance=-0.1"], "tolerance"),
    # exited 3: a NaN weight reached the weighted kernels
    (REWEIGHT + ["--set", "densities=[[NaN,1,1,1],[1,1,1,1]]"], "densities"),
    # NaN passed a library range guard: exited 0 printing rho 1.0, named the
    # family, or exited 3
    (["exponent", "--set", 'scenario={"id":3,"gamma":NaN}', "--set", "quantity=rho"],
     "scenario.gamma"),
    (["verify-family", "--config", str(CONFIGS / "single_scale_verify.json"),
      "--set", "family.rho=NaN"], "family.rho"),
    (ADAPTIVE + ["--set", "cost_p.unit=NaN"], "cost_p.unit"),
    (["rates", "--config", str(CONFIGS / "target_rate_sweep.json"), "--set", "confidence.c=NaN",
      "--set", "estimator=transfer", "--set", "trials=2"], "confidence.c"),
    # infinity passed `> 0`: the radius at zero disagreement was inf * 0 = NaN,
    # an infinite kappa raised OverflowError, a constant scaled every bound
    (RATES + ["--set", "estimator=transfer", "--set", "confidence.c=Infinity"], "confidence.c"),
    (ADAPTIVE + ["--set", "confidence.c=Infinity"], "confidence.c"),
    (SELECT + ["--set", "confidence.c=Infinity"], "confidence.c"),
    (REWEIGHT + ["--set", "confidence.c=Infinity"], "confidence.c"),
    (EXPONENT + ["--set", "constant=Infinity"], "constant"),
    (ADAPTIVE + ["--set", "kappa=Infinity"], "kappa"),
    (["rates", "--config", str(CONFIGS / "target_rate_sweep.json"), "--set", "trials=2",
      "--set", "c1=Infinity"], "c1"),
    # verify-family checked none of its constant and overrides: constant -1
    # reported 195 840 violations, and -Infinity raised a NaN warning
    (VERIFY + ["--set", "constant=Infinity"], "constant"),
    (VERIFY + ["--set", "constant=-1"], "constant"),
    (VERIFY + ["--set", "rho=-Infinity"], "rho"),
    (VERIFY + ["--set", "beta_p=-Infinity"], "beta_p"),
    (VERIFY + ["--set", "beta_q=2"], "beta_q"),
    # sizes past 2^53: an inexact 2^55 cell exited 0, and 2^63 draws exited 1
    (["rates", "--config", str(CONFIGS / "target_rate_sweep.json"), "--set", "trials=2",
      "--set", "grid=[[0,16],[0,32],[0,36028797018963968]]", "--set", "drop_smallest=0"],
     "grid[2][1]"),
    (["rates", "--config", str(CONFIGS / "target_rate_sweep.json"), "--set", "trials=2",
      "--set", "grid=[[0,16],[0,32],[0,9223372036854775808]]", "--set", "drop_smallest=0"],
     "grid[2][1]"),
    (SELECT + ["--set", "n_sources=[9007199254740993]"], "n_sources[0]"),
    (SELECT + ["--set", "n_q=9007199254740993"], "n_q"),
    (SELECT + ["--set", "unlabeled=9007199254740993"], "unlabeled"),
    (REWEIGHT + ["--set", "n_p=9007199254740993"], "n_p"),
    (REWEIGHT + ["--set", "n_q=9007199254740993"], "n_q"),
    (REWEIGHT + ["--set", "unlabeled=9007199254740993"], "unlabeled"),
    (ADAPTIVE + ["--set", "unlabeled=9007199254740993"], "unlabeled"),
    # a NaN or infinite tol passed every check (all_ok true at constant 0.5,
    # where tol 1e-9 finds 135 936 violations), a negative one failed exact fits
    (VERIFY + ["--set", "tol=NaN"], "tol"),
    (VERIFY + ["--set", "tol=Infinity"], "tol"),
    (VERIFY + ["--set", "tol=-1"], "tol"),
    # non-finite values that reached a payload as bare NaN or Infinity
    (["rates", "--config", str(CONFIGS / "target_rate_sweep.json"), "--set", "trials=2",
      "--set", "theory_exponent=Infinity"], "theory_exponent"),
    (["rates", "--config", str(CONFIGS / "target_rate_sweep.json"), "--set", "trials=2",
      "--set", "theory_exponent=-0.5", "--set", "tolerance=Infinity"], "tolerance"),
    (["scenario", "describe", "--set", "id=3", "--set", "gamma=Infinity"], "gamma"),
    (["exponent", "--set", "scenario.id=2", "--set", "quantity=d_y_localized",
      "--set", "eps=Infinity"], "eps"),
    (VERIFY + ["--set", "family.rho=Infinity"], "family.rho"),
    (ADAPTIVE + ["--set", "cost_q.unit=Infinity"], "cost_q.unit"),
    # refused all along, but by no test
    (["verify-family", "--set", 'family={"kind":"single-scale","d_h":9,"rho":1,"beta_p":0.5,'
      '"beta_q":0.5}'], "family.epsilon"),
    (["verify-family", "--set", 'family={"d_h":9,"rho":1,"beta_p":0.5,"beta_q":0.5,'
      '"epsilon":0.25}'], "family.kind"),
    (["select", "--set", 'sources=[{"id":3,"gamma":1.0,"cells":8},{"id":3,"gamma":2.0,"cells":8}]',
      "--set", "n_sources=[4]", "--set", "unlabeled=64"], "n_sources"),
    (["select", "--set", 'sources=[{"id":2}]', "--set", "n_sources=[16]", "--set", "unlabeled=64"],
     "sources"),
    (["reweight", "--set", 'scenario={"id":2}', "--set", "densities=[[1,1,1,1]]",
      "--set", "n_p=16", "--set", "unlabeled=16"], "scenario"),
    # a two-scale family dropped a point of an even d_h and exited 0 reporting d_h 10
    (["verify-family", "--set", 'family={"kind":"two-scale","d_h":10,"rho":2.0,"beta_p":0.5,'
      '"beta_q":0.5,"eps1":0.25,"eps2":0.125}'], "family.d_h"),
    # a two-scale d_h below 5 named only the family
    (["verify-family", "--set", 'family={"kind":"two-scale","d_h":3,"rho":2.0,"beta_p":0.5,'
      '"beta_q":0.5,"eps1":0.25,"eps2":0.125}'], "family.d_h"),
]


@pytest.mark.parametrize("argv,field", BAD_FIELDS,
                         ids=[f"{i}-{a[0]}-{f}" for i, (a, f) in enumerate(BAD_FIELDS)])
def test_bad_field_exits_2_and_names_it(argv, field, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert field in named_fields(capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["verify-family", "--set", "foo"], "--set expects key=value"),
    (["verify-family", "--set", "a=1", "--set", "a.b=2"], "conflicts with a scalar"),
    (["verify-family", "--config", "LIST"], "config file must hold a JSON object"),
    (["rates", "--config", str(CONFIGS / "target_rate_sweep.json"), "--out", ""],
     "rates needs --out for the CSV table"),
], ids=["set-without-value", "set-under-scalar", "config-not-object", "rates-without-out"])
def test_bad_command_line_exits_2_with_its_message(argv, message, tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[1]")
    assert run([str(listed) if a == "LIST" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("overrides,message", [
    (["q_only=true", "eps=1e-16"], "above the 2^53 draws a sample holds"),
    (["confidence.c=1e300"], "draws is above the 2^53 a sample holds"),
    (["eps=1e-18"], "above the 2^53 draws a sample holds"),
    (["kappa=1e300"], "above the 2^53 draws a sample holds"),
    (["eps=1e-320"], "the unlabeled requirement is inf at eps=1e-320"),
    (["confidence.delta=1e-320"], "the unlabeled requirement is inf at eps=0.1, delta=1e-320"),
    (["cost_p.unit=1e-320"], "budget 1.0 needs inf draws at unit 1e-320"),
    (["cost_p.form=power", "cost_p.exponent=1e-320"], "needs inf draws at unit 0.01 and exponent"),
], ids=["q-only-eps", "huge-c", "eps", "kappa", "tiny-eps", "tiny-delta", "tiny-unit",
        "tiny-exponent"])
def test_adaptive_past_2_53_draws_exits_3_naming_the_size(overrides, message, capsys):
    # these ran into a NaN radius at 2^55 draws (exit 3, "zero-size array")
    # or an OverflowError traceback (exit 1)
    argv = ADAPTIVE + [a for o in overrides for a in ("--set", o)]
    assert run(argv) == 3
    assert message in capsys.readouterr().err


def three_point_doc(**fields) -> dict:
    doc = {"support": [0.0, 1.0, 2.0], "mass_p": [0.2, 0.3, 0.5], "eta_p": [0.9, 0.8, 0.1],
           "mass_q": [0.5, 0.3, 0.2], "eta_q": [1.0, 0.7, 0.0], "certified": None}
    return {**doc, **fields}


@pytest.mark.parametrize("doc,message", [
    # the same pair with its points in another order: the threshold class
    # would be projected onto the sorted points, mass and eta left in file order
    (three_point_doc(support=[1.0, 0.0, 2.0], mass_p=[0.3, 0.2, 0.5], eta_p=[0.8, 0.9, 0.1],
                     mass_q=[0.3, 0.5, 0.2], eta_q=[0.7, 1.0, 0.0]), "strictly increasing"),
    (three_point_doc(support=[0.0, 1.0, 1.0]), "strictly increasing"),
    (three_point_doc(mass_p=[0.2, float("nan"), 0.5]), "mass[1] is nan"),
    (three_point_doc(support=[0.0, float("nan"), 2.0]), "support[1] is nan"),
    # loaded with a misspelled key and a string constant (exit 0), ended in
    # an AttributeError traceback (exit 1), or exited 3
    (three_point_doc(certified={"rho": "two", "gama": 1.0}), "unknown certified fields"),
    (three_point_doc(certified={"rho": "two"}), "certified.rho must be a number or null"),
    (three_point_doc(certified=[1, 2]), "certified must be a JSON object or null"),
    (5, "a scenario must be a JSON object"),
    # strings and bools loaded (exit 0), a dict exited 3 and a null named eta
    (three_point_doc(mass_p=["0.2", "0.3", "0.5"]), "mass_p[0] must be a number, got '0.2'"),
    (three_point_doc(eta_p=[True, False, True]), "eta_p[0] must be a number, got True"),
    (three_point_doc(mass_p={"a": 1}), "mass_p must be a list of numbers"),
    (three_point_doc(eta_q=[None, 1, 0]), "eta_q[0] must be a number, got None"),
], ids=["unsorted", "repeated", "nan-mass", "nan-support", "certified-key", "certified-value",
        "certified-list", "not-an-object", "string-mass", "bool-eta", "dict-mass", "null-eta"])
def test_bad_scenario_file_exits_2_naming_it(doc, message, tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))  # json writes and reads NaN
    scenario = json.dumps({"file": str(path)})
    assert run(["exponent", "--set", f"scenario={scenario}", "--set", "quantity=rho"]) == 2
    err = capsys.readouterr().err
    assert named_fields(err) == ["scenario.file"] and message in err
    sources = json.dumps([{"id": 2, "cells": 3}, {"file": str(path)}])
    assert run(["select", "--set", f"sources={sources}", "--set", "n_sources=[4,4]",
                "--set", "unlabeled=4"]) == 2
    err = capsys.readouterr().err
    assert named_fields(err) == ["sources[1].file"] and message in err


def readme_commands() -> list[list[str]]:
    """Every `transferlab ...` line of the README's "Command line" block, with
    `configs/` paths made absolute."""
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [[str(CONFIGS.parent / a) if a.startswith("configs/") else a
             for a in shlex.split(line)[1:]]
            for line in lines if line.startswith("transferlab ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda a: "-".join(a[:2]))
def test_readme_example_runs(argv, tmp_path):
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    assert run(argv + ["--jobs", "1"]) == 0


def _examples():
    """(command words, config) of each shipped config and README example."""
    parser = build_parser()
    argvs = [command + ["--config", str(CONFIGS / name)]
             for name, command in CONFIG_COMMANDS.items()] + readme_commands()
    seen = []
    for argv in argvs:
        args = parser.parse_args(argv + ["--out", "unused"])
        words = [args.command] + ([args.action] if args.command == "scenario" else [])
        example = (words, load_config(args))
        if example[1] and example not in seen:
            seen.append(example)
    return seen


def _paths(node, path=""):
    """Dotted path of every object key under `node`, through lists of objects."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        sub = f"{path}[{key}]" if isinstance(node, list) else (f"{path}.{key}" if path else key)
        if isinstance(node, dict):
            yield sub
        if isinstance(value, dict) or (isinstance(value, list) and value
                                       and all(isinstance(v, dict) for v in value)):
            yield from _paths(value, sub)


def _walk(node, keys):
    """The value under `node` at `keys`: object keys, or "[i]" list indices."""
    for key in keys:
        node = node[int(key[1:-1])] if key.startswith("[") else node[key]
    return node


JSON_KINDS = {
    str: st.text(max_size=5),
    list: st.lists(st.none() | st.booleans() | st.text(max_size=2), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    type(None): st.none(),
    bool: st.booleans(),
}
FIELD_CASES = [(words, cfg, path) for words, cfg in _examples() for path in _paths(cfg)]


@pytest.mark.parametrize("words,cfg,path", FIELD_CASES,
                         ids=[f"{'-'.join(w)}-{p}" for w, _, p in FIELD_CASES])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_wrong_json_type_exits_2_and_names_field(words, cfg, path, data, tmp_path, capsys):
    keys = path.replace("[", ".[").split(".")
    kinds = [k for k in JSON_KINDS if not isinstance(_walk(cfg, keys), k)]
    bad = copy.deepcopy(cfg)
    _walk(bad, keys[:-1])[keys[-1]] = data.draw(st.sampled_from(kinds).flatmap(JSON_KINDS.get))
    config, out = tmp_path / "bad.json", tmp_path / "out"
    config.write_text(json.dumps(bad))
    assert run(words + ["--config", str(config), "--out", str(out)]) == 2
    assert path in named_fields(capsys.readouterr().err)
    assert not out.exists()


def test_reweight_radius_past_the_float_range_exits_0(capsys):
    # c = 1e300 times a 1e10 density's disagreement overflowed with a RuntimeWarning
    assert run(REWEIGHT + ["--set", "densities=[[1e10,1,1,1]]",
                           "--set", "confidence.c=1e300"]) == 0
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# every float field of every command at extreme values

FAMILY9_DOC = json.loads(FAMILY9)
TWO_SCALE_DOC = {"kind": "two-scale", "d_h": 9, "rho": 2.5, "beta_p": 0.5, "beta_q": 0.5,
                 "eps1": 0.1, "eps2": 0.1, "tau": 0.75}
FAMILY_FLOATS = ["family.rho", "family.beta_p", "family.beta_q", "family.epsilon"]
TWO_SCALE_FLOATS = ["family.eps1", "family.eps2", "family.tau"]
SCENARIO3 = {"id": 3, "gamma": 2.0, "cells": 16}
CONF_DOC = {"c": 1.0, "delta": 0.1}
CONF_FLOATS = ["confidence.c", "confidence.delta"]
RATE_CELL = {"estimator": "transfer", "grid": [[8, 8]], "trials": 1}
ADAPTIVE_DOC = {"eps": 0.2, "cost_p": {"form": "power", "unit": 0.01, "exponent": 1.0},
                "cost_q": {"form": "power", "unit": 1.0, "exponent": 1.0}, "kappa": 4.0,
                "trials": 1, "confidence": CONF_DOC}
SELECT_DOC = {"n_sources": [16], "unlabeled": 64, "n_q": 4, "trials": 1}
REWEIGHT_DOC = {"n_p": 16, "unlabeled": 16, "n_q": 4, "trials": 1}

# (command words, a small config under which each listed float field applies, the fields)
FLOAT_CONFIGS = [
    (["scenario", "describe"], {"id": 3, "gamma": 2.0}, ["gamma"]),
    (["exponent"], {"scenario": SCENARIO3, "quantity": "rho", "constant": 1.0},
     ["scenario.gamma", "constant"]),
    (["exponent"], {"scenario": {"rcs_gap": 0.15}, "quantity": "gamma"}, ["scenario.rcs_gap"]),
    (["exponent"], {"scenario": {"id": 2}, "quantity": "d_y_localized", "eps": 0.01}, ["eps"]),
    (["verify-family"], {"family": FAMILY9_DOC, "constant": 1.0, "tol": 1e-9, "rho": 1.0,
                         "beta_p": 0.5, "beta_q": 0.5},
     FAMILY_FLOATS + ["constant", "tol", "rho", "beta_p", "beta_q"]),
    (["verify-family"], {"family": TWO_SCALE_DOC}, TWO_SCALE_FLOATS),
    (["rates"], {**RATE_CELL, "family": FAMILY9_DOC, "tune": True, "c1": 1.0,
                 "confidence": CONF_DOC}, FAMILY_FLOATS + ["c1"] + CONF_FLOATS),
    (["rates"], {**RATE_CELL, "family": TWO_SCALE_DOC}, TWO_SCALE_FLOATS),
    (["rates"], {**RATE_CELL, "scenario": SCENARIO3}, ["scenario.gamma"]),
    (["rates"], {**RATE_CELL, "scenario": {"rcs_gap": 0.15}}, ["scenario.rcs_gap"]),
    (["rates"], {"family": FAMILY9_DOC, "estimator": "erm_q", "trials": 1,
                 "grid": [[0, 8], [0, 16], [0, 32]], "theory_exponent": -1.0,
                 "tolerance": 0.2, "drop_smallest": 0}, ["theory_exponent", "tolerance"]),
    (["adaptive"], {**ADAPTIVE_DOC, "scenario": {"id": 2, "cells": 16}},
     ["eps", "cost_p.unit", "cost_p.exponent", "cost_q.unit", "cost_q.exponent", "kappa"]
     + CONF_FLOATS),
    (["adaptive"], {**ADAPTIVE_DOC, "scenario": SCENARIO3}, ["scenario.gamma"]),
    (["adaptive"], {**ADAPTIVE_DOC, "scenario": {"rcs_gap": 0.15}}, ["scenario.rcs_gap"]),
    (["adaptive"], {**ADAPTIVE_DOC, "family": FAMILY9_DOC}, FAMILY_FLOATS),
    (["adaptive"], {**ADAPTIVE_DOC, "family": TWO_SCALE_DOC}, TWO_SCALE_FLOATS),
    (["select"], {**SELECT_DOC, "sources": [{"id": 3, "gamma": 1.0, "cells": 8}],
                  "confidence": CONF_DOC}, ["sources[0].gamma"] + CONF_FLOATS),
    (["select"], {**SELECT_DOC, "sources": [{"rcs_gap": 0.15}]}, ["sources[0].rcs_gap"]),
    (["reweight"], {**REWEIGHT_DOC, "scenario": {"id": 3, "gamma": 2.0, "cells": 4},
                    "densities": [[1.0, 1.0, 1.0, 1.0]], "confidence": CONF_DOC},
     ["scenario.gamma", "densities[0][0]"] + CONF_FLOATS),
    (["reweight"], {**REWEIGHT_DOC, "scenario": {"rcs_gap": 0.15}, "densities": [[1.0, 1.0]]},
     ["scenario.rcs_gap"]),
]
EXTREME_FLOATS = [float("inf"), float("-inf"), float("nan"), 1e-320, 1e300]
FLOAT_CASES = [(words, cfg, path, value) for words, cfg, paths in FLOAT_CONFIGS
               for path in paths for value in EXTREME_FLOATS]


def _float_paths(tp, path=""):
    """Dotted path of every float in a config declaration, lists at index 0."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        for f in fields(tp):
            yield from _float_paths(hints[f.name], cli._join(path, f.name))
    elif tp is float:
        yield path
    elif origin in cli._UNIONS:
        for t in args:
            yield from _float_paths(t, path)
    elif origin in (list, tuple):
        for i, t in enumerate(args[:1] if origin is list else args):
            yield from _float_paths(t, f"{path}[{i}]")


def test_float_sweep_covers_every_float_field():
    for name, (decl, _) in cli._COMMANDS.items():
        swept = {p for words, _, paths in FLOAT_CONFIGS if words[0] == name for p in paths}
        assert swept == set(_float_paths(decl)), name


@pytest.mark.parametrize("words,cfg,path,value", FLOAT_CASES,
                         ids=[f"{w[0]}-{p}-{v}" for w, _, p, v in FLOAT_CASES])
def test_extreme_float_exits_0_2_or_3(words, cfg, path, value, tmp_path, capsys):
    # in process, where a NaN warning is an error: an extreme value is
    # refused (2), fails the run with a message (3) or runs (0), and raises nothing
    *keys, last = path.replace("[", ".[").split(".")
    doc = copy.deepcopy(cfg)
    _walk(doc, keys)[int(last[1:-1]) if last.startswith("[") else last] = value
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))  # json writes and reads Infinity and NaN
    out = tmp_path / "out"
    code = run(words + ["--config", str(config), "--out", str(out), "--jobs", "1"])
    captured = capsys.readouterr()
    assert code in (0, 2, 3), captured.err
    if code == 0:  # what it wrote is strict JSON: no NaN or Infinity
        for text in strict_json_texts(words[0], out, captured.out):
            json.loads(text, parse_constant=refuse_constant)


def test_theory_exponent_row_reaches_the_fit(tmp_path):
    # the sweep of theory_exponent and tolerance tests the fit only if the
    # row's own config fits its rows and writes the report
    [(words, cfg, _)] = [row for row in FLOAT_CONFIGS if "theory_exponent" in row[2]]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert run(words + ["--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
    assert "slope" in json.loads(out.with_name(out.name + ".report.json").read_text())


def refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


def strict_json_texts(command: str, out: Path, stdout: str) -> list[str]:
    """The JSON documents a run wrote: stdout, and its --out file (JSON lines
    for adaptive; for rates a CSV, so its report file instead)."""
    texts = [stdout] if stdout.strip() else []
    if command == "rates":
        out = out.with_name(out.name + ".report.json")
    if out.exists():
        text = out.read_text()
        texts += text.splitlines() if command == "adaptive" else [text]
    return texts
