import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transferlab as tl

import oracles

CONF = tl.ConfidenceParams(c=1.0, delta=0.1)
GOLDEN = Path(__file__).parent / "data" / "adaptive_golden"


def test_minimal_n_linear():
    assert tl.CostSchedule("linear", 1.0).minimal_n(8) == 8
    assert tl.CostSchedule("linear", 2.0).minimal_n(1) == 1
    assert tl.CostSchedule("linear", 0.01).minimal_n(1) == 100


def test_minimal_n_power():
    sched = tl.CostSchedule("power", 1.0, 0.5)
    assert sched.minimal_n(4) == 16
    assert sched.minimal_n(4.0001) == 17


def test_minimal_n_is_exact_inverse():
    rng = np.random.default_rng(0)
    for _ in range(200):
        form = rng.choice(["linear", "power"])
        unit = float(rng.uniform(0.01, 3.0))
        a = float(rng.uniform(0.2, 1.0)) if form == "power" else 1.0
        sched = tl.CostSchedule(form, unit, a)
        budget = float(rng.uniform(0.01, 50.0))
        n = sched.minimal_n(budget)
        assert sched.cost(n) >= budget
        assert n == 1 or sched.cost(n - 1) < budget


def test_cost_schedule_validation():
    with pytest.raises(ValueError):
        tl.CostSchedule("power", 1.0, 1.5)
    with pytest.raises(ValueError):
        tl.CostSchedule("linear", 0.0)
    with pytest.raises(ValueError):
        tl.CostSchedule("exp", 1.0)


def test_delta_hat_single_member_class():
    cls = tl.finite_class([(1, 0)], vc_dim=1)
    s = tl.LabeledSample(np.array([0, 1]), np.array([1, 0]), 0)
    assert tl.delta_hat(s, s, cls, CONF) == 0.0


def test_delta_hat_matches_oracle():
    rng = np.random.default_rng(4)
    cls = tl.full_cube_class(4)
    for _ in range(40):
        n = int(rng.integers(0, 50))
        m = int(rng.integers(1, 50))
        s = tl.LabeledSample(rng.integers(0, 4, n).astype(np.int64),
                             rng.integers(0, 2, n), 0)
        u = tl.UnlabeledSample(rng.integers(0, 4, m).astype(np.int64), 0)
        got = tl.delta_hat(s, u, cls, CONF)
        want = oracles.delta_hat_value(cls.members, s, u, CONF.c, CONF.delta, cls.vc_dim)
        assert got == want


def test_delta_hat_computes_member_risks_once(monkeypatch):
    calls = []
    real = tl.hypotheses.member_risks

    def counted(cls, sample):
        calls.append(len(sample))
        return real(cls, sample)

    for mod in (tl.hypotheses, tl.procedures, tl.adaptive):
        if hasattr(mod, "member_risks"):
            monkeypatch.setattr(mod, "member_risks", counted)
    fam = tl.build_single_scale_family(9, 1.0, 1.0, 1.0, 0.25)
    s = tl.sample_labeled(fam.pairs[3].q, 500, seed=1)
    u = tl.sample_unlabeled(fam.pairs[3].q, 200, seed=2)
    tl.delta_hat(s, u, fam.cls, CONF)
    assert calls == [500]


def test_delta_hat_shrinks_with_sample_size():
    fam = tl.build_single_scale_family(9, 1.0, 1.0, 1.0, 0.25)
    pair = fam.pairs[100]
    u = tl.sample_unlabeled(pair.q, 2048, seed=9)
    meds = []
    for n in (32, 128, 512, 2048):
        vals = [tl.delta_hat(tl.sample_labeled(pair.q, n, seed=50 * n + t), u,
                             fam.cls, CONF) for t in range(10)]
        meds.append(np.median(vals))
    assert meds[0] > meds[-1]
    assert all(a >= b - 0.05 for a, b in zip(meds, meds[1:]))


def test_unlabeled_requirement_scaling():
    a = tl.unlabeled_requirement(0.1, 0.1, 8)
    b = tl.unlabeled_requirement(0.05, 0.1, 8)
    assert b > a >= 8


def _samplers(pair):
    return (lambda n, s: tl.sample_labeled(pair.p, n, s),
            lambda n, s: tl.sample_labeled(pair.q, n, s))


def test_adaptive_run_noiseless_identical():
    joint = tl.DiscreteJoint(np.arange(9.0), np.full(9, 1 / 9.0),
                             (np.arange(9) % 2).astype(float))
    pair = tl.TransferPair(joint, joint)
    fam_cls = tl.finite_class([tuple((np.arange(9) % 2).astype(int)),
                               tuple(((np.arange(9) + 1) % 2).astype(int)),
                               tuple(np.zeros(9, dtype=int)),
                               tuple(np.ones(9, dtype=int))], vc_dim=2)
    sp, sq = _samplers(pair)
    u = tl.sample_unlabeled(pair.q, 2048, seed=1)
    h, tr = tl.run_adaptive_sampling(0.2, tl.CostSchedule("linear", 1.0),
                                     tl.CostSchedule("linear", 1.0), sp, sq, u,
                                     fam_cls, CONF, seed=3)
    assert tr.returned_by in ("step6", "step7")
    assert tl.excess_risk(pair.q, h, fam_cls) == 0.0
    assert len(tr.rounds) <= math.log2(tr.total_cost) + 2


def test_transcript_accounting_and_budget_bracketing():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    pair = fam.pairs[fam.sigma_index("all-ones")]
    sp, sq = _samplers(pair)
    sched_p = tl.CostSchedule("power", 1.7, 0.8)
    sched_q = tl.CostSchedule("linear", 0.6)
    u = tl.sample_unlabeled(pair.q, tl.unlabeled_requirement(0.15, CONF.delta, 8), seed=2)
    h, tr = tl.run_adaptive_sampling(0.15, sched_p, sched_q, sp, sq, u,
                                     fam.cls, CONF, seed=8)
    total = 0.0
    for r in tr.rounds:
        budget = 2.0 ** (r.t - 1)
        assert r.cost_p == pytest.approx(sched_p.cost(r.n_tp))
        assert r.cost_q == pytest.approx(sched_q.cost(r.n_tq))
        assert r.cost_p >= budget and r.cost_q >= budget
        assert r.n_tp == 1 or sched_p.cost(r.n_tp - 1) < budget
        assert r.n_tq == 1 or sched_q.cost(r.n_tq - 1) < budget
        total += r.cost_p + r.cost_q
    assert total == pytest.approx(tr.total_cost)
    assert [r.decision for r in tr.rounds].count("continue") == len(tr.rounds) - 1
    assert len(tr.rounds) <= math.log2(tr.total_cost) + 2


def test_adaptive_rejects_small_unlabeled_pool():
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25)
    pair = fam.pairs[0]
    sp, sq = _samplers(pair)
    u = tl.sample_unlabeled(pair.q, 10, seed=1)
    with pytest.raises(ValueError):
        tl.run_adaptive_sampling(0.05, tl.CostSchedule("linear", 1.0),
                                 tl.CostSchedule("linear", 1.0), sp, sq, u,
                                 fam.cls, CONF, seed=1)


def test_adaptive_round_cap_diagnostic():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    pair = fam.pairs[7]
    sp, sq = _samplers(pair)
    u = tl.sample_unlabeled(pair.q, 4096, seed=1)
    with pytest.raises(RuntimeError, match="stopping rule"):
        tl.run_adaptive_sampling(0.2, tl.CostSchedule("linear", 1.0),
                                 tl.CostSchedule("linear", 1.0), sp, sq, u,
                                 fam.cls, CONF, seed=1, max_rounds=1)


def test_transcript_jsonl_roundtrip_fields():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    pair = fam.pairs[11]
    sp, sq = _samplers(pair)
    u = tl.sample_unlabeled(pair.q, 4096, seed=4)
    _, tr = tl.run_adaptive_sampling(0.2, tl.CostSchedule("linear", 1.0),
                                     tl.CostSchedule("linear", 1.0), sp, sq, u,
                                     fam.cls, CONF, seed=4)
    lines = tr.to_jsonl().strip().split("\n")
    assert len(lines) == len(tr.rounds)
    rec = json.loads(lines[0])
    assert set(rec) == {"t", "n_tp", "n_tq", "cost_p", "cost_q",
                        "step6_lhs", "step7_stat", "decision"}


def test_cost_ordering_in_source_price():
    # cheaper source prices never increase the median total cost
    pair, cls = tl.discretize_pair(tl.example_scenario(2), 32)
    sp, sq = _samplers(pair)
    medians = []
    for unit in (1.0, 0.1, 0.01):
        costs = []
        for t in range(10):
            u = tl.sample_unlabeled(pair.q, 512, seed=900 + t)
            _, tr = tl.run_adaptive_sampling(
                0.1, tl.CostSchedule("linear", unit), tl.CostSchedule("linear", 1.0),
                sp, sq, u, cls, CONF, seed=700 + t)
            costs.append(tr.total_cost)
        medians.append(float(np.median(costs)))
    assert medians[0] >= medians[1] - 1e-9 >= medians[2] - 2e-9


def test_theory_cost_targets():
    lin = tl.CostSchedule("linear", 1.0)
    out = tl.optimal_sampling_costs(0.1, 10, 1.0, 1.0, 1.0, lin, lin)
    assert out.n_q_star == pytest.approx(100.0)
    assert out.n_p_star == pytest.approx(100.0)
    assert out.cost_star == pytest.approx(100.0)
    out2 = tl.optimal_sampling_costs(0.1, 10, 0.5, 1.0, 2.0, lin, lin)
    assert out2.n_p_star == pytest.approx(10 / 0.1 ** 6)
    with pytest.raises(ValueError):
        tl.optimal_sampling_costs(1.0, 10, 1.0, 1.0, 1.0, lin, lin)


def test_theory_cost_picks_cheaper_route():
    cheap_p = tl.CostSchedule("linear", 0.01)
    lin = tl.CostSchedule("linear", 1.0)
    out = tl.optimal_sampling_costs(0.1, 10, 1.0, 0.5, 1.0, cheap_p, lin)
    # n_p* = 10/0.1 = 100 at unit 0.01 -> cost 1; n_q* = 10/0.1^1.5
    assert out.cost_star == pytest.approx(1.0)


def _golden_run(name: str) -> str:
    """Transcript JSONL of one fixed adaptive run, then its stopping rule and labels."""
    unit = tl.CostSchedule("linear", 1.0)
    if name == "noisy_d9":
        fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
        pair, cls, eps, sched_p = fam.pairs[7], fam.cls, 0.05, unit
    else:
        pair, cls = tl.discretize_pair(tl.example_scenario(3, gamma=2.0), 256)
        eps, sched_p = 0.1, tl.CostSchedule("linear", 0.01)
    sp, sq = _samplers(pair)
    u = tl.sample_unlabeled(pair.q, tl.unlabeled_requirement(eps, CONF.delta, cls.vc_dim),
                            seed=21)
    h, tr = tl.run_adaptive_sampling(eps, sched_p, unit, sp, sq, u, cls, CONF, seed=5,
                                     q_only=name.endswith("q_only"))
    tail = {"returned_by": tr.returned_by, "labels": [int(v) for v in h.labels]}
    return tr.to_jsonl() + json.dumps(tail) + "\n"


@pytest.mark.parametrize("name", ["noisy_d9", "scenario3_gamma2", "scenario3_gamma2_q_only"])
def test_adaptive_golden_replay(name):
    # the files pin every round record and the returned labels byte for byte;
    # regenerate them only for an intended change of output
    assert _golden_run(name) == (GOLDEN / f"{name}.jsonl").read_text()


def test_delta_hat_on_itself_equals_a_separate_probe():
    # the sample as its own probe reuses the near-optimality pass's disagreements
    rng = np.random.default_rng(6)
    cls = tl.full_cube_class(4)
    for _ in range(40):
        n = int(rng.integers(0, 50))
        s = tl.LabeledSample(rng.integers(0, 4, n), rng.integers(0, 2, n), 0)
        copy = tl.LabeledSample(s.xs.copy(), s.ys.copy(), 0)
        want = oracles.delta_hat_value(cls.members, s, copy, CONF.c, CONF.delta, cls.vc_dim)
        assert tl.delta_hat(s, s, cls, CONF) == tl.delta_hat(s, copy, cls, CONF) == want


def _joint(draw, size):
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=size, max_size=size)))
    eta = draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.8, 1.0]),
                        min_size=size, max_size=size))
    return tl.DiscreteJoint(np.arange(float(size)), weights / weights.sum(), np.array(eta))


@st.composite
def adaptive_cases(draw):
    size = draw(st.integers(2, 6))
    if draw(st.booleans()):
        cls = tl.hypotheses.project_onto_support(tl.threshold_class(), np.arange(float(size)))
    else:
        patterns = draw(st.lists(st.lists(st.integers(0, 1), min_size=size, max_size=size),
                                 min_size=1, max_size=2 ** size, unique_by=tuple))
        cls = tl.finite_class(patterns)
    scheds = st.one_of(st.sampled_from([0.1, 0.5, 1.0, 2.0]).map(
                           lambda u: tl.CostSchedule("linear", u)),
                       st.tuples(st.sampled_from([0.5, 1.0]), st.sampled_from([0.5, 0.8])).map(
                           lambda ua: tl.CostSchedule("power", *ua)))
    return dict(pair=tl.TransferPair(_joint(draw, size), _joint(draw, size)), cls=cls,
                sched_p=draw(scheds), sched_q=draw(scheds),
                eps=draw(st.sampled_from([0.3, 0.2, 0.1])), q_only=draw(st.booleans()),
                seed=draw(st.integers(0, 2 ** 40)), useed=draw(st.integers(0, 2 ** 40)))


def _both_runs(case, max_rounds):
    """The package's run and the concatenating oracle's, each as its returned
    member and transcript or as the RuntimeError it raised."""
    pair, cls, eps = case["pair"], case["cls"], case["eps"]
    sp, sq = _samplers(pair)
    pool = tl.sample_unlabeled(pair.q, tl.unlabeled_requirement(eps, CONF.delta, cls.vc_dim),
                               case["useed"])
    out = []
    for run in (tl.run_adaptive_sampling, oracles.adaptive_loop):
        try:
            out.append(run(eps, case["sched_p"], case["sched_q"], sp, sq, pool, cls, CONF,
                           seed=case["seed"], max_rounds=max_rounds, q_only=case["q_only"]))
        except RuntimeError as e:
            out.append(str(e))
    return out


@settings(max_examples=60, deadline=None)
@given(adaptive_cases())
def test_adaptive_run_matches_the_concatenating_oracle(case):
    got, want = _both_runs(case, max_rounds=9)
    if isinstance(want, str):
        assert got == want
        return
    (h, tr), (h_want, tr_want) = got, want
    assert tr.to_jsonl() == tr_want.to_jsonl()
    assert tr.returned_by == tr_want.returned_by
    assert h is h_want


def test_adaptive_run_bins_each_batch_once(monkeypatch):
    calls = []
    real = tl.hypotheses._bin

    def counted(cls, sample, labels):
        calls.append(len(sample))
        return real(cls, sample, labels)

    monkeypatch.setattr(tl.hypotheses, "_bin", counted)
    pair, cls = tl.discretize_pair(tl.example_scenario(3, gamma=2.0), 256)
    sp, sq = _samplers(pair)
    u = tl.sample_unlabeled(pair.q, tl.unlabeled_requirement(0.1, CONF.delta, cls.vc_dim), 21)
    for q_only in (False, True):
        calls.clear()
        h, tr = tl.run_adaptive_sampling(0.1, tl.CostSchedule("linear", 0.01),
                                         tl.CostSchedule("linear", 1.0), sp, sq, u, cls, CONF,
                                         seed=5, q_only=q_only)
        batches = [n for r in tr.rounds for n in ((r.n_tq,) if q_only else (r.n_tp, r.n_tq))]
        assert calls == [len(u)] + batches


@pytest.mark.parametrize("gamma, q_only, stop", [(2.0, False, ("step7", 7)),
                                                 (3.0, False, ("step6", 9)),
                                                 (2.0, True, ("step6", 9))])
def test_raw_threshold_class_runs_with_line_samplers(gamma, q_only, stop):
    # line samples stay points: each round projects the raw class onto their union
    pair = tl.example_scenario(3, gamma=gamma)
    case = dict(pair=pair, cls=tl.threshold_class(), eps=0.1, q_only=q_only, seed=5,
                useed=21, sched_p=tl.CostSchedule("linear", 0.01),
                sched_q=tl.CostSchedule("linear", 1.0))
    (h, tr), (h_want, tr_want) = _both_runs(case, max_rounds=64)
    assert tr.to_jsonl() == tr_want.to_jsonl()
    assert (tr.returned_by, len(tr.rounds)) == stop
    assert h == h_want
    assert tl.excess_risk(pair.q, h, tl.threshold_class()) <= 0.1
