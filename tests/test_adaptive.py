import json
import math
import re
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
    # the guess rounds down within its 1e-9 slack, and the upward loop corrects it
    assert tl.CostSchedule("linear", 1.0).minimal_n(1.000000000001) == 2


def test_minimal_n_power():
    sched = tl.CostSchedule("power", 1.0, 0.5)
    assert sched.minimal_n(4) == 16
    assert sched.minimal_n(4.0001) == 17


def test_minimal_n_names_a_budget_past_the_float_range():
    # (1e200 / 1) ** 10 raises OverflowError, read as a guess of inf draws
    with pytest.raises(ValueError, match=r"^budget 1e\+200 needs inf draws"):
        tl.CostSchedule("power", 1.0, 0.1).minimal_n(1e200)


def test_minimal_n_steps_down_to_the_least_n():
    # the guess for this budget rounds to n + 1, which the downward loop corrects
    sched = tl.CostSchedule("power", 1.0, 0.3)
    budget = sched.cost(717155104780584)
    n = sched.minimal_n(budget)
    assert n == 717155104780584
    assert sched.cost(n) >= budget > sched.cost(n - 1)


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


def test_linear_cost_is_unit_times_n():
    # the linear form is the power form at exponent 1: float(n) ** 1.0 is
    # float(n), the rounding that unit * n applies to an int n as well
    rng = np.random.default_rng(12)
    for _ in range(500):
        sched = tl.CostSchedule("linear", float(rng.uniform(0.01, 3.0)))
        for n in (int(rng.integers(2 ** 53, 2 ** 62)), 2 ** 53 + 1,
                  float(rng.uniform(0.0, 1e6)), float(rng.uniform(0.0, 2.0 ** 80))):
            assert sched.cost(n) == sched.unit * n


def test_cost_schedule_validation():
    with pytest.raises(ValueError):
        tl.CostSchedule("power", 1.0, 1.5)
    with pytest.raises(ValueError):
        tl.CostSchedule("linear", 0.0)
    with pytest.raises(ValueError):
        tl.CostSchedule("exp", 1.0)
    # NaN fails these guards too (test_range_guards_refuse_nan)
    with pytest.raises(ValueError, match="n must be >= 0"):
        tl.CostSchedule("linear", 1.0).cost(-1)
    for budget in (0.0, -2.0):
        with pytest.raises(ValueError, match="budget must be positive"):
            tl.CostSchedule("linear", 1.0).minimal_n(budget)


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
    # every risk pass, public or on checked counts, runs the private kernel
    calls = []
    real = tl.hypotheses._risks

    def counted(cls, sample):
        calls.append(len(sample))
        return real(cls, sample)

    for mod in (tl.hypotheses, tl.procedures, tl.adaptive):
        if hasattr(mod, "_risks"):
            monkeypatch.setattr(mod, "_risks", counted)
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


@pytest.mark.parametrize("eps, delta, name, value", [
    (2.0, 0.9, "eps", 2.0), (0.0, 0.1, "eps", 0.0), (math.nan, 0.1, "eps", math.nan),
    (0.1, 0.0, "delta", 0.0), (0.1, 1.5, "delta", 1.5), (0.1, 1.0, "delta", 1.0)])
def test_unlabeled_requirement_names_an_eps_or_delta_outside_0_1(eps, delta, name, value):
    # (2.0, 0.9) once asked for -1 points, delta 1.5 for 76, and a zero
    # raised a bare ZeroDivisionError
    with pytest.raises(ValueError, match=re.escape(f"{name} must lie in (0, 1), got {value}")):
        tl.unlabeled_requirement(eps, delta, 1)


def _samplers(pair, sample=tl.sample_labeled):
    return (lambda n, s: sample(pair.p, n, s),
            lambda n, s: sample(pair.q, n, s))


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


@pytest.mark.parametrize("q_only", [False, True])
def test_transcript_counts_the_labels_bought(q_only):
    pair, cls = tl.discretize_pair(tl.example_scenario(2), 16)
    sp, sq = _samplers(pair)
    u = tl.sample_unlabeled(pair.q, 4096, seed=1)
    _, tr = tl.run_adaptive_sampling(0.2, tl.CostSchedule("linear", 1.0),
                                     tl.CostSchedule("linear", 0.5), sp, sq, u, cls, CONF,
                                     seed=2, q_only=q_only)
    assert len(tr.rounds) > 1
    assert tr.n_p == sum(r.n_tp for r in tr.rounds)
    assert tr.n_q == sum(r.n_tq for r in tr.rounds) > 0
    assert (tr.n_p == 0) == q_only


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


def test_adaptive_run_stops_at_2_53_draws():
    # c = 1e300 keeps step 6 from firing, so the doubling target sample grows
    # until the next batch would take it past 2^53 draws; unchecked, it grew
    # to 2^55, where a disagreement read -3.6e-17 and the set lost its anchor
    pair, cls = tl.discretize_pair(tl.example_scenario(2), 64)
    sp, sq = _samplers(pair)
    u = tl.sample_unlabeled(pair.q, 4096, seed=1)
    with pytest.raises(ValueError, match=r"draws is above the 2\^53 a sample holds"):
        tl.run_adaptive_sampling(0.1, tl.CostSchedule("linear", 1.0),
                                 tl.CostSchedule("linear", 1.0), sp, sq, u, cls,
                                 tl.ConfidenceParams(c=1e300, delta=0.1), seed=1, q_only=True)


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
    with pytest.raises(ValueError, match=re.escape("eps must lie in (0, 1), got 1.0")):
        tl.optimal_sampling_costs(1.0, 10, 1.0, 1.0, 1.0, lin, lin)


@pytest.mark.parametrize("args, message", [
    ((1.5, 0.5, 1.0), "beta_p must lie in (0, 1], got 1.5"),
    ((0.5, 0.0, 1.0), "beta_q must lie in (0, 1], got 0.0"),
    ((0.5, math.nan, 1.0), "beta_q must lie in (0, 1], got nan"),
    ((0.5, 0.5, -2.0), "gamma must be positive, got -2.0"),
    ((0.5, 0.5, math.nan), "gamma must be positive, got nan"),
])
def test_theory_cost_names_the_argument_out_of_range(args, message):
    lin = tl.CostSchedule("linear", 1.0)
    with pytest.raises(ValueError, match=re.escape(message)):
        tl.optimal_sampling_costs(0.1, 10, *args, lin, lin)


def test_theory_cost_picks_cheaper_route():
    cheap_p = tl.CostSchedule("linear", 0.01)
    lin = tl.CostSchedule("linear", 1.0)
    out = tl.optimal_sampling_costs(0.1, 10, 1.0, 0.5, 1.0, cheap_p, lin)
    # n_p* = 10/0.1 = 100 at unit 0.01 -> cost 1; n_q* = 10/0.1^1.5
    assert out.cost_star == pytest.approx(1.0)


def _golden_run(name: str) -> str:
    """Transcript JSONL of one fixed adaptive run, then its stopping rule and
    the labels of the returned member (a cut member's, induced by its threshold)."""
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
    labels = oracles.labels_of(h, cls.support_coords)
    tail = {"returned_by": tr.returned_by, "labels": [int(v) for v in labels]}
    return tr.to_jsonl() + json.dumps(tail) + "\n"


GOLDEN_RUNS = ("noisy_d9", "scenario3_gamma2", "scenario3_gamma2_q_only")


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_adaptive_golden_replay(name):
    # the files pin every round record and the returned labels byte for byte;
    # regenerate them (see the end of this file) only for an intended change
    # of output
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


def test_delta_hat_on_itself_at_an_infinite_width():
    # a subnormal delta makes the anytime width infinite: the set is every
    # member, anchored at the sample's ERM as at any width, so the sample as
    # its own probe is measured like a separate probe
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    pair = fam.pairs[fam.sigma_index()]
    conf = tl.ConfidenceParams(delta=1e-320)
    for n in (0, 1, 50):
        s = tl.sample_labeled(pair.q, n, 3)
        copy = tl.SampleCounts(s.points.copy(), s.ones.copy())
        erm_ix = int(np.argmin(tl.hypotheses.member_risks(fam.cls, s)))
        want = float(np.max(tl.hypotheses.member_disagreements(fam.cls, erm_ix, s)))
        assert tl.delta_hat(s, s, fam.cls, conf) == tl.delta_hat(s, copy, fam.cls, conf) == want


def test_delta_hat_at_an_infinite_width_anchors_at_the_erm():
    # every member is in the set; member 2 is the ERM and member 1 disagrees
    # with it everywhere, while measured from member 0 the widest is 3/4
    cls = tl.finite_class([[0, 0, 0], [1, 0, 0], [0, 1, 1]])
    s = tl.LabeledSample(np.array([0, 1, 2, 2]), np.ones(4, dtype=np.int64), 0)
    copy = tl.LabeledSample(s.xs.copy(), s.ys.copy(), 0)
    conf = tl.ConfidenceParams(delta=1e-320)
    want = oracles.delta_hat_value(cls.members, s, s, conf.c, conf.delta, cls.vc_dim)
    assert want == 1.0
    assert tl.delta_hat(s, s, cls, conf) == tl.delta_hat(s, copy, cls, conf) == want


def test_delta_hat_checks_an_empty_probe():
    # an empty probe is zero counts: 0 over the class's support, refused off it
    pair, cls = tl.discretize_pair(tl.example_scenario(2), 16)
    s = tl.sample_labeled(pair.p, 64, seed=1)
    assert tl.delta_hat(s, tl.sample_unlabeled(pair.q, 0, 0), cls, CONF) == 0.0
    with pytest.raises(ValueError, match="counts over 7 support points for a class over 16"):
        tl.delta_hat(s, tl.SampleCounts(np.zeros(7, dtype=np.int64)), cls, CONF)


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
    # c = 1e300 keeps step 6 from firing; at 1e308 the radius bound c*(2*sqrt(A) + A)
    # overflows, so the set is built under the saturating branch
    conf = tl.ConfidenceParams(c=draw(st.sampled_from([1.0, 1e300, 1e308])), delta=CONF.delta)
    return dict(pair=tl.TransferPair(_joint(draw, size), _joint(draw, size)), cls=cls,
                conf=conf, sched_p=draw(scheds), sched_q=draw(scheds),
                eps=draw(st.sampled_from([0.3, 0.2, 0.1])), q_only=draw(st.booleans()),
                seed=draw(st.integers(0, 2 ** 40)), useed=draw(st.integers(0, 2 ** 40)))


def _both_runs(case, max_rounds):
    """The package's run on the package's draws and the concatenating
    oracle's on the oracle's point draws, each as its returned member and
    transcript or as the RuntimeError it raised."""
    pair, cls, eps, conf = case["pair"], case["cls"], case["eps"], case["conf"]
    need = tl.unlabeled_requirement(eps, conf.delta, cls.vc_dim)
    out = []
    for run, lib in ((tl.run_adaptive_sampling, tl), (oracles.adaptive_loop, oracles)):
        sp, sq = _samplers(pair, lib.sample_labeled)
        pool = lib.sample_unlabeled(pair.q, need, case["useed"])
        try:
            out.append(run(eps, case["sched_p"], case["sched_q"], sp, sq, pool, cls, conf,
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
    # every read of a point sample's support indices is one binning
    calls = []
    real = tl.hypotheses._sample_indices

    def counted(cls, xs):
        calls.append(len(xs))
        return real(cls, xs)

    monkeypatch.setattr(tl.hypotheses, "_sample_indices", counted)
    pair, cls = tl.discretize_pair(tl.example_scenario(3, gamma=2.0), 256)
    need = tl.unlabeled_requirement(0.1, CONF.delta, cls.vc_dim)
    # library draws are born as counts and bin zero times; a user-built point
    # pool bins once, and user-built point batches once each
    for pool_lib, batch_lib in ((tl, tl), (oracles, tl), (oracles, oracles)):
        sp, sq = _samplers(pair, batch_lib.sample_labeled)
        u = pool_lib.sample_unlabeled(pair.q, need, 21)
        for q_only in (False, True):
            calls.clear()
            h, tr = tl.run_adaptive_sampling(0.1, tl.CostSchedule("linear", 0.01),
                                             tl.CostSchedule("linear", 1.0), sp, sq, u, cls,
                                             CONF, seed=5, q_only=q_only)
            batches = [n for r in tr.rounds
                       for n in ((r.n_tq,) if q_only else (r.n_tp, r.n_tq))]
            want = (([len(u)] if pool_lib is oracles else [])
                    + (batches if batch_lib is oracles else []))
            assert calls == want


def test_adaptive_run_checks_each_running_sample_once(monkeypatch):
    # over a support a batch is checked once, where it enters the loop; every
    # statistic after that reads the running counts as they are, with no
    # projection and no further check, and the stop returns the anchor it
    # found, with no ERM pass (which would go through ensure_finite)
    checked, projected = [], []
    real_labeled, real_ensure = tl.hypotheses._labeled, tl.hypotheses.ensure_finite

    def labeled(cls, sample):
        checked.append(len(sample))
        return real_labeled(cls, sample)

    def ensure(cls, samples):
        projected.append(len(samples))
        return real_ensure(cls, samples)

    for mod in (tl.hypotheses, tl.procedures, tl.adaptive):
        for name, counted in (("_labeled", labeled), ("ensure_finite", ensure)):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    cut_pair, cut_cls = tl.discretize_pair(tl.example_scenario(3, gamma=2.0), 256)
    for pair, cls in ((fam.pairs[11], fam.cls), (cut_pair, cut_cls)):
        sp, sq = _samplers(pair)
        u = tl.sample_unlabeled(pair.q, tl.unlabeled_requirement(0.1, CONF.delta, cls.vc_dim),
                                21)
        for q_only in (False, True):
            checked.clear()
            _, tr = tl.run_adaptive_sampling(0.1, tl.CostSchedule("linear", 0.01),
                                             tl.CostSchedule("linear", 1.0), sp, sq, u, cls,
                                             CONF, seed=5, q_only=q_only)
            assert checked == [n for r in tr.rounds
                               for n in ((r.n_tq,) if q_only else (r.n_tp, r.n_tq))]
            assert projected == []


@pytest.mark.parametrize("gamma, q_only, stop", [(2.0, False, ("step6", 9)),
                                                 (3.0, False, ("step6", 9)),
                                                 (2.0, True, ("step6", 9)),
                                                 (1.0, False, ("step7", 6))])
def test_raw_threshold_class_runs_with_line_samplers(gamma, q_only, stop):
    # line samples stay points: each round projects the raw class onto their union
    pair = tl.example_scenario(3, gamma=gamma)
    case = dict(pair=pair, cls=tl.threshold_class(), conf=CONF, eps=0.1, q_only=q_only, seed=5,
                useed=21, sched_p=tl.CostSchedule("linear", 0.01),
                sched_q=tl.CostSchedule("linear", 1.0))
    (h, tr), (h_want, tr_want) = _both_runs(case, max_rounds=64)
    assert tr.to_jsonl() == tr_want.to_jsonl()
    assert (tr.returned_by, len(tr.rounds)) == stop
    assert h == h_want
    assert tl.excess_risk(pair.q, h, tl.threshold_class()) <= 0.1


if __name__ == "__main__":
    # rewrite the golden files from the current code:
    #   PYTHONPATH=src python tests/test_adaptive.py
    for name in GOLDEN_RUNS:
        (GOLDEN / f"{name}.jsonl").write_text(_golden_run(name))
        print(f"wrote {GOLDEN / name}.jsonl")
