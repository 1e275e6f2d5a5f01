"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line.  Tolerances and runtime budgets are pinned here, not tuned at
run time.  Constant-sensitive checks run at the calibrated constant from
test_calibration_constant (c = 0.5); slope checks are constant-insensitive and
run at the default c = 1.
"""

import itertools
import math
import time

import numpy as np

import transferlab as tl
from transferlab.procedures import near_optimal_mask

import oracles

CONF = tl.ConfidenceParams(c=1.0, delta=0.1)
CALIBRATED = tl.ConfidenceParams(c=0.25, delta=0.1)


def all_ones_pair(fam):
    return fam.pairs[fam.sigma_index("all-ones")], fam.cls


def report(name, detail=""):
    print(f"[PASS] {name}" + (f": {detail}" if detail else ""))


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_criterion_01_single_scale_certification():
    grid = itertools.product((9, 13), (1.0, 2.0, 4.0), (0.25, 0.5, 0.9),
                             (0.1, 0.25, 0.5))
    pairs_checked = 0
    with Timer() as t:
        for d_h, rho, beta, eps in grid:
            fam = tl.build_single_scale_family(d_h, rho, beta, beta, eps)
            reports = tl.verify_family(fam, constant=1.0)
            assert all(r.ok for r in reports), (d_h, rho, beta, eps)
            pairs_checked += len(fam)
            for probe in (0, len(fam) // 2):
                rep = tl.rho_min(fam.pairs[probe], fam.cls, 1.0)
                assert abs(rep.value - rho) < 1e-9, (d_h, rho, beta, eps, rep.value)
    assert t.elapsed < 10.0
    report("criterion 1", f"{pairs_checked} pairs certified in {t.elapsed:.1f}s")


def test_criterion_02_two_scale_certification():
    # exact equality of the brute-force marginal exponent with rho*beta_p holds
    # at gamma = 1 (the construction binds at tau = 1/2 with a full-block flip)
    settings = [
        (11, 2.0, 0.5, 0.5),
        (11, 2.0, 0.5, 0.75),
        (11, 4.0, 0.25, 0.5),
        (11, 1.25, 0.8, 0.9),
    ]
    with Timer() as t:
        for d_h, rho, bp, bq in settings:
            fam = tl.build_two_scale_family(d_h, rho, bp, bq, 0.25, 0.125)
            rep = tl.gamma_min(fam.pairs[0], fam.cls, 2.0)
            assert abs(rep.value - rho * bp) < 1e-9, (d_h, rho, bp, bq, rep.value)
            reports = tl.verify_family(fam, constant=2.0)
            assert all(r.ok for r in reports), (d_h, rho, bp, bq)
    assert t.elapsed < 10.0
    report("criterion 2", f"{len(settings)} settings in {t.elapsed:.1f}s")


def test_criterion_03_example_reproduction():
    cls = tl.threshold_class()
    ex2 = tl.example_scenario(2)
    assert tl.gamma_min(ex2, cls, 2.0).value == 1.0
    assert tl.d_a(ex2, cls) == 0.25
    assert tl.d_y(ex2, cls) == 0.25

    ex3 = tl.example_scenario(3, gamma=3.0)
    fwd = tl.gamma_min(ex3, cls, 1.0).value
    rev = tl.gamma_min(tl.TransferPair(ex3.q, ex3.p), cls, 1.0).value
    assert rev == 1.0 and fwd > rev

    ex4 = tl.example_scenario(4, gamma=0.5)
    grid = np.unique(np.concatenate([
        -np.logspace(-9, 0, 300), np.logspace(-9, 0, 300), [0.0]]))
    ns = 2 ** np.arange(6, 13)
    vals = np.array([tl.d_y_localized(ex4, cls, 1.0 / n, grid=grid) for n in ns])
    slope = float(np.polyfit(np.log(ns), np.log(vals), 1)[0])
    assert abs(slope + 1.0) < 0.1  # localized divergence tracks 1/n_P ...
    # ... while the actual source-driven rate is ~ n^-2 (criterion 5 asserts it)
    report("criterion 3",
           f"gamma(ex2)=1 C=2, d_a=d_y=1/4; ex3 {fwd:.2f}>1; d_y* slope {slope:.2f}")


def _tuned_family_builder(rho, beta_p, beta_q, c1=1.0):
    def build(n_p, n_q):
        eps = tl.epsilon_schedule(max(n_p, 1), max(n_q, 1), 9, rho, beta_p, beta_q, c1)
        fam = tl.build_single_scale_family(9, rho, beta_p, beta_q, eps)
        return all_ones_pair(fam)
    return build


def test_criterion_04_target_axis_slopes():
    """Target-axis slopes of tuned single-scale families.

    Each cell builds its family at `epsilon_schedule(n_p, n_q)`, the scale the
    theory rate is made of, so the fitted slope confirms the construction and
    is not evidence for the rate.
    """
    with Timer() as t:
        for beta_q in (0.5, 1.0):
            build = _tuned_family_builder(1.0, beta_q, beta_q)
            grid = [(0, 2 ** k) for k in range(6, 15)]
            table = tl.sweep(build, "erm_q", grid, 200, seed=42, conf=CONF)
            out = tl.compare_to_theory(table, -1.0 / (2.0 - beta_q), 0.2,
                                       axis="n_q", drop_smallest=2)
            assert out["passed"], (beta_q, out)
    assert t.elapsed < 120.0
    report("criterion 4", f"target-axis slopes within 0.2, {t.elapsed:.1f}s")


def test_criterion_05_source_axis_slopes():
    """Source-axis slopes of tuned single-scale families, then raw scenario 4.

    As in criterion 4, the tuned cells take their scale from
    `epsilon_schedule`, so their slopes confirm the construction and are not
    evidence for the rate.  Only the scenario-4 fit draws from a fixed
    distribution.
    """
    with Timer() as t:
        for rho, beta_p in ((1.0, 1.0), (2.0, 0.5)):
            build = _tuned_family_builder(rho, beta_p, 0.5)
            grid = [(2 ** k, 8) for k in range(6, 15)]
            table = tl.sweep(build, "transfer", grid, 200, seed=43, conf=CONF)
            out = tl.compare_to_theory(table, -1.0 / ((2.0 - beta_p) * rho), 0.2,
                                       axis="n_p", drop_smallest=2)
            assert out["passed"], (rho, beta_p, out)
        ex4 = tl.example_scenario(4, gamma=0.5)
        grid = [(2 ** k, 0) for k in range(6, 13)]
        table = tl.monte_carlo(ex4, tl.threshold_class(), "erm_p", grid, 200,
                               seed=44, conf=CONF)
        fit = tl.fit_slope(table, "n_p", "median", drop_smallest=2)
        assert fit.slope <= -1.6, fit
    assert t.elapsed < 180.0
    report("criterion 5",
           f"source-axis slopes within 0.2; super-transfer slope {fit.slope:.2f} <= -1.6; "
           f"{t.elapsed:.1f}s")


def test_criterion_06_min_of_rates():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    pair, cls = all_ones_pair(fam)
    ns = [2 ** 5, 2 ** 8, 2 ** 11]
    trials = 200
    t_p = tl.monte_carlo(pair, cls, "erm_p", [(n, 0) for n in ns], trials, 50, CALIBRATED)
    t_q = tl.monte_carlo(pair, cls, "erm_q", [(0, n) for n in ns], trials, 51, CALIBRATED)
    med_p = {r.n_p: r.median for r in t_p.rows}
    med_q = {r.n_q: r.median for r in t_q.rows}
    grid = [(a, b) for a in ns for b in ns]
    t_a = tl.monte_carlo(pair, cls, "transfer", grid, trials, 52, CALIBRATED)
    slack = 2.0 / math.sqrt(trials)
    for r in t_a.rows:
        bound = 1.5 * min(med_p[r.n_p], med_q[r.n_q]) + slack
        assert r.median <= bound, (r.n_p, r.n_q, r.median, bound)
    report("criterion 6", f"{len(grid)} cells within 1.5 x min + {slack:.3f}")


def test_criterion_07_beyond_rcs_selector():
    pair, cls = tl.rcs_violating_pair(0.15)
    trials = 200
    sel = tl.monte_carlo(pair, cls, "selector", [(4096, 512)], trials, 53, CONF)
    qonly = tl.monte_carlo(pair, cls, "erm_q", [(0, 512)], trials, 54, CONF)
    bound = min(0.15 + 0.05, qonly.rows[0].median)
    assert sel.rows[0].median <= bound, (sel.rows[0].median, bound)
    report("criterion 7",
           f"selector median {sel.rows[0].median:.4f} <= {bound:.4f}")


def _dist_samplers(pair):
    return (lambda n, s: tl.sample_labeled(pair.p, n, s),
            lambda n, s: tl.sample_labeled(pair.q, n, s))


def test_criterion_08_adaptive_sampling():
    with Timer() as t:
        # correctness on a noisy certified family at equal unit costs
        fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
        pair, cls = all_ones_pair(fam)
        sp, sq = _dist_samplers(pair)
        lin = tl.CostSchedule("linear", 1.0)
        for eps in (0.1, 0.05):
            need = tl.unlabeled_requirement(eps, CONF.delta, cls.vc_dim)
            hits = 0
            for trial in range(100):
                u = tl.sample_unlabeled(pair.q, need, seed=10_000 + trial)
                h, _ = tl.run_adaptive_sampling(eps, lin, lin, sp, sq, u, cls,
                                                CONF, seed=trial)
                hits += tl.excess_risk(pair.q, h, cls) <= eps
            assert hits >= 85, (eps, hits)

        # cost adaptivity: source batches 100x cheaper on a pair with
        # marginal exponent 1 (uniform-halves scenario, discretized)
        cheap, cls2 = tl.discretize_pair(tl.example_scenario(2), 64)
        sp2, sq2 = _dist_samplers(cheap)
        sched_p = tl.CostSchedule("linear", 0.01)
        eps = 0.1
        need = tl.unlabeled_requirement(eps, CONF.delta, cls2.vc_dim)
        step7 = 0
        costs, costs_q_only = [], []
        for trial in range(100):
            u = tl.sample_unlabeled(cheap.q, need, seed=20_000 + trial)
            h, tr = tl.run_adaptive_sampling(eps, sched_p, lin, sp2, sq2, u, cls2,
                                             CONF, seed=trial)
            assert tl.excess_risk(cheap.q, h, cls2) <= eps
            step7 += tr.returned_by == "step7"
            costs.append(tr.total_cost)
            _, tr_q = tl.run_adaptive_sampling(eps, sched_p, lin, sp2, sq2, u, cls2,
                                               CONF, seed=trial, q_only=True)
            costs_q_only.append(tr_q.total_cost)
        assert step7 >= 80, step7
        assert np.median(costs) <= np.median(costs_q_only), (
            np.median(costs), np.median(costs_q_only))
    assert t.elapsed < 300.0
    report("criterion 8",
           f"correctness >= 85%; step7 {step7}% with median cost "
           f"{np.median(costs):.0f} <= pure-target {np.median(costs_q_only):.0f}; "
           f"{t.elapsed:.1f}s")


def test_criterion_09_source_choice():
    src1, cls = tl.discretize_pair(tl.example_scenario(3, gamma=1.0), 64)
    src2, _ = tl.discretize_pair(tl.example_scenario(3, gamma=3.0), 64)
    picks = 0
    with Timer() as t:
        for trial in range(100):
            s1 = tl.sample_labeled(src1.p, 4096, seed=30_000 + trial)
            s2 = tl.sample_labeled(src2.p, 4096, seed=40_000 + trial)
            u = tl.sample_unlabeled(src1.q, 8192, seed=50_000 + trial)
            sq = tl.LabeledSample(np.empty(0, dtype=np.int64),
                                  np.empty(0, dtype=np.int8), 0)
            _, i_hat = tl.multi_source_transfer_erm([s1, s2], sq, u, cls, CONF)
            picks += i_hat == 0
    assert picks >= 90, picks
    report("criterion 9", f"matching source chosen {picks}/100, {t.elapsed:.1f}s")


def _random_instance(rng):
    s = int(rng.integers(2, 9))
    max_members = min(2 ** s, 2 ** 8)
    n_members = int(rng.integers(2, max_members + 1))
    order = rng.permutation(2 ** s)[:n_members]
    patterns = [tuple(int(b) for b in ((i >> np.arange(s)) & 1)) for i in order]
    cls = tl.finite_class(patterns, vc_dim=max(1, int(math.log2(n_members))))

    def sample(n):
        return tl.LabeledSample(rng.integers(0, s, n).astype(np.int64),
                                rng.integers(0, 2, n), 0)

    sp = sample(int(rng.integers(0, 65)))
    sq = sample(int(rng.integers(0, 65)))
    probe = tl.UnlabeledSample(rng.integers(0, s, int(rng.integers(1, 65))).astype(np.int64), 0)
    f = rng.uniform(0.0, 3.0, size=s)
    return cls, sp, sq, probe, f


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(2024)
    with Timer() as t:
        for i in range(1000):
            cls, sp, sq, probe, f = _random_instance(rng)
            c = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
            delta = float(rng.choice([0.05, 0.1, 0.25]))
            conf = tl.ConfidenceParams(c=c, delta=delta)
            members, d = cls.members, cls.vc_dim
            assert tl.transfer_erm(sp, sq, cls, conf) is members[
                oracles.transfer_erm_index(members, sp, sq, c, delta, d)]
            assert tl.reverse_transfer_erm(sp, sq, cls, conf) is members[
                oracles.transfer_erm_index(members, sq, sp, c, delta, d)]
            assert tl.select_source_or_target(sp, sq, cls, conf) is members[
                oracles.selector_index(members, sp, sq, c, delta, d)]
            assert tl.delta_hat(sq, probe, cls, conf) == \
                oracles.delta_hat_value(members, sq, probe, c, delta, d)
            pdim = int(rng.integers(0, 4))
            assert tl.delta_hat_weighted(sp, f, probe, cls, conf, pdim) == \
                oracles.delta_hat_weighted_value(members, sp, f, probe, c, delta,
                                                 d, pdim)
    report("criterion 10", f"1000 instances x 5 procedures exact, {t.elapsed:.1f}s")


def test_criterion_10_instance_59_weighted_tie():
    # members 2 and 3 tie exactly at the weighted minimum; a sum in sample
    # order rounds them apart, anchors on member 3 and returns a larger delta-hat
    rng = np.random.default_rng(2024)
    for _ in range(60):
        cls, sp, sq, probe, f = _random_instance(rng)
        c = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        delta = float(rng.choice([0.05, 0.1, 0.25]))
        pdim = int(rng.integers(0, 4))
    exact = [oracles.weighted_risk_value(h, sp, f) for h in cls.members]
    assert exact[2] == exact[3] == min(exact)
    assert tl.weighted_erm(cls, sp, f) == 2
    assert tl.delta_hat_weighted(sp, f, probe, cls, tl.ConfidenceParams(c, delta), pdim) \
        == oracles.delta_hat_weighted_value(cls.members, sp, f, probe, c, delta,
                                            cls.vc_dim, pdim)


def test_criterion_10_instance_10_support_order():
    # members 2 and 36 tie exactly at the weighted minimum; summing each
    # member's terms in sample order (a cumulative sum along the draws) rounds
    # them apart, anchors on member 36 and returns 0.9285714285714286 instead
    # of the exact 0.8571428571428571
    rng = np.random.default_rng(2024)
    for _ in range(11):
        cls, sp, sq, probe, f = _random_instance(rng)
        c = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        delta = float(rng.choice([0.05, 0.1, 0.25]))
        pdim = int(rng.integers(0, 4))
    exact = [oracles.weighted_risk_value(h, sp, f) for h in cls.members]
    assert exact[2] == exact[36] == min(exact)
    assert tl.weighted_erm(cls, sp, f) == 2
    assert tl.delta_hat_weighted(sp, f, probe, cls, tl.ConfidenceParams(c, delta), pdim) \
        == oracles.delta_hat_weighted_value(cls.members, sp, f, probe, c, delta,
                                            cls.vc_dim, pdim) == 0.8571428571428571


def test_criterion_11_infrastructure():
    # packing guarantees at the standard dimensions
    for d in (8, 16, 24, 32):
        pack = tl.vg_packing(d, seed=7)
        assert pack.shape[0] >= 2 ** (d / 8) + 1
        for i in range(pack.shape[0]):
            for j in range(i + 1, pack.shape[0]):
                assert (pack[i] != pack[j]).sum() >= d / 8

    # deterministic replay: identical bytes for every emitted table
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    pair, cls = all_ones_pair(fam)
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for tag in ("a", "b"):
            path = os.path.join(tmp, f"{tag}.csv")
            tl.monte_carlo(pair, cls, "transfer", [(64, 64), (256, 16)], 25,
                           seed=99, conf=CONF).to_csv(path)
            paths.append(path)
        with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
            assert fa.read() == fb.read()
    report("criterion 11", "packing bounds, deterministic replay")


def test_calibration_constant():
    """Documented calibration for the width constant: sweep c over the usual
    grid on a certified family and keep the smallest value for which the
    optimal classifier stays inside the target constraint in at least a 1-delta
    fraction of trials.  The acceptance suite's constant-sensitive checks run
    at the selected value; slope checks are insensitive and use the default."""
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    ix = fam.sigma_index("all-ones")
    pair, cls = fam.pairs[ix], fam.cls
    bayes_ix = cls.members.index(fam.bayes(ix))
    qualified = []
    for c in (0.25, 0.5, 1.0, 2.0, 4.0):
        conf = tl.ConfidenceParams(c=c, delta=0.1)
        worst = 1.0
        for n_q in (32, 128, 512, 2048):
            feasible = 0
            for trial in range(200):
                sq = tl.sample_labeled(pair.q, n_q, seed=60_000 + 17 * trial + n_q)
                feasible += bool(near_optimal_mask(cls, sq, conf)[bayes_ix])
            worst = min(worst, feasible / 200)
        if worst >= 1.0 - conf.delta:
            qualified.append(c)
    assert qualified
    assert CALIBRATED.c == min(qualified)
    report("calibration", f"qualified constants {qualified}; using {CALIBRATED.c}")
