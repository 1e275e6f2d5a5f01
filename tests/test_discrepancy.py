import itertools
import json
import math

import numpy as np
import pytest

import transferlab as tl
from transferlab.discrepancy import (
    ZERO,
    _logs,
    _max_exponent,
    _min_noise_exponent,
    _tie_points,
    _violations,
    pair_profile,
)
from transferlab.hypotheses import HypothesisClass, threshold_class

import oracles


def identical_noiseless_pair():
    joint = tl.DiscreteJoint(np.arange(3.0), [0.5, 0.3, 0.2], [1.0, 0.0, 1.0])
    return tl.TransferPair(joint, joint), tl.full_cube_class(3)


def test_rho_min_identity_pair():
    pair, cls = identical_noiseless_pair()
    rep = tl.rho_min(pair, cls, 1.0)
    assert rep.value <= 1.0 + 1e-12


def test_rho_min_single_scale_exact():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    rep = tl.rho_min(fam.pairs[5], fam.cls, 1.0)
    assert rep.value == pytest.approx(2.0, abs=1e-9)
    # witness reproduces the binding ratio
    e_p = tl.excess_risk(fam.pairs[5].p, rep.witness, fam.cls)
    e_q = tl.excess_risk(fam.pairs[5].q, rep.witness, fam.cls)
    assert math.log(e_p) / math.log(e_q) == pytest.approx(rep.value, abs=1e-12)


def test_rho_min_infinite_without_shared_optimum():
    pair, cls = tl.rcs_violating_pair(0.15)
    assert tl.rho_min(pair, cls, 1.0).value == math.inf


def test_rho_prime_equals_rho_under_shared_optimum():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    pair = fam.pairs[77]
    a = tl.rho_min(pair, fam.cls, 1.0)
    b = tl.rho_prime_min(pair, fam.cls, 1.0)
    assert b.value == pytest.approx(a.value, abs=1e-12)


def test_rho_prime_finite_on_rcs_violation():
    pair, cls = tl.rcs_violating_pair(0.15)
    rep = tl.rho_prime_min(pair, cls, 1.0)
    assert math.isfinite(rep.value)


def test_rho_prime_never_exceeds_rho():
    rng = np.random.default_rng(5)
    for _ in range(20):
        support = np.arange(3.0)
        mass = rng.dirichlet(np.ones(3))
        pair = tl.TransferPair(
            tl.DiscreteJoint(support, mass, rng.random(3)),
            tl.DiscreteJoint(support, rng.dirichlet(np.ones(3)), rng.random(3)))
        cls = tl.full_cube_class(3)
        r = tl.rho_min(pair, cls, 1.0).value
        rp = tl.rho_prime_min(pair, cls, 1.0).value
        assert rp <= r + 1e-12


def test_gamma_min_example2():
    pair = tl.example_scenario(2)
    rep = tl.gamma_min(pair, tl.threshold_class(), 2.0)
    assert rep.value == pytest.approx(1.0, abs=1e-12)


def test_gamma_min_identical_marginals():
    pair, cls = identical_noiseless_pair()
    assert tl.gamma_min(pair, cls, 1.0).value <= 1.0 + 1e-12


def test_gamma_min_monotone_in_constant():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    pair = fam.pairs[9]
    values = [tl.gamma_min(pair, fam.cls, c).value for c in (0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_rho_min_monotone_in_constant():
    fam = tl.build_single_scale_family(9, 2.0, 0.25, 0.9, 0.25)
    pair = fam.pairs[40]
    values = [tl.rho_min(pair, fam.cls, c).value for c in (0.5, 1.0, 2.0)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_beta_max_noiseless_is_one():
    joint = tl.DiscreteJoint(np.arange(3.0), [0.5, 0.3, 0.2], [1.0, 0.0, 1.0])
    assert tl.beta_max(joint, tl.full_cube_class(3), 1.0).value == pytest.approx(1.0)


def test_beta_max_single_scale_q():
    for beta_q in (0.25, 0.5, 0.9):
        fam = tl.build_single_scale_family(9, 2.0, 0.5, beta_q, 0.25)
        rep = tl.beta_max(fam.pairs[17].q, fam.cls, 1.0)
        assert rep.value == pytest.approx(beta_q, abs=1e-9)


def test_beta_max_flat_conditional_forces_zero():
    # eta = 1/2 off the anchor: labeling the anchor wrong costs its mass, and a
    # full flip has unit disagreement, so only beta = 0 survives at c = 1
    joint = tl.DiscreteJoint(np.arange(3.0), [0.5, 0.25, 0.25], [1.0, 0.5, 0.5])
    rep = tl.beta_max(joint, tl.full_cube_class(3), 1.0)
    assert rep.value == 0.0


def test_beta_max_degenerate_class():
    # singleton class: no constraints at all
    joint = tl.DiscreteJoint(np.arange(2.0), [0.5, 0.5], [1.0, 0.25])
    cls = tl.finite_class([(1, 0)], vc_dim=1)
    rep = tl.beta_max(joint, cls, 1.0)
    assert rep.value == 1.0 and rep.degenerate


def test_d_a_d_y_example2_quarter():
    pair = tl.example_scenario(2)
    cls = tl.threshold_class()
    assert tl.d_a(pair, cls) == pytest.approx(0.25, abs=1e-15)
    assert tl.d_y(pair, cls) == pytest.approx(0.25, abs=1e-15)


def test_divergences_vanish_on_identical_pair():
    pair, cls = identical_noiseless_pair()
    assert tl.d_a(pair, cls) == 0.0
    assert tl.d_y(pair, cls) == 0.0


def test_d_y_localized_monotone_and_limits():
    pair = tl.example_scenario(4, gamma=0.5)
    cls = tl.threshold_class()
    vals = [tl.d_y_localized(pair, cls, e) for e in (0.001, 0.01, 0.1, 1.0)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    assert tl.d_y_localized(pair, cls, math.inf) == pytest.approx(tl.d_y(pair, cls))


def test_d_y_localized_tracks_inverse_n():
    pair = tl.example_scenario(4, gamma=0.5)
    cls = tl.threshold_class()
    grid = np.unique(np.concatenate([
        -np.logspace(-9, 0, 300), np.logspace(-9, 0, 300), [0.0]]))
    ns = 2 ** np.arange(6, 13)
    vals = np.array([tl.d_y_localized(pair, cls, 1.0 / n, grid=grid) for n in ns])
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert abs(slope + 1.0) < 0.1


def test_d_y_localized_grid_missing_h_star_gains_it():
    # four grid points, none at h*_P = 0: the profile adds h*_P, whose E_P is 0
    pair, cls = tl.example_scenario(2), threshold_class()
    grid = np.linspace(-1.0, 1.0, 4)
    assert pair.p.h_star not in grid
    prof = pair_profile(pair, cls, grid)
    assert prof.members[prof.star_p].threshold == pair.p.h_star
    assert prof.e_p[prof.star_p] == 0.0
    assert tl.d_y_localized(pair, cls, 0.0, grid=grid) == 0.0


def distinct_optima_line_pair():
    """P = Q = uniform on [-1, 1], with h*_P = 0.2 and h*_Q = 0.5."""
    return tl.TransferPair(*(tl.ThresholdMarginal(tl.uniform_density(-1.0, 1.0), h)
                             for h in (0.2, 0.5)))


@pytest.mark.parametrize("grid", [None, np.linspace(-1.0, 1.0, 4)])
def test_every_line_grid_holds_both_optima(grid):
    prof = pair_profile(distinct_optima_line_pair(), threshold_class(), grid)
    assert prof.members[prof.star_p].threshold == 0.2
    assert prof.members[prof.star_q].threshold == 0.5
    assert prof.e_p[prof.star_p] == prof.e_q[prof.star_q] == 0.0


def test_distinct_optima_line_pair_reads_q_against_h_star_p():
    # identical marginals: Q's disagreement with h*_P is P's, member by member,
    # so gamma is 1 and d_a is 0 (taken from h*_Q they read inf and 0.15)
    pair, cls = distinct_optima_line_pair(), threshold_class()
    prof = pair_profile(pair, cls)
    assert np.array_equal(prof.dis_q, prof.dis_p)
    assert tl.gamma_min(pair, cls).value == 1.0
    assert tl.d_a(pair, cls) == 0.0
    assert tl.rho_min(pair, cls).value == math.inf  # at h*_P, E_P = 0 < E_Q


def test_asymmetry_example3():
    pair = tl.example_scenario(3, gamma=3.0)
    cls = tl.threshold_class()
    fwd = tl.gamma_min(pair, cls, 1.0).value
    rev = tl.gamma_min(tl.TransferPair(pair.q, pair.p), cls, 1.0).value
    assert rev == pytest.approx(1.0, abs=1e-12)
    assert fwd > rev + 0.5


def test_verify_membership_single_scale():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    rep = tl.verify_membership(fam.pairs[31], fam.cls, 2.0, 0.5, 0.5, 1.0)
    assert rep.ok
    assert rep.violations == {}
    bad = tl.verify_membership(fam.pairs[31], fam.cls, 1.5, 0.5, 0.5, 1.0)
    assert not bad.ok and list(bad.violations)[0] == "transfer"
    members = bad.violations["transfer"][0]
    assert members.size and fam.cls[int(members[0])].labels is not None


def violation_count(reports):
    return sum(members.size for r in reports for members, _, _ in r.violations.values())


def assert_reports_equal(got, want):
    """The same failed checks, in order, with equal members, lhs and rhs."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert list(g.violations) == list(w.violations)
        for name, cols in g.violations.items():
            assert all(np.array_equal(a, b) for a, b in zip(cols, w.violations[name])), name


@pytest.mark.parametrize("kind, args, overrides", [
    ("single-scale", (9, 2.0, 0.5, 0.5, 0.25), {}),
    ("single-scale", (9, 2.0, 0.5, 0.5, 0.25), {"rho": 1.99}),
    ("single-scale", (13, 1.5, 0.5, 0.5, 0.05), {}),
    ("single-scale", (15, 1.5, 0.5, 0.5, 0.05), {}),
    ("two-scale", (9, 4.0, 0.5, 0.5, 0.25, 0.125), {}),
])
def test_verify_family_is_membership_of_every_built_pair(kind, args, overrides):
    build = {"single-scale": tl.build_single_scale_family,
             "two-scale": tl.build_two_scale_family}[kind]
    fam = build(*args)
    p = {**fam.params, **overrides}
    constant = 1.0 if kind == "single-scale" else 2.0
    got = tl.verify_family(fam, **overrides)
    assert_reports_equal(got, [tl.verify_membership(fam.pairs[i], fam.cls, p["rho"],
                                                    p["beta_p"], p["beta_q"], constant)
                               for i in range(len(fam))])
    # rho 1.99 < 2 breaks the transfer inequality once per pair
    assert violation_count(got) == (len(fam) if overrides else 0)


def test_membership_report_shape():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    for rep in tl.verify_family(fam):
        assert rep.ok and rep.violations == {}
    for i, rep in enumerate(tl.verify_family(fam, rho=1.99)):
        assert not rep.ok and list(rep.violations) == ["transfer"]
        members, lhs, rhs = rep.violations["transfer"]
        assert members.dtype.kind == "i" and members.shape == (1,)
        assert lhs.dtype == rhs.dtype == np.float64
        # the member's labels are the witness: E_Q^1.99 > E_P on that hypothesis
        pair, witness = fam.pairs[i], fam.cls[int(members[0])]
        e_q = tl.excess_risk(pair.q, witness, fam.cls)
        assert lhs[0] == pytest.approx(e_q ** 1.99, rel=1e-12)
        assert rhs[0] == pytest.approx(tl.excess_risk(pair.p, witness, fam.cls), rel=1e-12)
        assert lhs[0] > rhs[0] + 1e-9
        own = _violations(pair_profile(pair, fam.cls), 1.99, 0.5, 0.5, 1.0, 1e-9)
        assert list(own) == ["transfer"]
        assert all(np.array_equal(a, b) for a, b in zip(own["transfer"], (members, lhs, rhs)))
        assert rep == rep and rep != tl.MembershipReport({})


# the certified grids of acceptance criteria 1 (single-scale) and 2 (two-scale)
CERTIFIED_FAMILIES = (
    [("single-scale", (d_h, rho, beta, beta, eps)) for d_h, rho, beta, eps in
     itertools.product((9, 13), (1.0, 2.0, 4.0), (0.25, 0.5, 0.9), (0.1, 0.25, 0.5))]
    + [("two-scale", (11, rho, bp, bq, 0.25, 0.125)) for rho, bp, bq in
       ((2.0, 0.5, 0.5), (2.0, 0.5, 0.75), (4.0, 0.25, 0.5), (1.25, 0.8, 0.9))])
BUILD = {"single-scale": tl.build_single_scale_family, "two-scale": tl.build_two_scale_family}


def each_pair(fam, tol, rho, beta_p, beta_q, constant):
    return [tl.verify_membership(fam.pairs[i], fam.cls, rho, beta_p, beta_q, constant, tol=tol)
            for i in range(len(fam))]


def assert_reports_match(got, want):
    """Equal verdicts, checks and members; lhs and rhs within 1e-12."""
    assert [r.ok for r in got] == [r.ok for r in want]
    for g, w in zip(got, want):
        assert list(g.violations) == list(w.violations)
        for name, (members, lhs, rhs) in g.violations.items():
            want_members, want_lhs, want_rhs = w.violations[name]
            assert np.array_equal(members, want_members), name
            assert np.all(np.abs(lhs - want_lhs) <= 1e-12), name
            assert np.all(np.abs(rhs - want_rhs) <= 1e-12), name


@pytest.mark.parametrize("kind, args", CERTIFIED_FAMILIES,
                         ids=[f"{k}-{'-'.join(map(str, a))}" for k, a in CERTIFIED_FAMILIES])
def test_verify_family_matches_each_pair_on_the_certified_grids(kind, args):
    # every pair but the first is derived from the first by flipping member
    # bits; each must match its own per-pair check, also where checks fail.
    # Whole families: the 58 cases take about 19 s on 2 cores, most of
    # it in the per-pair profiles of `each_pair`
    fam = BUILD[kind](*args)
    assert not _tie_points(fam).any()  # one profile serves the whole family
    p = fam.params
    base = {"rho": p["rho"], "beta_p": p["beta_p"], "beta_q": p["beta_q"],
            "constant": 1.0 if kind == "single-scale" else 2.0}
    for change in ({}, {"rho": p["rho"] * 0.99}, {"constant": 0.9},
                   {"beta_p": p["beta_p"] + 0.05}):
        q = {**base, **change}
        for tol in (1e-9, 1e-12):
            assert_reports_match(tl.verify_family(fam, tol=tol, **q), each_pair(fam, tol, **q))


@pytest.mark.parametrize("family, overrides, checked", [
    (lambda: tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25), {"rho": 1.99}, [0]),
    (lambda: tl.build_two_scale_family(9, 40.0, 0.5, 0.05, 0.5, 0.125), {"rho": 1.0}, None),
], ids=["tie-free", "tie"])
def test_verify_family_checks_pairs_with_verify_membership(monkeypatch, family, overrides,
                                                           checked):
    # a tie-free family's pair 0, or every pair of a family with a tie point,
    # gets verify_membership's own report, and no other pair is built
    fam = family()
    checked = range(len(fam)) if checked is None else checked
    calls, real = [], tl.discrepancy.verify_membership
    monkeypatch.setattr(tl.discrepancy, "verify_membership",
                        lambda pair, *a, **k: calls.append(pair) or real(pair, *a, **k))
    got = tl.verify_family(fam, **overrides)
    assert calls == [fam[i] for i in checked] and sorted(fam._built) == list(checked)
    p = {**fam.params, **overrides}
    constant = 1.0 if fam.kind == "single-scale" else 2.0
    want = [real(fam[i], fam.cls, p["rho"], p["beta_p"], p["beta_q"], constant)
            for i in checked]
    assert_reports_equal([got[i] for i in checked], want)
    assert violation_count(want) > 0


def test_verify_family_at_tie_points_is_each_pair_bit_for_bit():
    # P's margin underflows to 0: every eta_p is 1/2, so every point is a tie
    # point, where the lowest-index P-optimum stays put under a sign flip
    fam = tl.build_single_scale_family(9, 2000.0, 0.0, 0.5, 0.25)
    assert (fam.eta_p[:, 1:] == 0.5).all()
    got = tl.verify_family(fam, beta_p=0.5)
    assert_reports_equal(got, each_pair(fam, 1e-9, 2000.0, 0.5, 0.5, 1.0))
    assert violation_count(got) == 65280
    # only the second block's P margin underflows: one tie point is enough
    # for every pair to be profiled on its own
    fam = tl.build_two_scale_family(9, 40.0, 0.5, 0.05, 0.5, 0.125)
    assert ((fam.eta_p[:, 1:] == 0.5).any(axis=0) == [False] * 4 + [True] * 4).all()
    got = tl.verify_family(fam, rho=1.0)
    assert_reports_equal(got, each_pair(fam, 1e-9, 1.0, 0.5, 0.05, 2.0))
    assert violation_count(got) == 61440


@pytest.mark.parametrize("rho", [15.9, 20.0, 40.0])
def test_verify_family_at_rounding_level_margins_is_each_pair_bit_for_bit(rho):
    # P's margin 0.1^rho (1.3e-16 at rho 15.9) puts eta_p within rounding of
    # 1/2, on one side or the other by sign, so mass * (1 - 2 eta) differs
    # across rows at the rounding level and every point is a tie point.  Read
    # through flips, 136 of the 256 reports at rho 15.9 listed other
    # violating members than the pair's own profile
    fam = tl.build_single_scale_family(9, rho, 0.0, 0.5, 0.1)
    assert _tie_points(fam).all()
    got = tl.verify_family(fam, beta_p=0.5)
    assert_reports_equal(got, each_pair(fam, 1e-9, rho, 0.5, 0.5, 1.0))


def test_verify_membership_identity_pair():
    pair, cls = identical_noiseless_pair()
    assert tl.verify_membership(pair, cls, 1.0, 1.0, 1.0, 1.0).ok


def test_two_scale_gamma_certificate():
    # gamma = rho * beta_p = 1 settings certify exactly at constant 2
    fam = tl.build_two_scale_family(11, 2.0, 0.5, 0.5, 0.25, 0.125)
    rep = tl.gamma_min(fam.pairs[13], fam.cls, 2.0)
    assert rep.value == pytest.approx(1.0, abs=1e-9)
    # gamma > 1 settings: the certified value is an upper bound on brute force
    fam2 = tl.build_two_scale_family(11, 3.0, 0.5, 0.5, 0.25, 0.125)
    rep2 = tl.gamma_min(fam2.pairs[13], fam2.cls, 2.0)
    assert rep2.value <= fam2.params["gamma"] + 1e-9


def test_prop_gamma_to_rho_chain():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    out = tl.gamma_rho_chain_check(fam.pairs[11], fam.cls)
    assert out["ok"]
    assert out["gamma"] == pytest.approx(2.0, abs=1e-9)
    assert out["beta_p"] == pytest.approx(0.5, abs=1e-9)
    pair, cls = identical_noiseless_pair()
    out2 = tl.gamma_rho_chain_check(pair, cls)
    assert out2["ok"] and out2["bound"] >= 1.0 - 1e-9
    ex3, cls3 = tl.discretize_pair(tl.example_scenario(3, gamma=3.0), 128)
    out3 = tl.gamma_rho_chain_check(ex3, cls3)
    assert out3["ok"] and out3["rho"] <= 3.0 + 1e-9
    # beta_P is 0 on the RCS-violating pair, so gamma / beta_P bounds nothing
    out4 = tl.gamma_rho_chain_check(*tl.rcs_violating_pair(0.15))
    assert out4["ok"] is True and out4["beta_p"] == 0.0
    assert out4["bound"] == out4["rho"] == math.inf


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
def test_membership_checks_refuse_a_tol_that_is_not_finite_and_nonnegative(tol):
    # a NaN or infinite tol passed every check, a negative one failed exact fits
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    for call in (lambda: tl.verify_family(fam, constant=0.5, tol=tol),
                 lambda: tl.verify_membership(fam.pairs[0], fam.cls, 2.0, 0.5, 0.5, 0.5, tol=tol),
                 lambda: tl.gamma_rho_chain_check(fam.pairs[0], fam.cls, tol=tol)):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            call()


def test_witness_consistency_gamma():
    fam = tl.build_single_scale_family(9, 4.0, 0.25, 0.9, 0.1)
    pair = fam.pairs[3]
    rep = tl.gamma_min(pair, fam.cls, 1.0)
    prof = pair_profile(pair, fam.cls)
    i = prof.members.index(rep.witness)
    ratio = math.log(prof.dis_p[i]) / math.log(prof.dis_q[i])
    assert ratio == pytest.approx(rep.value, abs=1e-12)


def test_report_serialization():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    rep = tl.rho_min(fam.pairs[0], fam.cls, 1.0)
    doc = rep.to_json_dict()
    assert set(doc) == {"value", "constant", "witness_labels", "witness_threshold"}
    assert doc["value"] == rep.value
    labels = json.loads(json.dumps(doc))["witness_labels"]
    assert labels == list(rep.witness.labels)
    assert all(type(b) is int for b in labels)
    assert doc["witness_threshold"] is None
    # a cut member and a grid member are their thresholds: no labels
    pair, cut = tl.discretize_pair(tl.example_scenario(2), 16)
    line = tl.example_scenario(2)
    for rep in (tl.rho_min(pair, cut, 2.0), tl.gamma_min(line, tl.threshold_class(), 2.0)):
        doc = json.loads(json.dumps(rep.to_json_dict(), allow_nan=False))
        assert doc["witness_labels"] is None
        assert doc["witness_threshold"] == rep.witness.threshold
        assert type(doc["witness_threshold"]) is float
    # a non-finite threshold is null, as an infinite value is
    edge = tl.ExponentReport(math.inf, 1.0, tl.threshold_hypothesis(-math.inf))
    assert edge.to_json_dict() == {"value": None, "constant": 1.0, "witness_labels": None,
                                   "witness_threshold": None}


def test_certification_and_radii_build_no_member(monkeypatch):
    # kernels take the reference member by index, so profiling a pair and the
    # near-optimality radii never build a Hypothesis
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.9, 0.25)
    pair = fam.pairs[3]
    line = tl.example_scenario(3, gamma=2.0)
    sample = tl.sample_labeled(pair.q, 200, seed=5)
    probe = tl.sample_unlabeled(pair.q, 300, seed=6)
    line_sample = tl.sample_labeled(line.q, 200, seed=7)
    line_probe = tl.sample_unlabeled(line.q, 300, seed=8)
    rcs, rcs_cls = tl.rcs_violating_pair(0.15)

    def refuse(cls, i):
        raise AssertionError(f"member {i} was built")

    monkeypatch.setattr(HypothesisClass, "_build", refuse)
    conf = tl.ConfidenceParams(c=1.0, delta=0.1)
    pair_profile(pair, fam.cls)
    prof = pair_profile(rcs, rcs_cls)  # distinct P- and Q-optimal members
    assert prof.star_p != prof.star_q
    tl.near_optimal_mask(fam.cls, sample, conf)
    tl.delta_hat(sample, probe, fam.cls, conf)
    tl.delta_hat(line_sample, line_probe, tl.threshold_class(), conf)
    assert fam.cls._built == {} and rcs_cls._built == {}


BOUNDARY = (0.0, ZERO, 1.0 - ZERO, 1.0, 1.0 + ZERO, 2.0)


def reduction_values(rng, m, p_boundary):
    """m values in (0, 1): uniform or log-uniform down to 1e-13, each replaced
    with probability p_boundary by a value at or beyond a cutoff."""
    vals = np.where(rng.random(m) < 0.5, rng.uniform(0.0, 1.0, m),
                    10.0 ** rng.uniform(-13.0, 0.0, m))
    at = rng.random(m) < p_boundary
    vals[at] = rng.choice(BOUNDARY, int(at.sum()))
    return vals


def test_exponent_reductions_match_the_loops():
    # boundary values land exactly after scaling by a power of two; a copy of
    # the witness at a later index is an exact tie at the extreme; a forcing
    # member or violator goes after the candidates
    rng = np.random.default_rng(41)
    for trial in range(3000):
        m = int(rng.integers(1, 40))
        c = float(rng.choice([0.25, 0.5, 1.0, 2.0])) if trial % 4 else float(rng.uniform(0.1, 4.0))
        p_boundary = (0.0, 0.02, 0.1)[trial % 3]
        small, big = reduction_values(rng, m, p_boundary), reduction_values(rng, m, p_boundary)
        for reduce_, loop, lhs, rhs, late in (
                (_max_exponent, oracles.max_exponent_loop, small / c, big, (0.0, 0.5)),
                (_min_noise_exponent, oracles.beta_max_loop, big, small * c, (0.5, 2.0 * c))):
            want = loop(lhs, rhs, c, range(m), None)
            if want.witness is not None and trial % 2:
                j = int(rng.integers(want.witness + 1, m + 1))
                lhs = np.insert(lhs, j, lhs[want.witness])
                rhs = np.insert(rhs, j, rhs[want.witness])
            if trial % 5 == 0:
                lhs, rhs = np.append(lhs, late[0]), np.append(rhs, late[1])
            members = range(lhs.size)
            want = loop(lhs, rhs, c, members, None)
            assert reduce_(lhs, rhs, c, members, None) == want, (trial, reduce_.__name__)


def test_logs_equal_math_log_entry_by_entry():
    rng = np.random.default_rng(29)
    tiny = np.nextafter(0.0, 1.0)
    edges = np.array([tiny, 2.0 ** -1022, ZERO, 0.5, np.nextafter(1.0, 0.0), 1.0,
                      np.nextafter(1.0, 2.0), 2.0, 1e300, np.finfo(np.float64).max])
    distinct = np.concatenate((rng.random(5000), rng.exponential(size=3000), edges))
    repeats = rng.choice(distinct[:40], 20000)  # heavy repeats, out of order
    for x in (distinct, repeats, np.concatenate((repeats, distinct)), distinct[:1],
              np.full(7, 0.3)):
        got = _logs(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert all(g == math.log(v) for g, v in zip(got.tolist(), x.tolist()))


def test_exponent_reductions_match_the_loops_on_pairs():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.9, 0.25)
    tc = threshold_class()
    # at rho = beta = 1 every live member of a d_h = 13 or 15 family ties at the
    # largest ratio, so the reductions must pick the lowest index among thousands
    wide = [tl.build_single_scale_family(d_h, 1.0, 1.0, 1.0, 0.25) for d_h in (13, 15)]
    cases = [(pair, fam.cls) for pair in fam.pairs] + [
        (big.pairs[i], big.cls) for big in wide for i in (0, -1)] + [
        (tl.example_scenario(2), tc), (tl.example_scenario(3, gamma=2.0), tc),
        (tl.example_scenario(4, gamma=0.5), tc)]
    for pair, cls in cases:
        prof = pair_profile(pair, cls)
        clipped = np.maximum(prof.risk_q - prof.risk_q[prof.star_p], 0.0)
        for c in (0.5, 1.0, 2.0):
            for op, lhs, rhs in ((tl.rho_min, prof.e_p, prof.e_q),
                                 (tl.gamma_min, prof.dis_p, prof.dis_q),
                                 (tl.rho_prime_min, prof.e_p, clipped)):
                assert op(pair, cls, c) == oracles.max_exponent_loop(
                    lhs, rhs, c, prof.members, prof.grid_size)
            for side in (pair.p, pair.q):
                own = pair_profile(tl.TransferPair(side, side), cls)
                assert tl.beta_max(side, cls, c) == oracles.beta_max_loop(
                    own.e_p, own.dis_p, c, own.members, own.grid_size)


def test_screened_reductions_match_the_loops_at_one_ulp_near_ties():
    # a copy of the extreme member with one input moved by an ulp either way
    # (or not at all), placed before or after it, ties the extreme or misses
    # it by about an ulp of the ratio: the np.log screen must keep both, and
    # the exact recheck must pick the loop's value and lowest-index witness
    rng = np.random.default_rng(43)
    for trial in range(2000):
        m = int(rng.integers(1, 200))
        c = float(rng.choice([0.5, 1.0, 2.0]))
        small, big = reduction_values(rng, m, 0.0), reduction_values(rng, m, 0.0)
        for reduce_, loop, lhs, rhs in (
                (_max_exponent, oracles.max_exponent_loop, small / c, big),
                (_min_noise_exponent, oracles.beta_max_loop, big, small * c)):
            w = loop(lhs, rhs, c, range(m), None).witness
            twin = [lhs[w], rhs[w]]
            if trial % 3:
                twin[trial % 2] = np.nextafter(twin[trial % 2], (0.0, 1.0)[trial % 3 - 1])
            j = int(rng.integers(0, m + 1))
            lhs, rhs = np.insert(lhs, j, twin[0]), np.insert(rhs, j, twin[1])
            members = range(m + 1)
            assert reduce_(lhs, rhs, c, members, None) == loop(lhs, rhs, c, members, None), \
                (trial, reduce_.__name__)


def test_screened_reductions_match_the_loops_on_wide_ties_and_line_grids():
    # at rho = beta = 1 thousands of members of a d_h = 13 or 15 family share
    # each ratio, so thousands pass the screen; discretized line scenarios hold
    # exact ties that float rounding splits by an ulp or so
    wide = [tl.build_single_scale_family(d_h, 1.0, 1.0, 1.0, 0.25) for d_h in (13, 15)]
    cases = [(big.pairs[i], big.cls) for big in wide for i in (1, len(big) // 2)]
    for sc in (tl.example_scenario(2), tl.example_scenario(3, gamma=2.0),
               tl.example_scenario(4, gamma=0.5)):
        cases += [tl.discretize_pair(sc, cells) for cells in (14, 34, 42, 49, 53, 60, 61, 256)]
    for pair, cls in cases:
        prof = pair_profile(pair, cls)
        clipped = np.maximum(prof.risk_q - prof.risk_q[prof.star_p], 0.0)
        for c in (0.25, 3.0):
            for lhs, rhs in ((prof.e_p, prof.e_q), (prof.dis_p, prof.dis_q),
                             (prof.e_p, clipped)):
                assert _max_exponent(lhs, rhs, c, prof.members, None) == \
                    oracles.max_exponent_loop(lhs, rhs, c, prof.members, None)
            for excess, dis in ((prof.e_p, prof.dis_p), (prof.e_q, prof.dis_q_own)):
                assert _min_noise_exponent(excess, dis, c, prof.members, None) == \
                    oracles.beta_max_loop(excess, dis, c, prof.members, None)


def _agreeing_twin(x):
    """A float next to x with the same math.log, where np.log agrees, or None."""
    want = math.log(x)
    for toward in (0.0, 1.0):
        y = x
        while math.log(y := float(np.nextafter(y, toward))) == want:
            if float(np.log(y)) == want:
                return y
    return None


def test_screen_keeps_the_extreme_where_np_log_rounds_apart():
    # x and its twin y have the same math.log, so their ratios tie exactly and
    # the first member is the witness; np.log rounds x's log apart, so the
    # screen ranks x strictly above or below y.  The twin that the screen
    # ranks last goes first: a reduction that reports screened ratios, or
    # keeps only the screened extreme, names the second member.  On a numpy
    # whose np.log rounds like math.log on these draws there is no such x.
    rng = np.random.default_rng(7)
    x = rng.uniform(1e-3, 0.5, 20000)
    apart = x[np.log(x) != np.fromiter(map(math.log, x.tolist()), np.float64, x.size)]
    for v in apart[:8].tolist():
        y = _agreeing_twin(v)
        if y is None:
            continue
        below = float(np.log(v)) > math.log(v)  # np.log's ratio is the smaller
        for reduce_, loop, other, first in (
                (_max_exponent, oracles.max_exponent_loop, 0.5, (v, y) if below else (y, v)),
                (_min_noise_exponent, oracles.beta_max_loop, 1e-6, (y, v) if below else (v, y))):
            vals, fixed = np.array(first), np.full(2, other)
            lhs, rhs = (vals, fixed) if reduce_ is _max_exponent else (fixed, vals)
            want = loop(lhs, rhs, 1.0, range(2), None)
            assert want.witness == 0
            assert reduce_(lhs, rhs, 1.0, range(2), None) == want, (v, reduce_.__name__)


def assert_reports_close(got, want, members, ratio_at):
    """Values within 1e-15 and the same witness.  Where the witnesses differ,
    the matrix computation ties them: its ratio at the cut class's witness,
    ratio_at(i), is within 1e-15 of its extreme."""
    assert (got.satisfied, got.degenerate) == (want.satisfied, want.degenerate)
    assert got.value == want.value or abs(got.value - want.value) <= 1e-15
    assert (got.witness is None) == (want.witness is None)
    coords = members.support_coords
    if got.witness is not None and oracles.labels_of(got.witness, coords) != want.witness.labels:
        assert abs(ratio_at(members.index(got.witness)) - want.value) <= 1e-15


def test_cut_class_matches_its_matrix():
    # float prefix sums and BLAS products round apart, so members that tie in
    # exact arithmetic (14, 34, 42, 49, 53, 60 and 61 cells) may swap witnesses
    scenarios = (tl.example_scenario(2), tl.example_scenario(3, gamma=2.0),
                 tl.example_scenario(4, gamma=0.5))
    for line in scenarios:
        for cells in range(12, 65):
            pair, cut = tl.discretize_pair(line, cells)
            twin = oracles.tri_class(cut)
            got, want = pair_profile(pair, cut), pair_profile(pair, twin)
            assert (got.star_p, got.star_q) == (want.star_p, want.star_q)
            for name in ("e_p", "e_q", "dis_p", "dis_q", "dis_q_own", "risk_q"):
                assert np.allclose(getattr(got, name), getattr(want, name),
                                   rtol=0.0, atol=1e-15), name
            clipped = np.maximum(want.risk_q - want.risk_q[want.star_p], 0.0)
            for c in (0.5, 1.0, 2.0):
                for op, lhs, rhs in ((tl.rho_min, want.e_p, want.e_q),
                                     (tl.gamma_min, want.dis_p, want.dis_q),
                                     (tl.rho_prime_min, want.e_p, clipped)):
                    assert_reports_close(
                        op(pair, cut, c), op(pair, twin, c), cut,
                        lambda i: math.log(c * lhs[i]) / math.log(rhs[i]))
                for side in (pair.p, pair.q):
                    own = pair_profile(tl.TransferPair(side, side), twin)
                    assert_reports_close(
                        tl.beta_max(side, cut, c), tl.beta_max(side, twin, c), cut,
                        lambda i: min(1.0, math.log(own.dis_p[i] / c) / math.log(own.e_p[i])))
            for args in ((2.0, 1.0, 1.0, 1.0), (1.0, 0.5, 0.5, 1.0), (3.0, 1.0, 1.0, 0.5)):
                a = tl.verify_membership(pair, cut, *args).violations
                b = tl.verify_membership(pair, twin, *args).violations
                assert list(a) == list(b)
                for name, (members, lhs, rhs) in a.items():
                    assert np.array_equal(members, b[name][0]), name
                    assert [oracles.labels_of(cut[m], cut.support_coords)
                            for m in members.tolist()] == \
                        [twin[m].labels for m in members.tolist()]
                    assert np.all(np.abs(lhs - b[name][1]) <= 1e-15), name
                    assert np.all(np.abs(rhs - b[name][2]) <= 1e-15), name
            for side in (pair.p, pair.q):
                best = tl.best_in_class(side, cut)
                assert best is cut[cut.members.index(best)]
                assert oracles.labels_of(best, cut.support_coords) == \
                    tl.best_in_class(side, twin).labels
                for i in range(len(cut)):
                    assert abs(tl.excess_risk(side, cut[i], cut)
                               - tl.excess_risk(side, twin[i], twin)) <= 1e-15


def test_rho_min_runs_at_2_16_cells():
    # the (s+1) x s label matrix over 2^16 cells would take 34 GB
    pair, cls = tl.discretize_pair(tl.example_scenario(3, gamma=2.0), 2 ** 16)
    rep = tl.rho_min(pair, cls)
    assert 1.9 < rep.value <= 2.0
    # index the witness by its threshold: listing every member would build
    # 2^16 label tuples of 2^16 entries each
    i = int(np.searchsorted(cls.thresholds, rep.witness.threshold))
    assert rep.witness is cls[i]
