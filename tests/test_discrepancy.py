import json
import math

import numpy as np
import pytest

import transferlab as tl
from transferlab.discrepancy import pair_profile


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
    bad = tl.verify_membership(fam.pairs[31], fam.cls, 1.5, 0.5, 0.5, 1.0)
    assert not bad.ok and bad.violations[0]["witness_labels"] is not None


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


def test_witness_consistency_gamma():
    fam = tl.build_single_scale_family(9, 4.0, 0.25, 0.9, 0.1)
    pair = fam.pairs[3]
    rep = tl.gamma_min(pair, fam.cls, 1.0)
    prof = pair_profile(pair, fam.cls)
    i = prof.members.index(rep.witness)
    ratio = math.log(prof.dis_p[i]) / math.log(prof.dis_q[i])
    assert ratio == pytest.approx(rep.value, abs=1e-12)


def test_exponent_sweep_runs():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    reps = tl.exponent_sweep(fam.pairs[0], fam.cls, "rho", [0.5, 1.0, 2.0])
    assert len(reps) == 3
    assert reps[0].value >= reps[-1].value - 1e-12


def test_report_serialization():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    rep = tl.rho_min(fam.pairs[0], fam.cls, 1.0)
    doc = rep.to_json_dict()
    assert set(doc) == {"value", "constant", "witness_labels"}
    assert doc["value"] == rep.value
    labels = json.loads(json.dumps(doc))["witness_labels"]
    assert labels == list(rep.witness.labels)
    assert all(type(b) is int for b in labels)
