import math

import numpy as np
import pytest

import oracles
import transferlab as tl
from transferlab.distributions import member_disagreement_mass


def all_ones_index(family):
    return int(np.flatnonzero((family.sigmas == 1).all(axis=1))[0])


# ---------------------------------------------------------------------------
# sampling


def test_sample_empty():
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25)
    s = tl.sample_labeled(fam.pairs[0].q, 0, seed=1)
    assert len(s) == 0


def test_sample_point_mass_deterministic_label():
    joint = tl.DiscreteJoint(np.arange(3.0), [1.0, 0.0, 0.0], [1.0, 0.5, 0.5])
    s = tl.sample_labeled(joint, 5, seed=3)
    assert np.array_equal(s.xs, np.zeros(5, dtype=np.int64))
    assert np.array_equal(s.ys, np.ones(5, dtype=np.int8))


def test_sample_frequencies_match_mass():
    joint = tl.DiscreteJoint(np.arange(4.0), [0.4, 0.3, 0.2, 0.1], [1, 1, 0, 0])
    n = 100_000
    s = tl.sample_labeled(joint, n, seed=5)
    freq = np.bincount(s.xs, minlength=4) / n
    for f, m in zip(freq, joint.mass):
        sigma = math.sqrt(m * (1 - m) / n)
        assert abs(f - m) <= 3 * sigma


def test_sampling_deterministic_given_seed():
    joint = tl.DiscreteJoint(np.arange(3.0), [0.5, 0.25, 0.25], [0.9, 0.5, 0.1])
    a = tl.sample_labeled(joint, 100, seed=42)
    b = tl.sample_labeled(joint, 100, seed=42)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)


def test_threshold_scenario_sampling_labels():
    pair = tl.example_scenario(2)
    s = tl.sample_labeled(pair.p, 500, seed=9)
    assert ((s.xs <= 0.5) == (s.ys == 1)).all()
    assert s.xs.min() >= 0.0 and s.xs.max() <= 2.0


# ---------------------------------------------------------------------------
# exact risks


def test_bayes_has_zero_excess_noiseless():
    joint = tl.DiscreteJoint(np.arange(3.0), [0.5, 0.3, 0.2], [1.0, 0.0, 1.0])
    cls = tl.full_cube_class(3)
    bayes = tl.finite_hypothesis([1, 0, 1])
    assert tl.excess_risk(joint, bayes, cls) == 0.0


def test_example2_excess_identities():
    pair = tl.example_scenario(2)
    for t in (0.1, 0.3, 0.5, 0.8, 1.0):
        h = tl.threshold_hypothesis(t)
        assert tl.true_risk(pair.q, h) == pytest.approx(abs(t - 0.5), abs=1e-15)
        assert tl.true_risk(pair.p, h) == pytest.approx(abs(t - 0.5) / 2, abs=1e-15)


def test_single_scale_family_excess_identity():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    d, eps = 8, 0.25
    for i, j in ((0, 1), (3, 200), (17, 255)):
        dist = int((fam.sigmas[i] != fam.sigmas[j]).sum())
        h = fam.bayes(j)
        pair = fam.pairs[i]
        assert tl.excess_risk(pair.q, h, fam.cls) == pytest.approx(dist / d * eps, abs=1e-12)
        assert tl.excess_risk(pair.p, h, fam.cls) == pytest.approx(dist / d * eps ** 2, abs=1e-12)


def test_single_scale_masses_sum_and_share_marginals():
    fam = tl.build_single_scale_family(13, 4.0, 0.25, 0.9, 0.1)
    first = fam.pairs[0]
    for pair in fam.pairs:
        assert abs(pair.q.mass.sum() - 1.0) < 1e-12
        assert abs(pair.p.mass.sum() - 1.0) < 1e-12
        assert np.array_equal(pair.q.mass, first.q.mass)
        assert np.array_equal(pair.p.mass, first.p.mass)


def test_single_scale_bayes_labels_anchor():
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.5)
    for i in (0, 100, 255):
        assert fam.bayes(i).labels[0] == 1
        assert np.array_equal(np.asarray(fam.bayes(i).labels[1:]),
                              (fam.sigmas[i] > 0).astype(int))


def test_single_scale_rejects_bad_params():
    with pytest.raises(ValueError):
        tl.build_single_scale_family(8, 1.0, 0.5, 0.5, 0.25)  # d = 7 < 8
    with pytest.raises(ValueError):
        tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.75)  # eps > 1/2
    with pytest.raises(ValueError):
        tl.build_single_scale_family(9, 0.5, 0.5, 0.5, 0.25)  # rho < 1


def test_two_scale_anchor_mass_formula():
    d_h, rho, bp, bq, e1, e2 = 11, 2.0, 0.5, 0.75, 0.25, 0.1
    fam = tl.build_two_scale_family(d_h, rho, bp, bq, e1, e2)
    tau = fam.params["tau"]
    q0 = fam.pairs[0].q.mass[0]
    assert q0 == pytest.approx(1 - 0.5 * (e1 ** bq + e2 / tau), abs=1e-15)


def test_two_scale_excess_identity():
    fam = tl.build_two_scale_family(11, 2.0, 0.5, 0.5, 0.25, 0.125)
    d = fam.sigmas.shape[1]
    half = d // 2
    e1, e2 = fam.params["eps1"], fam.params["eps2"]
    for i, j in ((0, 5), (9, 700)):
        d1 = int((fam.sigmas[i][:half] != fam.sigmas[j][:half]).sum())
        d2 = int((fam.sigmas[i][half:] != fam.sigmas[j][half:]).sum())
        got = tl.excess_risk(fam.pairs[i].q, fam.bayes(j), fam.cls)
        assert got == pytest.approx(d1 / d * e1 + d2 / d * e2, abs=1e-12)


def test_two_scale_rejects_bad_params():
    with pytest.raises(ValueError):
        tl.build_two_scale_family(11, 1.0, 0.5, 0.5, 0.25, 0.25)  # rho < 1/beta
    with pytest.raises(ValueError):
        tl.build_two_scale_family(11, 2.0, 0.5, 0.5, 0.75, 0.25)  # eps1 too big
    with pytest.raises(ValueError):
        tl.build_two_scale_family(11, 2.0, 0.5, 0.5, 0.25, 0.25, tau=0.4)


def test_epsilon_schedule_matches_direct_formula():
    d_h, rho, bp, bq = 9, 2.0, 0.5, 0.5
    n_p, n_q = 4096, 64
    want = min((d_h / n_p) ** (1 / ((2 - bp) * rho)), (d_h / n_q) ** (1 / (2 - bq)))
    assert tl.epsilon_schedule(n_p, n_q, d_h, rho, bp, bq) == pytest.approx(want)
    assert tl.epsilon_schedule(10**9, 10**9, d_h, rho, bp, bq) <= 0.5


# ---------------------------------------------------------------------------
# packing and kl


def test_vg_packing_bounds():
    for d in (8, 16, 24, 32):
        pack = tl.vg_packing(d, seed=1)
        assert pack.shape[0] >= 2 ** (d / 8) + 1
        assert np.array_equal(pack[0], np.ones(d, dtype=np.int8))
        assert np.isin(pack, (-1, 1)).all()
        k = pack.shape[0]
        for i in range(k):
            for j in range(i + 1, k):
                assert (pack[i] != pack[j]).sum() >= d / 8
        # all distinct follows from the distance bound
        assert len({tuple(row) for row in pack}) == k


def test_vg_packing_instantiated_sizes():
    assert tl.vg_packing(8, seed=0).shape[0] >= 3
    assert tl.vg_packing(16, seed=0).shape[0] >= 5
    with pytest.raises(ValueError):
        tl.vg_packing(7)


def test_kl_bernoulli_zero_and_value():
    assert tl.kl_bernoulli(0.3, 0.3) == 0.0
    assert tl.kl_bernoulli(0.75, 0.25) == pytest.approx(0.5 * math.log(3), abs=1e-15)
    with pytest.raises(ValueError):
        tl.kl_bernoulli(0.0, 0.5)


def test_chi2_bound_value_and_domination():
    assert tl.chi2_bound(0.5, 1) == pytest.approx(4 / 3, abs=1e-15)
    for eps in np.arange(0.01, 0.50, 0.01):
        p = 0.5 + eps / 2
        q = 0.5 - eps / 2
        assert tl.kl_bernoulli(p, q) <= tl.chi2_bound(float(eps)) + 1e-15


def test_kl_product_symmetry_and_bound():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    n_p, n_q = 50, 70
    assert tl.kl_product(fam, 3, 3, n_p, n_q) == 0.0
    a = tl.kl_product(fam, 3, 12, n_p, n_q)
    b = tl.kl_product(fam, 12, 3, n_p, n_q)
    assert a == pytest.approx(b, rel=1e-12)
    # closed-form domination with the chi-square constant
    rho, bp, bq, eps = 2.0, 0.5, 0.5, 0.25
    e_p = eps ** (rho * (1 - bp))
    e_q = eps ** (1 - bq)
    c0 = max(tl.chi2_bound(e_p) / e_p ** 2, tl.chi2_bound(e_q) / e_q ** 2)
    assert a <= c0 * (n_p * eps ** (rho * (2 - bp)) + n_q * eps ** (2 - bq)) + 1e-12


def test_kl_product_with_tuned_epsilon_stays_small():
    # with the scale set from the sample sizes, the product KL is O(d)
    d_h, rho, bp, bq = 9, 2.0, 0.5, 0.5
    n_p, n_q = 2048, 512
    c1 = 0.5
    eps = tl.epsilon_schedule(n_p, n_q, d_h, rho, bp, bq, c1=c1)
    fam = tl.build_single_scale_family(d_h, rho, bp, bq, eps)
    e_p = eps ** (rho * (1 - bp))
    e_q = eps ** (1 - bq)
    c0 = max(tl.chi2_bound(e_p) / e_p ** 2, tl.chi2_bound(e_q) / e_q ** 2)
    val = tl.kl_product(fam, 0, len(fam) - 1, n_p, n_q)
    assert val <= 2 * c0 * c1 * (d_h - 1) + 1e-9


# ---------------------------------------------------------------------------
# scenarios and serialization


def test_example4_interval_mass():
    pair = tl.example_scenario(4, gamma=0.5)
    for t in (0.1, 0.25, 0.5, 0.9):
        assert pair.p.density.interval_mass(-t, t) == pytest.approx(t ** 0.5, abs=1e-12)


def test_example_scenario_rejects_bad_gamma():
    with pytest.raises(ValueError):
        tl.example_scenario(3, gamma=0.5)
    with pytest.raises(ValueError):
        tl.example_scenario(4, gamma=1.5)
    with pytest.raises(ValueError):
        tl.example_scenario(7)


def test_ring_surrogate_disjoint_supports():
    pair, cls = tl.example_scenario(1)
    assert float(pair.p.mass @ pair.q.mass) == 0.0  # no shared atoms
    bayes = tl.best_in_class(pair.q, cls)
    assert tl.excess_risk(pair.p, bayes, cls) == 0.0


@pytest.mark.parametrize("k", [4, 6, 8, 10, 16, 32])
def test_ring_surrogate_matches_oracle(k):
    # k = 6 and 10 put points on the half-plane boundary, where only the sign
    # of a rounded cosine decides the label
    _, cls = tl.example_scenario(1, n_angles=k)
    assert [h.labels for h in cls.members] == oracles.ring_members(k)
    assert cls.vc_dim == 2


def test_member_disagreement_mass_matches_formula():
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.9, 0.25)
    cut_pair, cut = tl.discretize_pair(tl.example_scenario(3, gamma=2.0), 12)
    for joint, cls in ((fam.pairs[5].q, fam.cls), (fam.pairs[5].p, fam.cls),
                       (cut_pair.p, cut), (cut_pair.q, cut)):
        lab = cls.label_matrix
        for i in range(len(cls)):
            got = member_disagreement_mass(joint, cls, i)
            # the folded product over member i's own labels gives the same
            # bits; summing the disagreeing masses directly agrees to rounding
            ref = np.asarray(cls[i].labels, dtype=np.float64)
            assert np.array_equal(
                got, lab @ (joint.mass * (1.0 - 2.0 * ref)) + np.dot(joint.mass, ref))
            want = ((lab != ref) * joint.mass).sum(axis=1)
            assert np.allclose(got, want, rtol=0.0, atol=1e-15)


def test_rcs_pair_construction():
    pair, cls = tl.rcs_violating_pair(0.15)
    h_star_p = tl.best_in_class(pair.p, cls)
    assert tl.excess_risk(pair.q, h_star_p, cls) == pytest.approx(0.15, abs=1e-12)


def test_discretize_pair_masses():
    pair, cls = tl.discretize_pair(tl.example_scenario(2), 64)
    assert pair.p.size == 64 and len(cls) == 65
    assert abs(pair.p.mass.sum() - 1) < 1e-12
    # Q mass lives on [0, 1] only: first half of the cells
    assert pair.q.mass[32:].sum() == 0.0


def test_scenario_roundtrip_exact(tmp_path):
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.9, 0.25)
    pair = fam.pairs[123]
    path = tmp_path / "scenario.json"
    tl.save_scenario(path, pair)
    back = tl.load_scenario(path)
    assert np.array_equal(back.p.mass, pair.p.mass)
    assert np.array_equal(back.p.eta, pair.p.eta)
    assert np.array_equal(back.q.eta, pair.q.eta)
    assert back.certified == pair.certified
    tl.save_scenario(tmp_path / "again.json", back)
    assert (tmp_path / "again.json").read_text() == path.read_text()


def test_scenario_dict_field_names():
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25)
    doc = tl.scenario_to_dict(fam.pairs[0])
    assert set(doc) == {"support", "mass_p", "eta_p", "mass_q", "eta_q", "certified"}
    assert set(doc["certified"]) == {"rho", "C_rho", "gamma", "C_gamma",
                                     "beta_P", "beta_Q", "c_P", "c_Q"}


def test_scenario_dict_rejects_unknown_fields():
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25)
    doc = tl.scenario_to_dict(fam.pairs[0])
    doc["extra"] = 1
    with pytest.raises(ValueError):
        tl.scenario_from_dict(doc)


def test_joint_invariants_enforced():
    with pytest.raises(ValueError):
        tl.DiscreteJoint(np.arange(2.0), [0.6, 0.6], [0.5, 0.5])
    with pytest.raises(ValueError):
        tl.DiscreteJoint(np.arange(2.0), [0.5, 0.5], [1.5, 0.5])
    with pytest.raises(ValueError):
        tl.DiscreteJoint(np.arange(2.0), [-0.5, 1.5], [0.5, 0.5])


def test_certified_metadata_confirmed_by_brute_force():
    # discrete constructions certify exactly; grid-based scenarios certify as
    # an upper bound approached from below
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.75, 0.25)
    pair = fam.pairs[41]
    cert = pair.certified
    assert tl.rho_min(pair, fam.cls, cert.c_rho).value == pytest.approx(cert.rho, abs=1e-9)
    assert tl.beta_max(pair.p, fam.cls, cert.c_p).value == pytest.approx(cert.beta_p, abs=1e-9)
    assert tl.beta_max(pair.q, fam.cls, cert.c_q).value == pytest.approx(cert.beta_q, abs=1e-9)
    if cert.gamma is not None:
        assert tl.gamma_min(pair, fam.cls, cert.c_gamma).value == pytest.approx(
            cert.gamma, abs=1e-9)

    ring_pair, ring_cls = tl.example_scenario(1)
    rc = ring_pair.certified
    assert tl.gamma_min(ring_pair, ring_cls, rc.c_gamma).value == pytest.approx(rc.gamma)
    assert tl.rho_min(ring_pair, ring_cls, rc.c_rho).value == pytest.approx(rc.rho)

    for sid, g in ((2, None), (3, 3.0), (4, 0.5)):
        pair = tl.example_scenario(sid, gamma=g)
        cert = pair.certified
        got = tl.gamma_min(pair, tl.threshold_class(), cert.c_gamma).value
        assert got <= cert.gamma + 1e-9


def test_family_builder_enumeration_cap():
    with pytest.raises(ValueError, match="d_h - 1 <= 14"):
        tl.build_single_scale_family(20, 2.0, 0.5, 0.5, 0.25)
