import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorball import (
    DegeneracyError,
    Rank1Terms,
    SmoothedEnsemble,
    ValidationError,
    contract_mode3,
    decompose_smoothed,
    fold_higher_order,
    match_components,
    simultaneous_diagonalize,
    unfold_terms,
)
from tensorball.decomposition import folding_plan


def random_terms(rng, shape, r):
    mats = [rng.standard_normal((n, r)) for n in shape]
    weights = rng.uniform(0.5, 2.0, r) * rng.choice([-1.0, 1.0], r)
    return Rank1Terms.from_raw(mats, weights=weights)


def test_from_raw_canonicalizes():
    f1 = np.array([[-3.0, 0.0], [0.0, 2.0]])
    f2 = np.array([[0.0, -5.0], [4.0, 0.0]])
    terms = Rank1Terms.from_raw([f1, f2], weights=(1.0, 1.0))
    for m in terms.factors:
        assert np.allclose(np.linalg.norm(m, axis=0), 1.0)
        for i in range(2):
            lead = m[np.flatnonzero(m[:, i])[0], i]
            assert lead > 0
    # norms 3*4 and 2*5 absorbed, one sign flip per column
    assert np.allclose(np.sort(np.abs(terms.weights)), [10.0, 12.0])
    assert terms.weights[0] == pytest.approx(-12.0)


def test_constructor_rejects_noncanonical():
    bad_norm = np.array([[2.0], [0.0]])
    ok = np.array([[1.0], [0.0]])
    with pytest.raises(ValidationError, match="unit"):
        Rank1Terms(weights=np.ones(1), factors=(bad_norm, ok))
    neg_lead = np.array([[-1.0], [0.0]])
    with pytest.raises(ValidationError, match="sign"):
        Rank1Terms(weights=np.ones(1), factors=(neg_lead, ok))
    with pytest.raises(ValidationError):
        Rank1Terms(weights=np.ones(2), factors=(ok, ok))
    with pytest.raises(ValidationError, match="zero"):
        Rank1Terms.from_raw([np.zeros((2, 1)), ok])


def test_reconstruct_oracle():
    terms = Rank1Terms(weights=np.array([2.0, -1.0]), factors=(np.eye(2), np.eye(2)))
    assert np.array_equal(terms.reconstruct(), np.diag([2.0, -1.0]))


def test_contract_mode3_rank_one():
    u, v, w = np.array([1.0, 2.0]), np.array([3.0, 1.0]), np.array([0.5, -1.0, 2.0])
    t = np.einsum("i,j,k->ijk", u, v, w)
    a = np.array([1.0, 1.0, 1.0])
    assert np.allclose(contract_mode3(t, a), float(w @ a) * np.outer(u, v))
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(contract_mode3(t, e1), t[:, :, 0])


def test_contract_mode3_validation():
    with pytest.raises(ValidationError):
        contract_mode3(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(ValidationError):
        contract_mode3(np.zeros((2, 2, 3)), np.ones(2))


def test_diagonalize_diagonal_tensor():
    t = np.zeros((4, 4, 4))
    for i in range(3):
        t[i, i, i] = i + 1.0
    terms = simultaneous_diagonalize(t, 3, rng=0)
    assert np.allclose(np.sort(terms.weights), [1.0, 2.0, 3.0])
    assert terms.residual <= 1e-10
    assert np.allclose(terms.reconstruct(), t, atol=1e-10)
    # every recovered factor column is a coordinate vector
    for m in terms.factors:
        assert np.allclose(np.max(np.abs(m), axis=0), 1.0, atol=1e-10)


def test_diagonalize_single_term():
    t = np.zeros((3, 3, 3))
    t[0, 0, 0] = 1.0
    terms = simultaneous_diagonalize(t, 1, rng=0)
    assert terms.weights == pytest.approx([1.0])
    assert terms.residual <= 1e-12


def test_diagonalize_random_rank6():
    truth = random_terms(np.random.default_rng(5), (10, 10, 10), 6)
    est = simultaneous_diagonalize(truth.reconstruct(), 6, rng=1)
    report = match_components(truth, est)
    assert report.max_error <= 1e-6


def test_diagonalize_probe_invariance():
    truth = random_terms(np.random.default_rng(8), (5, 5, 5), 3)
    t = truth.reconstruct()
    est1 = simultaneous_diagonalize(t, 3, rng=101)
    est2 = simultaneous_diagonalize(t, 3, rng=202)
    assert match_components(est1, est2).max_error <= 1e-8


def test_diagonalize_validation():
    with pytest.raises(ValidationError, match="unsupported"):
        simultaneous_diagonalize(np.ones((2, 2, 5)), 3, rng=0)
    with pytest.raises(ValidationError, match="order"):
        simultaneous_diagonalize(np.ones((2, 2)), 1, rng=0)
    with pytest.raises(ValidationError, match="zero"):
        simultaneous_diagonalize(np.zeros((2, 2, 2)), 1, rng=0)


def test_diagonalize_exhausts_probes_on_rank_deficiency():
    t = np.zeros((4, 4, 4))
    t[0, 0, 0] = 1.0
    t[1, 1, 1] = 1.0
    with pytest.raises(DegeneracyError, match="5 draws"):
        simultaneous_diagonalize(t, 3, rng=0)


def test_folding_plan_groups():
    plan4 = folding_plan((2, 3, 4, 5))
    assert plan4.groups == ((0,), (1, 2), (3,))
    assert plan4.grouped_shape == (2, 12, 5)
    plan5 = folding_plan((2,) * 5)
    assert plan5.groups == ((0, 1), (2, 3), (4,))
    assert plan5.grouped_shape == (4, 4, 2)
    plan3 = folding_plan((3, 3, 3))
    assert plan3.groups == ((0,), (1,), (2,))
    with pytest.raises(ValidationError):
        folding_plan((4, 4))


def test_fold_requires_order_four():
    terms = random_terms(np.random.default_rng(0), (3, 3, 3), 2)
    with pytest.raises(ValidationError):
        fold_higher_order(terms)


def test_fold_unfold_round_trip():
    terms = random_terms(np.random.default_rng(3), (3, 2, 4, 3), 2)
    plan, folded = fold_higher_order(terms)
    assert folded.shape == plan.grouped_shape
    back = unfold_terms(plan, folded)
    assert np.allclose(back.weights, terms.weights, atol=1e-12)
    for a, b in zip(back.factors, terms.factors):
        assert np.allclose(a, b, atol=1e-12)


@given(st.integers(0, 10**6), st.integers(4, 5))
@settings(max_examples=25, deadline=None)
def test_fold_round_trip_property(seed, ell):
    rng = np.random.default_rng(seed)
    shape = tuple(int(d) for d in rng.integers(2, 4, ell))
    terms = random_terms(rng, shape, 2)
    plan, folded = fold_higher_order(terms)
    back = unfold_terms(plan, folded)
    assert np.allclose(back.weights, terms.weights, atol=1e-10)
    for a, b in zip(back.factors, terms.factors):
        assert np.allclose(a, b, atol=1e-10)


def test_match_identity():
    terms = random_terms(np.random.default_rng(1), (4, 3, 5), 3)
    report = match_components(terms, terms)
    assert report.permutation == (0, 1, 2)
    assert report.max_error == 0.0


def test_match_handles_permutation_and_signs():
    truth = random_terms(np.random.default_rng(2), (4, 4, 4), 3)
    perm = [2, 0, 1]
    mats = []
    for mode in range(3):
        m = truth.factors[mode][:, perm].copy()
        if mode < 2:
            m[:, 0] = -m[:, 0]  # paired flips cancel in the tensor
        mats.append(m)
    est = Rank1Terms.from_raw(mats, weights=truth.weights[perm])
    report = match_components(truth, est)
    assert report.max_error <= 1e-12
    assert [report.permutation[j] for j in perm] == [0, 1, 2]


def test_match_measures_perturbation():
    rng = np.random.default_rng(4)
    truth = random_terms(rng, (5, 5, 5), 3)
    noisy = [m + 1e-4 * rng.standard_normal(m.shape) for m in truth.factors]
    est = Rank1Terms.from_raw(noisy, weights=truth.weights.copy())
    report = match_components(truth, est)
    assert 1e-6 < report.max_error < 1e-2


def test_match_validation():
    a = random_terms(np.random.default_rng(0), (3, 3, 3), 2)
    b = random_terms(np.random.default_rng(0), (3, 3, 4), 2)
    c = random_terms(np.random.default_rng(0), (3, 3, 3), 3)
    with pytest.raises(ValidationError):
        match_components(a, b)
    with pytest.raises(ValidationError):
        match_components(a, c)


def test_report_serialization():
    truth = random_terms(np.random.default_rng(9), (3, 3, 3), 2)
    report = match_components(truth, truth)
    d = json.loads(json.dumps(report.to_json_dict()))
    assert d["permutation"] == [0, 1]
    rows = report.to_csv_rows()
    assert rows[0]["component"] == 0
    assert "factor_error_mode1" in rows[0]


def test_decompose_smoothed_noiseless():
    e = SmoothedEnsemble.random(4, 6, 3, 1.0, rng=0)
    report = decompose_smoothed(e, 0.0, rng=1)
    assert report.max_error <= 1e-6
    assert report.diagnostics["residual"] <= 1e-8
    assert report.diagnostics["smin_group1"] > 0


def test_decompose_smoothed_order_four():
    e = SmoothedEnsemble.random(3, 4, 4, 1.0, rng=2)
    report = decompose_smoothed(e, 0.0, rng=3)
    assert report.max_error <= 1e-6


def test_decompose_smoothed_small_noise():
    e = SmoothedEnsemble.random(3, 6, 3, 1.0, rng=4)
    report = decompose_smoothed(e, 1e-8, rng=5)
    assert report.max_error <= 1e-4


def test_decompose_smoothed_validation():
    with pytest.raises(ValidationError, match="ell"):
        decompose_smoothed(SmoothedEnsemble.random(2, 3, 2, 0.5, rng=0), 0.0)
    with pytest.raises(ValidationError, match="r <="):
        decompose_smoothed(SmoothedEnsemble.random(4, 3, 3, 0.5, rng=0), 0.0)
    with pytest.raises(ValidationError, match="noise"):
        decompose_smoothed(SmoothedEnsemble.random(2, 3, 3, 0.5, rng=0), -1.0)
