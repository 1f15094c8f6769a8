import itertools
import json
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from tensorball import (
    DegeneracyError,
    Rank1Terms,
    SmoothedEnsemble,
    ValidationError,
    contract_mode3,
    decompose_smoothed,
    khatri_rao,
    match_components,
    simultaneous_diagonalize,
    unfold_terms,
)
from tensorball import cli, tensor_core
from tensorball.decomposition import _assign, _column_norms, _realify_columns, folding_plan


def random_terms(rng, shape, r):
    mats = [rng.standard_normal((n, r)) for n in shape]
    weights = rng.uniform(0.5, 2.0, r) * rng.choice([-1.0, 1.0], r)
    return Rank1Terms.from_raw(mats, weights=weights)


def fold_terms(terms):
    """The folding plan of ``terms`` and the terms grouped by it into order-3 Khatri-Rao flattenings."""
    plan = folding_plan(terms.shape)
    grouped = [khatri_rao([terms.factors[j] for j in g]) for g in plan.groups]
    return plan, Rank1Terms.from_raw(grouped, weights=terms.weights)


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


def test_constructor_rejects_nan_column():
    # |norm - 1| > tol is False for a NaN norm, so the check must be written the other way
    nan_col = np.array([[np.nan], [0.0]])
    with pytest.raises(ValidationError, match="unit"):
        Rank1Terms(weights=np.ones(1), factors=(nan_col, np.array([[1.0], [0.0]])))


def test_from_raw_rejects_nan_column():
    with pytest.raises(ValidationError, match="NaN"):
        Rank1Terms.from_raw([np.array([[np.nan, 1.0], [0.0, 1.0]]), np.eye(2)])


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
def test_constructor_rejects_non_finite_weights(weight):
    unit = np.array([[1.0], [0.0]])
    with pytest.raises(ValidationError, match="weights must be finite"):
        Rank1Terms(weights=np.array([weight]), factors=(unit, unit))
    with pytest.raises(ValidationError, match="weights must be finite"):
        Rank1Terms.from_raw([unit, unit], weights=[weight])


def test_reconstruct_oracle():
    terms = Rank1Terms(weights=np.array([2.0, -1.0]), factors=(np.eye(2), np.eye(2)))
    assert np.array_equal(terms.reconstruct(), np.diag([2.0, -1.0]))


def whole_matrix_reconstruct(terms):
    return (khatri_rao(terms.factors) @ terms.weights).reshape(terms.shape)


def integer_terms(rng, shape, r):
    """Terms from integer factors and weights whose every product and sum is exact.

    A unit column with integer entries is ``±e_k``, so each raw column holds
    one entry ±1 or, where n >= 4, four; ``from_raw`` divides the latter by
    their norm 2, which leaves entries 0 and ±1/2, and takes integer weights
    times powers of two.
    """
    mats = []
    for n in shape:
        m = np.zeros((n, r))
        for i in range(r):
            at = rng.choice(n, size=4 if n >= 4 and rng.random() < 0.75 else 1, replace=False)
            m[at, i] = rng.choice([-1.0, 1.0], size=at.size)
        mats.append(m)
    weights = rng.integers(1, 10, r) * rng.choice([-1.0, 1.0], r)
    return Rank1Terms.from_raw(mats, weights=weights)


WHOLE_CASES = [
    ((30, 30, 30), 20),  # the smoothed workload's shapes
    ((6,) * 5, 30),
    ((10, 10, 10), 6),
    ((4,) * 4, 4),
    ((7,), 3),  # order 1
    ((9, 5), 4),  # order 2
    ((30, 30, 30), 1),
    ((1, 1, 1), 2),
]

# the order-3 terms simultaneous_diagonalize reconstructs: (30, 30, 30) and (36, 36, 6)
FOLDED_CASES = [(3, 30, 20), (5, 6, 30)]


def folded_case(make_terms, ell, n, r):
    _, folded = fold_terms(make_terms(np.random.default_rng(n), (n,) * ell, r))
    assert folded.shape == {3: (30, 30, 30), 5: (36, 36, 6)}[ell]
    return folded


@pytest.mark.parametrize("shape, r", WHOLE_CASES)
def test_reconstruct_bitwise_whole_matrix(shape, r):
    # the gemm associates each term and orders each sum unlike the whole
    # matrix's gemv, so the bits agree where every product and sum is exact
    terms = integer_terms(np.random.default_rng(len(shape) * r), shape, r)
    got = terms.reconstruct()
    assert got.shape == shape and np.any(got)
    assert np.array_equal(got, whole_matrix_reconstruct(terms))


@pytest.mark.parametrize("ell, n, r", FOLDED_CASES)
def test_reconstruct_bitwise_on_folded_terms(ell, n, r):
    folded = folded_case(integer_terms, ell, n, r)
    assert np.array_equal(folded.reconstruct(), whole_matrix_reconstruct(folded))


# every case above, on random terms
RANDOM_CASES = [("whole", case) for case in WHOLE_CASES] + [("folded", case) for case in FOLDED_CASES]


def random_case(kind, case):
    if kind == "folded":
        return folded_case(random_terms, *case)
    shape, r = case
    return random_terms(np.random.default_rng(len(shape) * r), shape, r)


@pytest.mark.parametrize("kind, case", RANDOM_CASES)
def test_reconstruct_within_its_forward_error_bound(kind, case):
    """Both the gemm and the whole-matrix product compute each entry
    ``sum_i w_i a_i x b_i x ...`` with at most l roundings per term and r - 1
    per sum, so each is within gamma_{r+l} * M of the exact tensor, where
    ``M = sum_i |w_i| |a_i| x |b_i| x ...`` (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3).  Their difference is at most 2 gamma_{r+l} M;
    the bound below adds room for the rounding of M itself."""
    terms = random_case(kind, case)
    u = np.finfo(float).eps / 2
    magnitude = (khatri_rao([np.abs(f) for f in terms.factors]) @ np.abs(terms.weights)).reshape(terms.shape)
    error = np.abs(terms.reconstruct() - whole_matrix_reconstruct(terms))
    assert np.all(error <= 3 * (terms.r + terms.order) * u * magnitude)


@pytest.mark.parametrize("kind, case", RANDOM_CASES)
def test_reconstruct_bitwise_on_a_fresh_thread(kind, case):
    terms = random_case(kind, case)
    here = terms.reconstruct()
    there = []
    worker = threading.Thread(target=lambda: there.append(terms.reconstruct()))
    worker.start()
    worker.join(timeout=60)
    assert np.array_equal(here.view(np.int64), there[0].view(np.int64))


@pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 4), (1, 1, 1)])
def test_reconstruct_of_no_terms_is_zero(shape):
    terms = Rank1Terms(weights=np.zeros(0), factors=tuple(np.zeros((n, 0)) for n in shape))
    assert terms.r == 0
    got = terms.reconstruct()
    assert got.shape == shape and not np.any(got)


def test_reconstruct_peaks_well_under_the_whole_matrix():
    terms = random_terms(np.random.default_rng(0), (30, 30, 30), 20)
    whole_bytes = 30**3 * 20 * 8  # 4.3 MB
    tracemalloc.start()
    try:
        terms.reconstruct()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole_bytes / 2


def test_warm_reconstruct_allocates_no_block():
    terms = random_terms(np.random.default_rng(0), (30, 30, 30), 20)
    lead_bytes, out_bytes, scaled_bytes = 900 * 20 * 8, 30**3 * 8, 30 * 20 * 8
    terms.reconstruct()
    tracemalloc.start()
    try:
        terms.reconstruct()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the lead product (144 kB), the scaled last factor (4.8 kB) and the
    # output (216 kB); no n_l-row block of the Khatri-Rao matrix
    assert peak < lead_bytes + out_bytes + scaled_bytes + 4096


def test_kept_block_carries_nothing_between_calls():
    rng = np.random.default_rng(8)
    a = random_terms(rng, (30, 30, 30), 20)  # n_l * r = 600
    b = random_terms(rng, (6,) * 5, 30)  # n_l * r = 180
    shape = (8, 8, 8)
    rows = rng.standard_normal((8, 512))  # no row has one nonzero: the dense path
    xs = [rng.standard_normal((700, n)) for n in shape]

    def run():
        first = a.reconstruct()
        other = b.reconstruct()
        dense = tensor_core.contract(rows, shape, xs)
        again = a.reconstruct()
        # every call returns arrays of its own, no view of a kept one
        assert not any(np.shares_memory(x, y) for x, y in itertools.combinations((first, other, dense, again), 2))
        return first, other, dense, again

    # on this thread, which other tests have used, and on a fresh one (where
    # a failed assertion leaves ``results`` one short)
    results = [run()]
    worker = threading.Thread(target=lambda: results.append(run()))
    worker.start()
    worker.join(timeout=60)
    assert len(results) == 2
    for first, other, dense, again in results:
        assert np.array_equal(first.view(np.int64), again.view(np.int64))
        assert np.array_equal(first.view(np.int64), results[0][0].view(np.int64))
        assert np.array_equal(other.view(np.int64), results[0][1].view(np.int64))
        assert np.array_equal(dense, results[0][2])


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


@pytest.mark.parametrize("r", [1.5, 2.0, np.float64(2.0), True, "2", None])
def test_diagonalize_refuses_a_rank_that_is_not_an_integer(r):
    # 1.5 passed the range check and ended in an IndexError of the probe SVD
    t = random_terms(np.random.default_rng(3), (5, 5, 5), 2).reconstruct()
    with pytest.raises(ValidationError, match="integer"):
        simultaneous_diagonalize(t, r, rng=0)


def test_diagonalize_takes_a_numpy_integer_rank():
    t = random_terms(np.random.default_rng(3), (5, 5, 5), 2).reconstruct()
    a, b = simultaneous_diagonalize(t, 2, rng=0), simultaneous_diagonalize(t, np.int64(2), rng=0)
    assert np.array_equal(a.weights, b.weights) and a.residual == b.residual


@pytest.mark.parametrize(
    "factors",
    [[], [np.ones((2, 2)), np.ones((2, 3))], [np.ones((3, 1)), np.ones((3, 2)), np.ones((3, 1))]],
    ids=["no-factors", "two-then-three-columns", "one-two-one-columns"],
)
def test_from_raw_refuses_factors_without_one_column_per_weight(factors):
    with pytest.raises(ValidationError, match="one column per weight"):
        Rank1Terms.from_raw(factors)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_diagonalize_refuses_non_finite_entries(entry):
    # a NaN entry used to reach the probe SVD and fail there with LinAlgError
    t = random_terms(np.random.default_rng(3), (5, 5, 5), 3).reconstruct()
    t[1, 2, 3] = entry
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValidationError, match="non-finite"):
        simultaneous_diagonalize(t, 3, rng)
    assert rng.bit_generator.state == state  # refused before any probe was drawn


def test_diagonalize_exhausts_probes_on_rank_deficiency():
    t = np.zeros((4, 4, 4))
    t[0, 0, 0] = 1.0
    t[1, 1, 1] = 1.0
    with pytest.raises(DegeneracyError, match="5 draws") as info:
        simultaneous_diagonalize(t, 3, rng=0)
    # every draw's reason, not only the last one
    assert [f"draw {k}:" in str(info.value) for k in range(1, 6)] == [True] * 5


# the folded cases and one rank-one case
SOLVE_CASES = [("folded", case) for case in FOLDED_CASES] + [("whole", ((30, 30, 30), 1))]


@pytest.mark.parametrize("kind, case", SOLVE_CASES)
def test_mode3_factors_are_the_least_squares_solution(kind, case):
    """The normal equations on the Hadamard Gram give the least-squares mode-3
    factors of the design formed from the recovered mode-1 and mode-2 factors."""
    truth = random_case(kind, case)
    t = truth.reconstruct()
    t += 1e-8 * np.random.default_rng(1).standard_normal(t.shape)  # a nonzero residual
    est = simultaneous_diagonalize(t, truth.r, rng=0)
    n1, n2, n3 = t.shape
    want, *_ = np.linalg.lstsq(khatri_rao(est.factors[:2]), t.reshape(n1 * n2, n3), rcond=None)
    got = (est.weights * est.factors[2]).T
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def failing_solve(columns):
    """``np.linalg.solve`` that raises on a right side with ``columns`` columns.

    The eigenvector solve for the mode-2 factors has n2 right-hand columns and
    the Gram solve n3, so on a tensor with n2 != n3 it fails only one of them.
    """
    solve = np.linalg.solve

    def patched(a, b):
        if b.shape[1] == columns:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    return patched


def five_draw_reasons(t, solve):
    """The reasons ``simultaneous_diagonalize`` lists once ``np.linalg.solve`` is ``solve``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", solve)
        with pytest.raises(DegeneracyError, match="5 draws") as info:
            simultaneous_diagonalize(t, 3, rng=0)
    return str(info.value)


# n2 = 4 and n3 = 6: the eigenvector solve has 4 right-hand columns, the Gram's 6
UNEQUAL = (5, 4, 6)


def test_singular_gram_is_a_failed_draw():
    t = random_terms(np.random.default_rng(3), UNEQUAL, 3).reconstruct()
    message = five_draw_reasons(t, failing_solve(6))
    reasons = [f"draw {k}: Khatri-Rao Gram of the recovered factors is singular" for k in range(1, 6)]
    assert [reason in message for reason in reasons] == [True] * 5


def test_singular_eigenvector_matrix_is_a_failed_draw():
    t = random_terms(np.random.default_rng(3), UNEQUAL, 3).reconstruct()
    message = five_draw_reasons(t, failing_solve(4))
    reasons = [f"draw {k}: eigenvector matrix of the probe pencil is singular" for k in range(1, 6)]
    assert [reason in message for reason in reasons] == [True] * 5


def test_singular_gram_exits_3_with_one_line(monkeypatch, tmp_path, capsys):
    # grouped shape (9, 9, 3): only the Gram solve has 3 right-hand columns
    monkeypatch.setattr(np.linalg, "solve", failing_solve(3))
    assert cli.main(["decompose", "--n", "3", "--l", "5", "--r", "4", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("degeneracy: ") and "Gram of the recovered factors is singular" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_probe_orthogonal_to_a_component_is_a_usable_draw():
    # the component's eigenvalue of the r x r pencil is 0, distinct from the
    # others, so the first probe pair recovers every component
    n, r = 6, 3
    a = np.random.default_rng(0).standard_normal(n)
    rng = np.random.default_rng(1)
    mats = [rng.standard_normal((n, r)) for _ in range(3)]
    mats[2][:, 0] -= (a @ mats[2][:, 0]) / (a @ a) * a
    truth = Rank1Terms.from_raw(mats, weights=rng.uniform(0.5, 2.0, r))
    probes = np.random.default_rng(0)
    est = simultaneous_diagonalize(truth.reconstruct(), r, probes)
    one_pair = np.random.default_rng(0)
    one_pair.standard_normal(2 * n)
    assert probes.bit_generator.state == one_pair.bit_generator.state
    assert match_components(truth, est).max_error <= 1e-12


@pytest.mark.parametrize("shape", [(2.5, 2, 2), (2, 2, 2.0), (True, 2, 2), (2, "2", 2), (2, 2, 0), (2, -1, 2, 2)])
def test_folding_plan_refuses_dims_that_are_not_positive_integers(shape):
    # (2.5, 2, 2) used to fold as (2, 2, 2)
    with pytest.raises(ValidationError, match=r"shape\[\d\] must be an integer >= 1"):
        folding_plan(shape)


def test_folding_plan_takes_numpy_integer_dims():
    plan = folding_plan((np.int64(2), np.uint8(3), 4, 5))
    assert plan.shape == (2, 3, 4, 5) and all(type(n) is int for n in plan.shape)
    assert plan.grouped_shape == (2, 12, 5)


@pytest.mark.parametrize("r", range(1, 41))
def test_assign_matches_scipy_on_random_costs(r):
    rng = np.random.default_rng(r)
    for cost in (rng.standard_normal((r, r)), -rng.uniform(0.0, 1.0, (r, r)), rng.exponential(size=(r, r))):
        np.testing.assert_array_equal(_assign(cost), linear_sum_assignment(cost)[1])


@pytest.mark.parametrize("kind", ["all-equal", "duplicate-rows", "duplicate-columns", "small-integers"])
@pytest.mark.parametrize("r", [1, 2, 5, 12, 30])
def test_assign_optimal_total_with_ties(kind, r):
    rng = np.random.default_rng(r)
    cost = {
        "all-equal": np.full((r, r), 0.5),
        "duplicate-rows": np.repeat(rng.standard_normal((1, r)), r, axis=0),
        "duplicate-columns": np.repeat(rng.standard_normal((r, 2)), (r + 1) // 2, axis=1)[:, :r],
        "small-integers": rng.integers(0, 3, (r, r)).astype(float),
    }[kind]
    col = _assign(cost)
    assert sorted(col.tolist()) == list(range(r))
    rows = np.arange(r)
    assert cost[rows, col].sum() == pytest.approx(cost[rows, linear_sum_assignment(cost)[1]].sum(), abs=1e-12)


@pytest.mark.parametrize("r", [1, 3, 20, 30])
def test_assign_near_permutation(r):
    """The shape both callers pass: a permutation plus small off-diagonal mass."""
    rng = np.random.default_rng(r)
    perm = rng.permutation(r)
    score = np.eye(r)[perm] + 1e-3 * rng.uniform(size=(r, r))
    np.testing.assert_array_equal(_assign(-score), perm)


def test_assign_refuses_non_finite_costs():
    with pytest.raises(ValidationError, match="finite"):
        _assign(np.array([[0.0, np.nan], [1.0, 0.0]]))


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


def test_fold_unfold_round_trip():
    terms = random_terms(np.random.default_rng(3), (3, 2, 4, 3), 2)
    plan, folded = fold_terms(terms)
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
    plan, folded = fold_terms(terms)
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


@pytest.mark.parametrize("noise", [np.nan, np.inf, -np.inf])
def test_decompose_smoothed_refuses_non_finite_noise(noise):
    # NaN fails both ``< 0`` and ``> 0``: it used to run as noiseless, and inf overflowed in numpy
    with pytest.raises(ValidationError, match="noise_scale must be finite and nonnegative"):
        decompose_smoothed(SmoothedEnsemble.random(2, 3, 3, 0.5, rng=0), noise, rng=1)


# Reference per-column loops: the code before decomposition worked on whole
# factor matrices.  The whole-matrix code must reproduce them bit for bit.


def ref_from_raw(factors, weights):
    mats = [np.asarray(f, dtype=float).copy() for f in factors]
    w = np.asarray(weights, dtype=float).copy()
    for m in mats:
        norms = np.linalg.norm(m, axis=0)
        m /= norms
        w *= norms
        for i in range(m.shape[1]):
            nz = np.flatnonzero(m[:, i])
            if m[nz[0], i] < 0:
                m[:, i] = -m[:, i]
                w[i] = -w[i]
    return w, mats


def ref_best_rank1(vec, dims):
    if len(dims) == 1:
        norm = float(np.linalg.norm(vec))
        return [vec / norm], norm
    u_mat, s, vt = np.linalg.svd(vec.reshape(dims[0], -1), full_matrices=False)
    tail, scale = ref_best_rank1(s[0] * vt[0], dims[1:])
    return [u_mat[:, 0]] + tail, scale


def ref_unfold(plan, folded):
    r = folded.r
    new_factors = [np.empty((n, r)) for n in plan.shape]
    new_weights = folded.weights.copy()
    for i in range(r):
        for g_idx, group in enumerate(plan.groups):
            col = folded.factors[g_idx][:, i]
            dims = tuple(plan.shape[j] for j in group)
            if len(dims) == 1:
                new_factors[group[0]][:, i] = col
            else:
                parts, scale = ref_best_rank1(col, dims)
                for j, part in zip(group, parts):
                    new_factors[j][:, i] = part
                new_weights[i] *= scale
    return ref_from_raw(new_factors, new_weights)


def ref_match(truth, est, col):
    r = truth.r
    factor_errors = np.zeros((r, truth.order))
    weight_errors = np.zeros(r)
    for i in range(r):
        j = col[i]
        flip = 1.0
        for mode in range(truth.order):
            tv = truth.factors[mode][:, i]
            ev = est.factors[mode][:, j]
            sign = 1.0 if float(tv @ ev) >= 0 else -1.0
            flip *= sign
            factor_errors[i, mode] = float(np.linalg.norm(tv - sign * ev))
        aligned_weight = est.weights[j] * flip
        denom = max(abs(truth.weights[i]), np.finfo(float).tiny)
        weight_errors[i] = abs(truth.weights[i] - aligned_weight) / denom
    return factor_errors, weight_errors


def ref_realify(vecs, idx):
    out = np.empty((vecs.shape[0], len(idx)))
    for k, i in enumerate(idx):
        v = vecs[:, i]
        pivot = np.argmax(np.abs(v))
        phase = v[pivot] / abs(v[pivot])
        w = np.real(v / phase)
        out[:, k] = w / np.linalg.norm(w)
    return out


def awkward_matrix(rng, n, r, zeros):
    """Columns spread over six decades, with exact zeros (leading ones too) and either sign."""
    m = rng.standard_normal((n, r)) * 10.0 ** rng.uniform(-3, 3, (n, r))
    m[rng.uniform(size=(n, r)) < zeros] = 0.0
    lead_zeros = rng.integers(0, n, r)
    m[np.arange(n)[:, None] < lead_zeros] = 0.0
    m[-1, ~m.any(axis=0)] = -1.0
    return m


@given(st.integers(0, 2**32 - 1), st.integers(3, 7), st.integers(1, 30), st.sampled_from([0.0, 0.3, 0.7]))
@settings(max_examples=60, deadline=None)
def test_from_raw_matches_column_loop(seed, ell, r, zeros):
    rng = np.random.default_rng(seed)
    mats = [awkward_matrix(rng, int(n), r, zeros) for n in rng.integers(1, 6, ell)]
    weights = rng.standard_normal(r)
    want_w, want = ref_from_raw(mats, weights)
    terms = Rank1Terms.from_raw(mats, weights=weights)
    assert np.array_equal(terms.weights, want_w)
    assert all(np.array_equal(a, b) for a, b in zip(terms.factors, want))


def test_awkward_matrix_has_the_awkward_cases():
    m = awkward_matrix(np.random.default_rng(0), 5, 30, 0.3)
    lead = np.array([c[np.flatnonzero(c)[0]] for c in m.T])
    assert (m == 0).any() and (lead < 0).any() and (m[0] == 0).any()


@given(st.integers(0, 2**32 - 1), st.integers(4, 7), st.integers(1, 30), st.sampled_from([0.0, 1e-8, 1e-2]))
@settings(max_examples=60, deadline=None)
def test_unfold_matches_column_loop(seed, ell, r, noise):
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(2, 5, ell))
    plan, folded = fold_terms(random_terms(rng, shape, r))
    # estimates are only nearly simple: perturb the grouped columns
    noisy = [m + noise * rng.standard_normal(m.shape) for m in folded.factors]
    folded = Rank1Terms.from_raw(noisy, weights=folded.weights, residual=0.5)
    want_w, want = ref_unfold(plan, folded)
    got = unfold_terms(plan, folded)
    assert np.array_equal(got.weights, want_w) and got.residual == 0.5
    assert all(np.array_equal(a, b) for a, b in zip(got.factors, want))


@given(st.integers(0, 2**32 - 1), st.integers(3, 7), st.integers(1, 30), st.sampled_from([0.0, 0.3, 0.7]))
@settings(max_examples=60, deadline=None)
def test_match_matches_column_loop(seed, ell, r, zeros):
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(1, 6, ell))
    truth = Rank1Terms.from_raw([awkward_matrix(rng, n, r, zeros) for n in shape], weights=rng.standard_normal(r))
    perm = rng.permutation(r)
    mats = [m[:, perm] * rng.choice([-1.0, 1.0], r) + 0.3 * awkward_matrix(rng, m.shape[0], r, zeros) for m in truth.factors]
    est = Rank1Terms.from_raw(mats, weights=truth.weights[perm] * rng.uniform(0.5, 2.0, r))
    report = match_components(truth, est)
    factor_errors, weight_errors = ref_match(truth, est, report.permutation)
    assert np.array_equal(report.factor_errors, factor_errors)
    assert np.array_equal(report.weight_errors, weight_errors)
    assert report.max_error == max(factor_errors.max(), weight_errors.max())


@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.sampled_from([0.0, 0.3]))
@settings(max_examples=60, deadline=None)
def test_realify_matches_column_loop(seed, n, zeros):
    rng = np.random.default_rng(seed)
    eig = np.linalg.eig(awkward_matrix(rng, n, n, zeros))
    # LAPACK makes each eigenvector's largest entry real; a random phase per column makes it complex
    vecs = eig.eigenvectors * np.exp(2j * np.pi * rng.uniform(size=n))
    idx = rng.permutation(n)[: rng.integers(1, n + 1)]
    assert np.array_equal(_realify_columns(vecs, idx), ref_realify(vecs, idx))


def column_norm_cases():
    rng = np.random.default_rng(11)
    wide = rng.standard_normal((9, 14))
    zeros = wide.copy()
    zeros[:, [0, 5]] = 0.0
    zeros[3, :] = 0.0
    return {
        "one row": rng.standard_normal((1, 7)),
        "one column": rng.standard_normal((40, 1)),
        "Fortran order": np.asfortranarray(wide),
        "strided": rng.standard_normal((20, 33))[::3, ::2],
        "transposed view": rng.standard_normal((12, 25)).T,
        "exact zeros": zeros,
        # squared norms near the top of the float range, some past it (inf on both sides)
        "near overflow": wide * np.array([1e150, 1e154, 1e155, 1.3e154, 1e-300, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
        # squares below the smallest normal, down to the smallest subnormal
        "near underflow": wide * np.array([1e-155, 1e-160, 1e-162, 5e-324, 1e-200, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
        "awkward": awkward_matrix(rng, 30, 20, 0.3),
    }


@pytest.mark.parametrize("case", list(column_norm_cases()))
def test_column_norms_are_norm_per_column_bitwise(case):
    m = column_norm_cases()[case]
    with np.errstate(over="ignore", under="ignore"):
        want = np.array([np.linalg.norm(c) for c in m.T])
        got = _column_norms(m)
    assert got.shape == (m.shape[1],)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sign_check_names_the_first_offending_column():
    ok = np.eye(5)
    mode1 = np.eye(5)[::-1].copy()
    mode1[:, [2, 4]] *= -1.0
    with pytest.raises(ValidationError, match="mode-1 column 2 violates"):
        Rank1Terms(weights=np.ones(5), factors=(ok, mode1))


# 1-d factors were read as one row each, and 3-d ones ended in a raw ValueError
NOT_MATRICES = {
    "vectors": [np.ones(3)] * 2,
    "3-d": [np.ones((3, 2, 2))] * 2,
    "one-vector": [np.eye(3)[:, :1], np.ones(3)],
}


@pytest.mark.parametrize("name", sorted(NOT_MATRICES))
def test_terms_refuse_factors_that_are_not_matrices(name):
    factors = NOT_MATRICES[name]
    with pytest.raises(ValidationError, match="2-d"):
        Rank1Terms.from_raw(factors)
    with pytest.raises(ValidationError, match="2-d"):
        Rank1Terms(weights=np.ones(1), factors=tuple(factors))


def test_from_raw_refuses_a_later_zero_column():
    m = np.ones((3, 4))
    m[:, 2] = 0.0
    with pytest.raises(ValidationError, match="zero"):
        Rank1Terms.from_raw([np.ones((3, 4)), m])
