import numpy as np
import pytest

from qlasim import (
    EMPTY_BRANCH_TOL,
    EmptyBranchError,
    PureState,
    RegisterLayout,
    add_ancilla,
    basis_state,
    branch_probability,
    cnot,
    controlled_measure,
    controlled_on_zero_flip,
    encode_rc,
    hadamard_register,
    measure_sampled,
    postselect,
    row_sums,
    stream,
)


def _chi(matrix, stages: int) -> PureState:
    """Pre-measurement pipeline state: H on C, label flip, and optionally the
    flag CNOT (stages=3)."""
    encoded = encode_rc(matrix)
    state = hadamard_register(encoded.state, "C")
    state = controlled_on_zero_flip(add_ancilla(state, "A1"), "C", "A1")
    if stages == 3:
        state = cnot(add_ancilla(state, "A2"), "A1", "A2")
    return state


def test_measure_sampled_deterministic_branch():
    layout = RegisterLayout([("R", 1)])
    res = measure_sampled(basis_state(layout, {"R": 1}), "R", stream(0))
    assert res.outcome == 1
    assert res.branch_weight == 1.0


def test_measure_sampled_born_frequencies():
    layout = RegisterLayout([("R", 1)])
    plus = PureState(layout, np.array([1, 1]) / np.sqrt(2))
    trials = 10_000
    hits = sum(measure_sampled(plus, "R", stream(7, t)).outcome for t in range(trials))
    sigma = np.sqrt(0.25 / trials)
    assert abs(hits / trials - 0.5) <= 3 * sigma


def test_labeled_weight_single_column_matrix():
    # one nonzero column, 8 columns: the labeled component keeps 1/8 of the mass
    column = np.zeros((4, 8))
    column[:, 2] = [0.5, 0.5, -0.5, 0.5]
    chi2 = _chi(column, stages=2)
    assert branch_probability(chi2, "A1", 1) == pytest.approx(1 / 8, abs=1e-12)
    trials = 10_000
    hits = sum(measure_sampled(chi2, "A1", stream(1, t)).outcome for t in range(trials))
    sigma = np.sqrt((1 / 8) * (7 / 8) / trials)
    assert abs(hits / trials - 1 / 8) <= 3 * sigma


def test_postselect_weight_and_state():
    layout = RegisterLayout([("R", 1)])
    plus = PureState(layout, np.array([1, 1]) / np.sqrt(2))
    res = postselect(plus, "R", 1)
    assert res.branch_weight == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(res.post_state.amplitudes, [0, 1], atol=1e-15)


def test_postselect_empty_branch():
    layout = RegisterLayout([("R", 1)])
    with pytest.raises(EmptyBranchError):
        postselect(basis_state(layout, {"R": 0}), "R", 1)


def test_branch_weight_at_empty_tolerance_counts_as_absent():
    # A1=1 weight is exactly EMPTY_BRANCH_TOL: both selections treat it as empty.
    layout = RegisterLayout([("S", 1), ("A1", 1), ("A2", 1)])
    amps = np.zeros(8, dtype=complex)
    amps[3], amps[7] = np.sqrt(1e-14), 8.9e-16
    amps[0] = np.sqrt(1 - 1e-14 - 8.9e-16 ** 2)
    state = PureState(layout, amps)
    assert branch_probability(state, "A1", 1) == EMPTY_BRANCH_TOL == 1e-14
    with pytest.raises(EmptyBranchError):
        postselect(state, "A1", 1)
    res = controlled_measure(state, "A1", "A2")
    assert (res.outcome, res.branch_weight) == (None, 0.0)
    assert res.post_state is state


def test_postselect_flag_recovers_row_sums():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    chi3 = _chi(a, stages=3)
    res = postselect(chi3, "A2", 1)
    sums = row_sums(a / np.linalg.norm(a))
    expected = sums / np.linalg.norm(sums)
    layout = res.post_state.layout
    for i in range(4):
        got = res.post_state.amplitudes[
            layout.index_of({"R": i, "C": 0, "A1": 1, "A2": 1})
        ]
        assert abs(got - expected[i]) < 1e-12


def test_controlled_measure_succeeds_on_tiny_branch():
    # labeled weight 0.01 still extracts deterministically
    layout = RegisterLayout([("S", 1), ("A1", 1), ("A2", 1)])
    amps = np.zeros(8, dtype=complex)
    amps[layout.index_of({"S": 0, "A1": 1, "A2": 1})] = 0.1
    amps[layout.index_of({"S": 1, "A1": 0, "A2": 0})] = np.sqrt(1 - 0.01)
    res = controlled_measure(PureState(layout, amps), "A1", "A2")
    assert res.outcome == 1
    assert res.branch_weight == pytest.approx(0.01, abs=1e-15)
    expected = np.zeros(8)
    expected[layout.index_of({"S": 0, "A1": 1, "A2": 1})] = 1.0
    np.testing.assert_allclose(res.post_state.amplitudes, expected, atol=1e-15)


def test_controlled_measure_leaves_unlabeled_state_unchanged():
    rng = np.random.default_rng(2)
    layout = RegisterLayout([("S", 2), ("A1", 1), ("A2", 1)])
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    amps.reshape(4, 2, 2)[:, 1, :] = 0.0  # no A1=1 component anywhere
    state = PureState(layout, amps / np.linalg.norm(amps))
    res = controlled_measure(state, "A1", "A2")
    assert res.outcome is None
    assert res.branch_weight == 0.0
    assert res.post_state is state  # bit-identical: the very same object


def test_controlled_measure_rejects_same_qubit():
    layout = RegisterLayout([("A1", 1), ("A2", 1)])
    state = basis_state(layout, {"A1": 0, "A2": 0})
    with pytest.raises(ValueError, match="distinct"):
        controlled_measure(state, "A1", "A1")


def test_full_pipeline_matches_row_sum_oracle():
    rng = np.random.default_rng(77)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    chi3 = _chi(a, stages=3)
    res = controlled_measure(chi3, "A1", "A2")
    assert res.outcome == 1
    sums = row_sums(a / np.linalg.norm(a))
    expected = sums / np.linalg.norm(sums)
    layout = res.post_state.layout
    got = np.array([
        res.post_state.amplitudes[layout.index_of({"R": i, "C": 0, "A1": 1, "A2": 1})]
        for i in range(4)
    ])
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_controlled_never_fails_where_sampling_mostly_does():
    # same pre-measurement state: sampling succeeds at rate ~p, deterministic
    # extraction always, and the success post-states coincide
    column = np.zeros((4, 16))
    column[:, 5] = [0.5, -0.5, 0.5, 0.5]
    chi3 = _chi(column, stages=3)
    p = branch_probability(chi3, "A1", 1)
    assert p == pytest.approx(1 / 16, abs=1e-12)

    trials = 10_000
    successes = 0
    sampled_post = None
    for t in range(trials):
        res = measure_sampled(chi3, "A2", stream(3, t))
        if res.outcome == 1:
            successes += 1
            sampled_post = res.post_state
    sigma = np.sqrt(p * (1 - p) / trials)
    assert abs(successes / trials - p) <= 3 * sigma

    controlled = controlled_measure(chi3, "A1", "A2")
    assert controlled.outcome == 1
    np.testing.assert_allclose(
        controlled.post_state.amplitudes, sampled_post.amplitudes, atol=1e-12
    )


def test_branch_weight_matches_row_sum_formula():
    rng = np.random.default_rng(101)
    for n_r in (1, 2, 3):
        a = rng.standard_normal((4, 2 ** n_r)) + 1j * rng.standard_normal((4, 2 ** n_r))
        chi3 = _chi(a, stages=3)
        res = controlled_measure(chi3, "A1", "A2")
        sums = row_sums(a / np.linalg.norm(a))
        expected = float(np.sum(np.abs(sums) ** 2)) / 2 ** n_r
        assert res.branch_weight == pytest.approx(expected, abs=1e-10)


def test_normalization_lost_from_post_state():
    # two states whose labeled branches share a direction but not a weight
    # collapse to the same post-state: the weight survives only in
    # branch_weight, never in the state
    layout = RegisterLayout([("S", 1), ("A1", 1), ("A2", 1)])

    def labeled(weight: float) -> PureState:
        amps = np.zeros(8, dtype=complex)
        amps[layout.index_of({"S": 1, "A1": 1, "A2": 1})] = np.sqrt(weight)
        amps[layout.index_of({"S": 0, "A1": 0, "A2": 0})] = np.sqrt(1 - weight)
        return PureState(layout, amps)

    small = controlled_measure(labeled(0.02), "A1", "A2")
    large = controlled_measure(labeled(0.5), "A1", "A2")
    np.testing.assert_allclose(
        small.post_state.amplitudes, large.post_state.amplitudes, atol=1e-15
    )
    assert small.branch_weight != pytest.approx(large.branch_weight)
