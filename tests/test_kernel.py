"""States, gates, outcome reads, and pair symmetrization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eprverify.kernel import (
    BELL_STATES,
    BELL_TO_COMPUTATIONAL,
    HADAMARD,
    DensityOperator,
    RegisterLayout,
    StateVector,
    apply_unitary,
    layout,
    partial_trace,
    rx_prob,
    symmetrize_pairs,
)
from eprverify.linalg import dagger, is_unitary, tensor
from eprverify.metrics import trace_distance
from eprverify.protocol import cheating_proof, make_toy_verifier
from eprverify.sampling import random_density, random_pure, random_unitary

from dense_reference import ordered_pair_mean, tensor_product, zero_state

RNG = np.random.default_rng(911)


# ---------------------------------------------------------------------------
# Layouts and state types
# ---------------------------------------------------------------------------

def test_layout_positions_and_errors():
    lay = layout(("P", 2), ("S1", 1), ("S1'", 1))
    assert lay.total_qubits == 4
    assert lay.positions(["S1", "P"]) == [2, 0, 1]
    with pytest.raises(ValueError):
        lay.positions(["nope"])
    with pytest.raises(ValueError):
        layout(("P", 1), ("P", 1))


def test_state_vector_norm_check():
    lay = layout(("R", 1))
    with pytest.raises(ValueError):
        StateVector(lay, np.array([1.0, 1.0]))
    sv = StateVector(lay, np.array([1.0, 1.0]) / np.sqrt(2))
    assert sv.layout.dim == 2


def test_density_operator_shape_check():
    with pytest.raises(ValueError):
        DensityOperator(layout(("R", 1)), np.eye(4) / 4)


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def test_rx_prob_endpoints():
    assert np.allclose(rx_prob(0.0), np.eye(2))
    # substituting q = 1 into the matrix gives -i X
    assert np.allclose(rx_prob(1.0), [[0, -1j], [-1j, 0]])
    with pytest.raises(ValueError):
        rx_prob(1.5)


def test_rx_prob_flip_probability():
    for q in np.linspace(0, 1, 11):
        amp = rx_prob(q) @ np.array([1.0, 0.0])
        assert abs(amp[1]) ** 2 == pytest.approx(q, abs=1e-12)


def test_bell_decoder_maps_bell_basis_with_signs():
    w = BELL_TO_COMPUTATIONAL
    assert is_unitary(w)
    phi_p, phi_m, psi_p, psi_m = BELL_STATES
    assert np.allclose(w @ phi_p, [1, 0, 0, 0])
    assert np.allclose(w @ psi_p, [0, 0, -1, 0])
    assert np.allclose(w @ phi_m, [0, 1, 0, 0])
    assert np.allclose(w @ psi_m, [0, 0, 0, -1])


def test_gate_constants_are_unitary():
    for gate in (HADAMARD, BELL_TO_COMPUTATIONAL, rx_prob(0.25)):
        assert is_unitary(gate)


# ---------------------------------------------------------------------------
# Unitary application
# ---------------------------------------------------------------------------

def test_apply_hadamard_makes_plus():
    sv = apply_unitary(zero_state(layout(("R", 1))), HADAMARD, ["R"])
    assert np.allclose(sv.amplitudes, [1, 1] / np.sqrt(2))


def test_bell_preparation():
    sv = zero_state(layout(("a", 1), ("b", 1)))
    sv = apply_unitary(sv, HADAMARD, ["a"])
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    sv = apply_unitary(sv, cnot, ["a", "b"])
    assert np.allclose(sv.amplitudes, BELL_STATES[0])


def test_rotation_on_half_of_epr_closed_form():
    # R(q)† on the first qubit of phi+ gives sqrt(1-q) phi+ + i sqrt(q) psi+
    lay = layout(("S", 1), ("S'", 1))
    epr = StateVector(lay, BELL_STATES[0].copy())
    for q in np.linspace(0, 1, 11):
        got = apply_unitary(epr, dagger(rx_prob(q)), ["S"])
        expected = np.sqrt(1 - q) * BELL_STATES[0] + 1j * np.sqrt(q) * BELL_STATES[2]
        assert np.allclose(got.amplitudes, expected, atol=1e-12)


def test_apply_unitary_checks():
    sv = zero_state(layout(("a", 1), ("b", 1)))
    with pytest.raises(ValueError):
        apply_unitary(sv, HADAMARD, ["a", "b"])


def test_norm_preserved_through_random_circuits():
    lay = layout(("a", 1), ("b", 1), ("c", 1))
    sv = zero_state(lay)
    for _ in range(60):
        name = str(RNG.choice(["a", "b", "c"]))
        sv = apply_unitary(sv, random_unitary(RNG, 2), [name])
        assert abs(np.linalg.norm(sv.amplitudes) - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# Outcome probabilities from the reduced diagonal
# ---------------------------------------------------------------------------

def test_standard_measure_plus_state():
    sv = apply_unitary(zero_state(layout(("R", 1))), HADAMARD, ["R"])
    probs = partial_trace(sv, ["R"]).matrix.diagonal().real
    np.testing.assert_allclose(probs, [0.5, 0.5], rtol=0, atol=1e-12)


def test_bell_measure_of_epr():
    # rotating Bell outcome k onto basis state k, as the pair tree does, puts
    # the Bell probabilities on the diagonal: an EPR pair is phi+ for sure
    sv = StateVector(layout(("a", 1), ("b", 1)), BELL_STATES[0].copy())
    rotated = apply_unitary(sv, BELL_STATES.conj(), ["a", "b"])
    probs = partial_trace(rotated, ["a", "b"]).matrix.diagonal().real
    np.testing.assert_allclose(probs, [1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Pair symmetrization
# ---------------------------------------------------------------------------

def _pair_layout(l: int) -> RegisterLayout:
    regs = []
    for i in range(1, l + 1):
        regs += [(f"S{i}", 1), (f"S{i}'", 1)]
    return RegisterLayout(tuple(regs))


def _pairs(l: int):
    return [(f"S{i}", f"S{i}'") for i in range(1, l + 1)]


def test_symmetrize_two_pair_product():
    # l=2 product sigma (x) tau averages to (sigma tau + tau sigma)/2
    sigma = random_density(RNG, 4)
    tau = random_density(RNG, 4)
    dm = DensityOperator(_pair_layout(2), tensor(sigma, tau))
    out = symmetrize_pairs(dm, _pairs(2))
    expected = (tensor(sigma, tau) + tensor(tau, sigma)) / 2
    assert trace_distance(out.matrix, expected) <= 1e-12


def test_symmetrize_three_pairs_enumeration():
    # sigma sigma tau over 6 ordered pairs: (sigma,sigma) weight 1/3, mixed 2/3
    sigma = random_density(RNG, 4)
    tau = random_density(RNG, 4)
    dm = DensityOperator(_pair_layout(3), tensor(sigma, sigma, tau))
    out = symmetrize_pairs(dm, _pairs(3))
    expected = (tensor(sigma, sigma) + tensor(sigma, tau) + tensor(tau, sigma)) / 3
    assert trace_distance(out.matrix, expected) <= 1e-12


def test_symmetrize_invariant_input_is_fixed_point():
    sigma = random_density(RNG, 4)
    dm = DensityOperator(_pair_layout(3), tensor(sigma, sigma, sigma))
    out = symmetrize_pairs(dm, _pairs(3))
    assert trace_distance(out.matrix, tensor(sigma, sigma)) <= 1e-10


def test_symmetrize_exact_output_swap_invariant():
    sv = StateVector(_pair_layout(2), random_pure(RNG, 16))
    out = symmetrize_pairs(sv, _pairs(2))
    swapped = partial_trace(
        symmetrize_pairs(sv, [_pairs(2)[1], _pairs(2)[0]]), ["S1", "S1'", "S2", "S2'"]
    )
    # swapping the retained slots permutes names only; content must agree
    assert trace_distance(out.matrix, swapped.matrix) <= 1e-10


@pytest.mark.parametrize("l", [3, 4])
def test_symmetrize_matches_every_ordered_reduction_bit_for_bit(l):
    # local_unitaries proofs are not exchangeable, so the (i, j) and (j, i)
    # reductions differ and the slot exchange must reproduce each one exactly.
    toy = make_toy_verifier(0.3, p_qubits=1, a_qubits=1)
    for seed in (0, 7, -5):
        proof = cheating_proof({"kind": "local_unitaries", "unitary_seed": seed}, toy, l)
        for state in (proof.state, proof.state.density()):
            got, want = symmetrize_pairs(state, proof.pairs), ordered_pair_mean(state, proof.pairs)
            assert got.layout == want.layout
            assert np.array_equal(got.matrix, want.matrix)


def test_symmetrize_rejects_fewer_than_two_pairs():
    sv = StateVector(_pair_layout(2), random_pure(RNG, 16))
    with pytest.raises(ValueError):
        symmetrize_pairs(sv, [_pairs(2)[0]])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.permutations(range(n)), st.integers(1, n))),
       st.integers(0, 2**32 - 1))
def test_state_vector_reduction_equals_density_reduction(keep_case, seed):
    order, k = keep_case
    lay = RegisterLayout(tuple((f"q{i}", 1) for i in range(len(order))))
    sv = StateVector(lay, random_pure(np.random.default_rng(seed), lay.dim))
    keep = [f"q{i}" for i in order[:k]]
    from_vector = partial_trace(sv, keep)
    from_density = partial_trace(sv.density(), keep)
    assert from_vector.layout == from_density.layout
    np.testing.assert_allclose(from_vector.matrix, from_density.matrix, rtol=0, atol=1e-12)


def test_tensor_product_name_clash():
    a = zero_state(layout(("R", 1)))
    with pytest.raises(ValueError):
        tensor_product(a, a)

