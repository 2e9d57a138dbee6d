"""Gates, outcome reads, and pair symmetrization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eprverify.kernel import (
    BELL_STATES,
    BELL_TO_COMPUTATIONAL,
    HADAMARD,
    pair_reductions,
    rx_prob,
    select_ordered_pair,
    symmetrize_pairs,
)
from eprverify.linalg import apply_local, dagger, is_unitary, partial_trace, proj, tensor
from eprverify.metrics import trace_distance
from eprverify.protocol import ProtocolState, cheating_proof, make_toy_verifier
from eprverify.sampling import random_density, random_pure, random_unitary

from dense_reference import ordered_pair_mean, permute_qubits

RNG = np.random.default_rng(911)


# ---------------------------------------------------------------------------
# Proof construction checks
# ---------------------------------------------------------------------------

def _epr_proof() -> np.ndarray:
    """|1> on P, then two EPR pairs: a valid proof with p_qubits = 1, l = 2."""
    return tensor(np.array([0.0, 1.0], dtype=complex), BELL_STATES[0], BELL_STATES[0])


def test_protocol_state_norm_check():
    with pytest.raises(ValueError, match="norm"):
        ProtocolState(2 * _epr_proof(), 1, 2)
    proof = ProtocolState(_epr_proof(), 1, 2)
    assert proof.state.shape == (32,)


def test_protocol_state_shape_check():
    for bad in (np.eye(16) / 16, np.eye(64) / 64, np.ones((32, 16)), _epr_proof()[:16]):
        with pytest.raises(ValueError, match="shape"):
            ProtocolState(bad, 1, 2)
    with pytest.raises(ValueError, match="shape"):
        ProtocolState(_epr_proof(), 2, 2)
    with pytest.raises(ValueError, match="p_qubits >= 1"):
        ProtocolState(_epr_proof()[:16], 0, 2)
    assert ProtocolState(proj(_epr_proof()), 1, 2).state.shape == (32, 32)


def test_proof_rejects_fewer_than_two_pairs():
    # shapes that fit l = 1 and l = 0, so only the pair count can be refused
    one_pair = tensor(np.array([0.0, 1.0], dtype=complex), BELL_STATES[0])
    for state, l in ((one_pair, 1), (np.array([0.0, 1.0], dtype=complex), 0)):
        with pytest.raises(ValueError, match="at least 2 shared pairs"):
            ProtocolState(state, 1, l)


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

def _zero(n_qubits: int) -> np.ndarray:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return amps


def test_apply_hadamard_makes_plus():
    sv = apply_local(_zero(1), HADAMARD, 1, [0])
    assert np.allclose(sv, [1, 1] / np.sqrt(2))


def test_bell_preparation():
    sv = apply_local(_zero(2), HADAMARD, 2, [0])
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    sv = apply_local(sv, cnot, 2, [0, 1])
    assert np.allclose(sv, BELL_STATES[0])


def test_rotation_on_half_of_epr_closed_form():
    # R(q)† on the first qubit of phi+ gives sqrt(1-q) phi+ + i sqrt(q) psi+
    for q in np.linspace(0, 1, 11):
        got = apply_local(BELL_STATES[0], dagger(rx_prob(q)), 2, [0])
        expected = np.sqrt(1 - q) * BELL_STATES[0] + 1j * np.sqrt(q) * BELL_STATES[2]
        assert np.allclose(got, expected, atol=1e-12)


def test_norm_preserved_through_random_circuits():
    sv = _zero(3)
    for _ in range(60):
        sv = apply_local(sv, random_unitary(RNG, 2), 3, [int(RNG.integers(3))])
        assert abs(np.linalg.norm(sv) - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# Outcome probabilities from the reduced diagonal
# ---------------------------------------------------------------------------

def test_standard_measure_plus_state():
    sv = apply_local(_zero(1), HADAMARD, 1, [0])
    probs = partial_trace(sv, 1, [0]).diagonal().real
    np.testing.assert_allclose(probs, [0.5, 0.5], rtol=0, atol=1e-12)


def test_bell_measure_of_epr():
    # rotating Bell outcome k onto basis state k, as the pair tree does, puts
    # the Bell probabilities on the diagonal: an EPR pair is phi+ for sure
    rotated = apply_local(BELL_STATES[0], BELL_STATES.conj(), 2, [0, 1])
    probs = partial_trace(rotated, 2, [0, 1]).diagonal().real
    np.testing.assert_allclose(probs, [1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Pair symmetrization
# ---------------------------------------------------------------------------

# States on l pairs and no P register (p_qubits = 0): (S1, S1', ..., Sl, Sl').

def test_symmetrize_two_pair_product():
    # l=2 product sigma (x) tau averages to (sigma tau + tau sigma)/2
    sigma = random_density(RNG, 4)
    tau = random_density(RNG, 4)
    out = symmetrize_pairs(tensor(sigma, tau), 0, 2)
    expected = (tensor(sigma, tau) + tensor(tau, sigma)) / 2
    assert trace_distance(out, expected) <= 1e-12


def test_symmetrize_three_pairs_enumeration():
    # sigma sigma tau over 6 ordered pairs: (sigma,sigma) weight 1/3, mixed 2/3
    sigma = random_density(RNG, 4)
    tau = random_density(RNG, 4)
    out = symmetrize_pairs(tensor(sigma, sigma, tau), 0, 3)
    expected = (tensor(sigma, sigma) + tensor(sigma, tau) + tensor(tau, sigma)) / 3
    assert trace_distance(out, expected) <= 1e-12


def test_symmetrize_invariant_input_is_fixed_point():
    sigma = random_density(RNG, 4)
    out = symmetrize_pairs(tensor(sigma, sigma, sigma), 0, 3)
    assert trace_distance(out, tensor(sigma, sigma)) <= 1e-10


def test_symmetrize_exact_output_swap_invariant():
    sv = random_pure(RNG, 16)
    out = symmetrize_pairs(sv, 0, 2)
    # exchanging the two pairs of the input permutes the ordered pairs only
    swapped = symmetrize_pairs(permute_qubits(sv, 4, [2, 3, 0, 1]), 0, 2)
    assert trace_distance(out, swapped) <= 1e-10


@pytest.mark.parametrize("l", [3, 4])
def test_symmetrize_matches_every_ordered_reduction_bit_for_bit(l):
    # local_unitaries proofs are not exchangeable, so the (i, j) and (j, i)
    # reductions differ and the slot exchange must reproduce each one exactly.
    toy = make_toy_verifier(0.3, p_qubits=1, a_qubits=1)
    for seed in (0, 7, -5):
        proof = cheating_proof({"kind": "local_unitaries", "unitary_seed": seed}, toy, l)
        for state in (proof.state, proj(proof.state)):
            got, want = symmetrize_pairs(state, 1, l), ordered_pair_mean(state, 1, l)
            assert got.shape == want.shape == (32, 32)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("l", [3, 4])
def test_pair_reductions_map_every_ordered_pair_once(l):
    toy = make_toy_verifier(0.3, p_qubits=1, a_qubits=1)
    proof = cheating_proof({"kind": "local_unitaries", "unitary_seed": 11}, toy, l)
    expected = [pair for i in range(l) for j in range(i + 1, l) for pair in ((i, j), (j, i))]
    for state in (proof.state, proj(proof.state)):
        got = pair_reductions(state, 1, l)
        assert list(got) == expected
        for (i, j), dm in got.items():
            assert np.array_equal(dm, select_ordered_pair(state, 1, l, i, j))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.permutations(range(n)), st.integers(1, n))),
       st.integers(0, 2**32 - 1))
def test_state_vector_reduction_equals_density_reduction(keep_case, seed):
    order, k = keep_case
    n = len(order)
    sv = random_pure(np.random.default_rng(seed), 2**n)
    keep = list(order[:k])
    from_vector = partial_trace(sv, n, keep)
    from_density = partial_trace(proj(sv), n, keep)
    assert from_vector.shape == from_density.shape == (2**k, 2**k)
    np.testing.assert_allclose(from_vector, from_density, rtol=0, atol=1e-12)
