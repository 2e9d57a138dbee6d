"""Bell basis, Choi states, and the pinching channel."""

import numpy as np
import pytest

from eprverify.channels import PI_MINUS, PI_PLUS, apply_pinch, choi_state
from eprverify.kernel import BELL_STATES, BELL_TO_COMPUTATIONAL, rx_prob
from eprverify.linalg import dagger, is_projector, partial_trace, proj, tensor
from eprverify.metrics import trace_distance
from eprverify.sampling import random_complex_matrix, random_density, random_unitary

from dense_reference import choi_density

RNG = np.random.default_rng(77)

PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)


def test_bell_basis_orthonormal():
    for i, a in enumerate(BELL_STATES):
        for j, b in enumerate(BELL_STATES):
            overlap = np.vdot(a, b)
            assert abs(overlap - (1.0 if i == j else 0.0)) <= 1e-12


def test_bell_states_in_hadamard_basis():
    # phi+ = (|++> + |-->)/sqrt(2) and psi+ = (|++> - |-->)/sqrt(2)
    pp = tensor(PLUS.reshape(2, 1), PLUS.reshape(2, 1)).reshape(-1)
    mm = tensor(MINUS.reshape(2, 1), MINUS.reshape(2, 1)).reshape(-1)
    assert np.allclose(BELL_STATES[0], (pp + mm) / np.sqrt(2), atol=1e-12)
    assert np.allclose(BELL_STATES[2], (pp - mm) / np.sqrt(2), atol=1e-12)


def test_bell_subspaces_partition():
    assert is_projector(PI_PLUS)
    assert is_projector(PI_MINUS)
    assert np.max(np.abs(PI_PLUS @ PI_MINUS)) <= 1e-12
    assert np.allclose(PI_PLUS + PI_MINUS, np.eye(4), atol=1e-12)


def test_choi_state_identity_and_x():
    assert np.allclose(choi_state(np.eye(2)), BELL_STATES[0])
    # 4-dim matrix-vector oracle for X (x) I acting on phi+
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    oracle = np.kron(x, np.eye(2)) @ BELL_STATES[0]
    assert np.allclose(choi_state(x), oracle)
    assert np.allclose(choi_state(x), BELL_STATES[2])


def test_choi_state_of_inverse_rotation_closed_form():
    for q in np.linspace(0, 1, 11):
        got = choi_state(dagger(rx_prob(q)))
        expected = np.sqrt(1 - q) * BELL_STATES[0] + 1j * np.sqrt(q) * BELL_STATES[2]
        assert np.allclose(got, expected, atol=1e-12)


def test_choi_state_rejects_non_unitary():
    with pytest.raises(ValueError):
        choi_state(np.ones((2, 2)))
    with pytest.raises(ValueError):
        choi_state(np.eye(4))


def test_choi_marginals_maximally_mixed():
    for _ in range(20):
        dm = proj(choi_state(random_unitary(RNG, 2)))
        for keep in (0, 1):
            reduced = partial_trace(dm, 2, [keep])
            assert trace_distance(reduced, np.eye(2) / 2) <= 1e-12


def test_decoder_turns_choi_into_rotated_zero():
    # the step that consumes one Choi copy: W J(R(q)†) = (R(q)|0>) (x) |0>
    w = BELL_TO_COMPUTATIONAL
    for q in np.linspace(0, 1, 11):
        decoded = w @ choi_state(dagger(rx_prob(q)))
        expected = np.kron(rx_prob(q) @ np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert np.allclose(decoded, expected, atol=1e-12)


def test_pinch_fixes_plus_subspace_states():
    assert np.allclose(apply_pinch(proj(BELL_STATES[0]), 2, [0, 1]), proj(BELL_STATES[0]), atol=1e-12)
    for q in (0.25, 0.5, 0.9):
        rho = proj(choi_state(dagger(rx_prob(q))))
        assert np.allclose(apply_pinch(rho, 2, [0, 1]), rho, atol=1e-12)


def test_pinch_of_zero_zero():
    # |00><00| loses its phi+/phi- coherence: half phi+ plus half phi-
    zz = np.zeros((4, 4), dtype=complex)
    zz[0, 0] = 1.0
    expected = 0.5 * proj(BELL_STATES[0]) + 0.5 * proj(BELL_STATES[1])
    assert np.allclose(apply_pinch(zz, 2, [0, 1]), expected, atol=1e-12)


def test_pinch_idempotent_trace_preserving():
    for _ in range(50):
        a = random_complex_matrix(RNG, 4)
        once = apply_pinch(a, 2, [0, 1])
        assert np.allclose(apply_pinch(once, 2, [0, 1]), once, atol=1e-12)
        assert np.trace(once) == pytest.approx(np.trace(a), abs=1e-12)
        h = random_density(RNG, 4)
        out = apply_pinch(h, 2, [0, 1])
        assert np.allclose(out, dagger(out), atol=1e-12)
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-12


def test_pinch_choi_matrix_is_density():
    # CP+TP witness: the normalized Choi matrix of the pinch is a density operator
    rho = choi_density(lambda m: apply_pinch(m, 2, [0, 1]), 4)
    assert np.allclose(rho, dagger(rho), atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def test_choi_density_of_unitary_channel_is_pure():
    u = random_unitary(RNG, 2)
    rho = choi_density(lambda m: u @ m @ dagger(u), 2)
    vals = np.linalg.eigvalsh(rho)
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)
    # and it matches the pure Choi state built directly
    assert trace_distance(rho, proj(choi_state(u))) <= 1e-12


def test_apply_pinch_on_embedded_pair():
    # qubits (P, S, S'), the pair (S, S') pinched
    joint = random_density(RNG, 8)
    pinched = apply_pinch(joint, 3, [1, 2])
    # agrees with pinching the reduced pair state
    reduced = partial_trace(pinched, 3, [1, 2])
    direct = apply_pinch(partial_trace(joint, 3, [1, 2]), 2, [0, 1])
    assert trace_distance(reduced, direct) <= 1e-12
    # and is idempotent in place
    again = apply_pinch(pinched, 3, [1, 2])
    assert trace_distance(again, pinched) <= 1e-12


def test_pinch_rejects_wrong_dims():
    with pytest.raises(ValueError):
        apply_pinch(np.eye(8), 2, [0, 1])
