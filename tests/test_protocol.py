"""Toy verifiers, prover strategies, post-selection, rewinding, and the verifier."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eprverify.channels import apply_pinch, choi_state
from eprverify.kernel import (
    BELL_LABELS,
    BELL_STATES,
    BELL_TO_COMPUTATIONAL,
    rx_prob,
    select_ordered_pair,
    symmetrize_pairs,
)
from eprverify.linalg import (
    apply_local,
    dagger,
    is_unitary,
    operator_norm,
    partial_trace,
    proj,
    tensor,
)
from eprverify.metrics import trace_distance
from eprverify import kernel, protocol
from eprverify import rng as rngmod
from eprverify.protocol import (
    BRANCH_KEYS,
    HONEST_STRATEGY,
    PROB_FLOOR,
    REJECT_KEYS,
    HalfEigenpairError,
    ProtocolRun,
    ProtocolState,
    check_strategy,
    cheating_proof,
    honest_rewinding_instance,
    make_toy_verifier,
    rewinding_residual,
    swap_test,
    swap_test_formula,
    teleport,
    tree_stack,
    verifier_marginal_distance,
    _pair_tree,
)
from eprverify.rng import stream
from eprverify.sampling import random_complex_matrix, random_density, random_pure, random_unitary

from dense_reference import (
    FixedDraws,
    bell_branch,
    edge_uniforms,
    per_case_swap_test,
    pinch_pair,
    pure_fidelity,
    reference_pair_tree,
    sample_tuples,
    scalar_sample,
)
from monolithic_oracle import verifier_branch_masses

RNG = np.random.default_rng(424242)


# ---------------------------------------------------------------------------
# Toy verifiers and the acceptance operator
# ---------------------------------------------------------------------------

def _acceptance_operator(toy) -> np.ndarray:
    """(I (x) <0|) V† Pi_acc V (I (x) |0>) on P, from the toy's V and Pi_acc."""
    v_from_zero = toy.v[:, ::2**toy.a_qubits]
    return dagger(v_from_zero) @ toy.acc_projector @ v_from_zero


def test_toy_verifier_unitary_and_spectrum():
    for p in (1e-3, 0.5, 0.75, 1.0):
        toy = make_toy_verifier(p)
        assert is_unitary(toy.v)
        vals, vecs = np.linalg.eigh(_acceptance_operator(toy))
        assert vals[-1] == pytest.approx(p, abs=1e-12)
        assert abs(np.vdot(vecs[:, -1], toy.witness)) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True), st.integers(1, 3), st.integers(1, 3))
def test_toy_closed_form_is_the_top_eigenpair(p, p_qubits, a_qubits):
    # make_toy_verifier sets (max_accept, witness) in closed form; eigh on the
    # acceptance operator built from V and Pi_acc is the cross-check.
    with mock.patch.object(np.linalg, "eigh", side_effect=AssertionError("eigh")), \
            mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError("eigvalsh")):
        toy = make_toy_verifier(p, p_qubits, a_qubits)
    m = _acceptance_operator(toy)
    vals, vecs = np.linalg.eigh(m)
    assert toy.max_accept == pytest.approx(vals[-1], abs=1e-15)
    assert toy.max_accept == pytest.approx(p, abs=1e-15)
    assert np.linalg.norm(toy.witness) == 1.0
    assert abs(np.vdot(vecs[:, -1], toy.witness)) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(m @ toy.witness - toy.max_accept * toy.witness)) <= 1e-15


def test_toy_verifier_p_one_accepts_witness_surely():
    toy = make_toy_verifier(1.0)
    assert np.allclose(_acceptance_operator(toy), proj(np.array([0.0, 1.0])), atol=1e-12)


def test_toy_verifier_rejects_bad_p():
    with pytest.raises(ValueError):
        make_toy_verifier(0.0)
    with pytest.raises(ValueError):
        make_toy_verifier(1.2)


def test_accept_operator_norm_and_interval():
    for _ in range(10):
        p = float(RNG.uniform(0.05, 1.0))
        pq = int(RNG.integers(1, 3))
        aq = int(RNG.integers(1, 3))
        m = _acceptance_operator(make_toy_verifier(p, pq, aq))
        assert operator_norm(m) == pytest.approx(p, abs=1e-9)
        vals = np.linalg.eigvalsh(m)
        assert np.min(vals) >= -1e-12 and np.max(vals) <= 1 + 1e-12


# ---------------------------------------------------------------------------
# Proof construction
# ---------------------------------------------------------------------------

def test_honest_proof_pair_closed_forms():
    # p = 1/2 gives q = 1 and the pair i|psi+>; p = 1 gives q = 1/2.
    # At the q = 1 endpoint the ~1e-16 rounding of sin^2(theta) enters the
    # amplitudes as sqrt(1-q), so the comparison tolerance sits at sqrt(eps).
    toy = make_toy_verifier(0.5)
    proof = cheating_proof(HONEST_STRATEGY, toy, l=2)
    pair = partial_trace(proj(proof.state), 5, [1, 2])
    assert trace_distance(pair, proj(1j * BELL_STATES[2])) <= 1e-7
    toy = make_toy_verifier(1.0)
    proof = cheating_proof(HONEST_STRATEGY, toy, l=2)
    pair = partial_trace(proj(proof.state), 5, [1, 2])
    expected = (BELL_STATES[0] + 1j * BELL_STATES[2]) / np.sqrt(2)
    assert trace_distance(pair, proj(expected)) <= 1e-9


def test_proof_marginal_is_maximally_mixed():
    toy = make_toy_verifier(0.75)
    for l in (2, 3):
        proof = cheating_proof(HONEST_STRATEGY, toy, l)
        assert verifier_marginal_distance(proof) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_marginal_distance_matches_trace_distance(l, p_qubits, seed):
    rng = np.random.default_rng(seed)
    toy = make_toy_verifier(0.3, p_qubits=p_qubits)
    strategy = {"kind": "local_unitaries", "unitary_seed": int(rng.integers(2**62))}
    # A valid proof (distance about 0) and a random state on its layout (distance
    # far from 0), which ProtocolState would reject, so it is passed in a stand-in.
    proof = cheating_proof(strategy, toy, l)
    n = p_qubits + 2 * l
    stand_in = mock.Mock(state=random_pure(rng, 2**n), p_qubits=p_qubits, l=l)
    primed = [p_qubits + 2 * i - 1 for i in range(1, l + 1)]
    for candidate in (proof, stand_in):
        marg = partial_trace(candidate.state, n, primed)
        expected = trace_distance(marg, np.eye(2**l) / 2**l)
        assert abs(verifier_marginal_distance(candidate) - expected) <= 1e-12


def test_marginal_distance_rejects_a_non_hermitian_marginal():
    skew = random_complex_matrix(RNG, 32)
    rho = np.eye(32) / 32 + 1e-6 * (skew - dagger(skew))
    with pytest.raises(ValueError, match="marginal is not Hermitian"):
        verifier_marginal_distance(mock.Mock(state=rho, p_qubits=1, l=2))
    with pytest.raises(ValueError, match="not Hermitian with unit trace"):
        ProtocolState(rho, 1, 2)


def test_matrix_proof_must_be_a_density_on_each_pair_reduction():
    # rho + 1.5 (X_P rho X_P - rho) keeps rho's trace and its (S1', S2')
    # marginal, but its pair reduction has eigenvalue -1/2.
    rho = proj(cheating_proof({"kind": "choi_product", "q": 1.0}, make_toy_verifier(0.9), l=2).state)
    flipped = apply_local(rho, np.array([[0, 1], [1, 0]]), 5, [0])
    with pytest.raises(ValueError, match=r"pair reduction .* eigenvalue -5\.000e-01 below -1e-09"):
        ProtocolState(rho + 1.5 * (flipped - rho), 1, 2)
    with pytest.raises(ValueError, match="unit trace"):
        ProtocolState(2 * rho, 1, 2)
    assert ProtocolState(rho, 1, 2).state is not None
    # At l = 3 every unordered pair is checked: Z on S3 puts off only the
    # reductions that hold pair 3, not that of pairs 1 and 2.
    good = cheating_proof({"kind": "idle_epr"}, make_toy_verifier(0.9), l=3).state
    rho = proj(good)
    flipped = apply_local(rho, np.array([[1, 0], [0, -1]]), 7, [5])
    with pytest.raises(ValueError, match="pair reduction"):
        ProtocolState(rho + 1.5 * (flipped - rho), 1, 3)


def test_strategies_build_and_validate():
    toy = make_toy_verifier(1e-3)
    for strat in (
        {"kind": "honest"},
        {"kind": "idle_epr"},
        {"kind": "choi_product", "q": 0.6},
        {"kind": "local_unitaries", "unitary_seed": 31},
    ):
        proof = cheating_proof(strat, toy, l=2)
        assert verifier_marginal_distance(proof) <= 1e-9


def test_idle_epr_pairs_are_epr():
    toy = make_toy_verifier(1e-3)
    proof = cheating_proof({"kind": "idle_epr"}, toy, l=2)
    pair = partial_trace(proj(proof.state), 5, [3, 4])
    assert trace_distance(pair, proj(BELL_STATES[0])) <= 1e-12


def test_custom_state_marginal_rejection():
    # prover halves entangled correctly but one verifier half forced to |0>
    bad = tensor(
        np.array([0.0, 1.0], dtype=complex),  # P
        np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),  # pair 1 = |00>
        BELL_STATES[0],
    )
    with pytest.raises(ValueError, match="marginal"):
        ProtocolState(bad, 1, 2)
    with pytest.raises(ValueError, match="marginal"):
        ProtocolState(proj(bad), 1, 2)


def test_nan_amplitude_fails_the_norm_check():
    state = cheating_proof({"kind": "idle_epr"}, make_toy_verifier(0.75), l=2).state.copy()
    state[3] = np.nan
    with pytest.raises(ValueError, match="state norm nan deviates from 1"):
        ProtocolState(state, 1, 2)


@pytest.mark.parametrize(
    "strategy",
    [
        ["kind", "idle_epr"],
        {"q": 0.5},
        {"kind": "custom"},
        {"kind": ["idle_epr"]},
        {"kind": "choi_product"},
        {"kind": "choi_product", "q": 1.5},
        {"kind": "choi_product", "q": float("nan")},
        {"kind": "choi_product", "q": "0.5"},
        {"kind": "choi_product", "q": True},
        {"kind": "local_unitaries", "unitary_seed": 1.0},
        {"kind": "local_unitaries", "unitary_seed": False},
        {"kind": "idle_epr", "q": 5},
        {"kind": "honest", "junk": 1},
        {"kind": "local_unitaries", "unitary_seed": 3, "q": 0.5},
    ],
)
def test_strategy_check_rejects(strategy):
    with pytest.raises(ValueError, match="strategy"):
        check_strategy(strategy)
    with pytest.raises(ValueError, match="strategy"):
        cheating_proof(strategy, make_toy_verifier(0.75), l=2)


def test_marginal_check_runs_once_per_proof(monkeypatch):
    calls = []
    original = protocol.verifier_marginal_distance

    def counted(proof):
        calls.append(proof.l)
        return original(proof)

    monkeypatch.setattr(protocol, "verifier_marginal_distance", counted)
    toy = make_toy_verifier(0.75)
    for strategy in (
        {"kind": "honest"},
        {"kind": "idle_epr"},
        {"kind": "choi_product", "q": 0.6},
        {"kind": "local_unitaries", "unitary_seed": 31},
    ):
        calls.clear()
        cheating_proof(strategy, toy, l=3)
        assert calls == [3], strategy


# ---------------------------------------------------------------------------
# SWAP test
# ---------------------------------------------------------------------------

def test_swap_test_identical_pure_accepts_surely():
    psi = random_pure(RNG, 2)
    assert swap_test(tensor(proj(psi), proj(psi))) == pytest.approx(1.0, abs=1e-12)


def test_swap_test_orthogonal_pure_half():
    state = tensor(proj(np.array([1.0, 0.0])), proj(np.array([0.0, 1.0])))
    assert swap_test(state) == pytest.approx(0.5, abs=1e-12)


def test_swap_test_maximally_mixed_three_quarters():
    assert swap_test(tensor(np.eye(2) / 2, np.eye(2) / 2)) == pytest.approx(0.75, abs=1e-12)


def test_swap_test_circuit_matches_product_formula():
    for _ in range(50):
        k = int(RNG.integers(1, 3))
        rho, sigma = random_density(RNG, 2**k), random_density(RNG, 2**k)
        state = tensor(rho, sigma)
        circuit = swap_test(state)
        assert circuit == pytest.approx((1 + np.trace(rho @ sigma).real) / 2, abs=1e-12)
        assert circuit == pytest.approx(swap_test_formula(state), abs=1e-12)


def test_swap_test_on_correlated_joint_state():
    # formula route (1 + Tr(rho S))/2 must match the circuit beyond product inputs
    for _ in range(20):
        dm = random_density(RNG, 4)
        assert swap_test(dm) == pytest.approx(swap_test_formula(dm), abs=1e-12)


def test_swap_test_with_spectator_and_groups_out_of_layout_order():
    # The formula takes each group against qubit order or before the other,
    # with spectators in no group; the circuit gets the reduced state of the
    # two groups, in the order listed.  Qubits: A 0, X 1, B 2-3, C 4, D 5.
    for _ in range(10):
        for state in (random_pure(RNG, 64), random_density(RNG, 64)):
            for reg1, reg2 in (([5, 0], [2, 3]), ([4], [0])):
                joint = partial_trace(state, 6, reg1 + reg2)
                assert swap_test(joint) == pytest.approx(swap_test_formula(joint), abs=1e-12)


@pytest.mark.parametrize("k, shape", [(1, (7,)), (2, (3,)), (2, (2, 3)), (3, (1,))])
def test_swap_test_on_a_stack_is_bit_exact_with_each_joint_alone(k, shape):
    joints = np.array([random_density(RNG, 4**k) for _ in range(int(np.prod(shape)))])
    stacked = swap_test(joints.reshape(shape + joints.shape[1:]))
    assert stacked.shape == shape
    # One joint is a stack of no axes: a 0-d array.
    alone = [swap_test(joint) for joint in joints]
    assert all(x.shape == () for x in alone)
    assert stacked.reshape(-1).tolist() == [x.item() for x in alone] == [per_case_swap_test(j) for j in joints]
    # The closed form, too, is one einsum for a joint and a stack alike.
    stacked = swap_test_formula(joints.reshape(shape + joints.shape[1:]))
    alone = [swap_test_formula(joint) for joint in joints]
    assert all(x.shape == () for x in alone)
    assert stacked.shape == shape and stacked.reshape(-1).tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize("joint", [np.eye(1), np.eye(2), np.eye(8), np.ones((4, 8)), np.ones(16),
                                   np.ones((3, 2, 2)), np.ones((2, 8, 8))])
def test_swap_test_rejects_joints_not_4k_square(joint):
    with pytest.raises(ValueError, match=rf"got shape \({joint.shape[0]},"):
        swap_test(joint)


# ---------------------------------------------------------------------------
# Post-selection: the teleportation read
# ---------------------------------------------------------------------------

KEPT = (BELL_LABELS.index("phi+"), BELL_LABELS.index("psi+"))


def _teleport_input(q: float, phi: np.ndarray) -> np.ndarray:
    """Amplitudes on (S2, S2', S1): the rotated pair, then phi."""
    return tensor(choi_state(dagger(rx_prob(q))), phi)


def _teleport(t: np.ndarray) -> list[np.ndarray]:
    """The Bell measurement of (S2', S1) of a state on (S2, S2', S1), read on S2."""
    return teleport(t, 3, 1, 2, [0])


def _kept_mass(t: np.ndarray) -> float:
    blocks = _teleport(t)
    return float(sum(np.trace(blocks[k]).real for k in KEPT))


def test_post_selection_choi_pair_lemma():
    # success probability exactly 1/2 and output R(q)†|phi> on S2
    for _ in range(20):
        q = float(RNG.uniform(0, 1))
        phi = random_pure(RNG, 2)
        blocks = _teleport(_teleport_input(q, phi))
        assert sum(np.trace(blocks[k]).real for k in KEPT) == pytest.approx(0.5, abs=1e-12)
        expected = dagger(rx_prob(q)) @ phi
        for k in KEPT:
            out = blocks[k] / np.trace(blocks[k]).real
            assert pure_fidelity(expected, out) >= 1 - 1e-10


def test_post_selection_identity_pair_teleports_exactly():
    phi = random_pure(RNG, 2)
    blocks = _teleport(_teleport_input(0.0, phi))
    for k in KEPT:
        out = blocks[k] / np.trace(blocks[k]).real
        assert trace_distance(out, proj(phi)) <= 1e-12


def test_post_selection_phi_minus_pair_brute_force():
    # each outcome's state of S2 against a brute-force projection of (S2', S1)
    # on the Bell vector, on four inputs over (S2, S2', S1): pair phi- with |0>
    # on S1 (every outcome 1/4); (S2', S1) an EPR pair up to a 1e-10 psi-
    # amplitude (phi+ all but certain, psi- at 1e-20); a random pure and a
    # random mixed state
    rng = np.random.default_rng(255)
    zero = np.array([1.0, 0.0], dtype=complex)
    near_epr = BELL_STATES[0] + 1e-10 * BELL_STATES[3]
    inputs = [
        tensor(BELL_STATES[1], zero),
        tensor(zero, near_epr / np.linalg.norm(near_epr)),
        random_pure(rng, 8),
        random_density(rng, 8),
    ]
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    for n, state in enumerate(inputs):
        rho = proj(state) if state.ndim == 1 else state
        blocks = _teleport(state)
        assert len(blocks) == len(BELL_LABELS)
        for label, block, bell in zip(BELL_LABELS, blocks, BELL_STATES):
            out = bell_branch(rho, 3, [1, 2], [0], bell)
            if label == "psi+":
                out = x @ out @ x
            prob = float(np.trace(out).real)
            if n == 0:
                assert prob == pytest.approx(0.25, abs=1e-12)
            assert np.trace(block).real == pytest.approx(prob, abs=1e-12)
            if prob >= PROB_FLOOR:
                assert trace_distance(block / np.trace(block).real, out / prob) <= 1e-12
        # the outcomes together, the correction undone, leave S2's reduced state
        undone = [x @ b @ x if label == "psi+" else b for label, b in zip(BELL_LABELS, blocks)]
        assert trace_distance(sum(undone), partial_trace(state, 3, [0])) <= 1e-12


def test_postsel_success_prob_choi_pair_times_anything():
    for _ in range(10):
        q = float(RNG.uniform(0, 1))
        zeta = random_density(RNG, 2)
        pair = choi_state(dagger(rx_prob(q)))
        assert _kept_mass(tensor(proj(pair), zeta)) == pytest.approx(0.5, abs=1e-12)


def test_postsel_success_prob_hadamard_basis_form():
    # product sigma (x) psi succeeds with |a|^2 <+|sigma|+> + |b|^2 <-|sigma|->
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)
    for _ in range(20):
        sigma = random_density(RNG, 2)
        a, b = random_pure(RNG, 2)
        psi = a * plus + b * minus
        state = tensor(random_density(RNG, 2), sigma, proj(psi / np.linalg.norm(psi)))
        got = _kept_mass(state)
        plus_w = np.real(np.vdot(plus, sigma @ plus))
        minus_w = np.real(np.vdot(minus, sigma @ minus))
        expected = abs(a) ** 2 * plus_w + abs(b) ** 2 * minus_w
        assert got == pytest.approx(expected, abs=1e-12)


def test_postsel_success_prob_balanced_sigma_gives_half():
    # <+|sigma|+> = <-|sigma|-> = 1/2 forces probability 1/2 for any zeta
    sigma = proj(np.array([1.0, 0.0]))  # |0><0| is Hadamard-balanced
    for _ in range(5):
        zeta = random_density(RNG, 2)
        state = tensor(random_density(RNG, 2), sigma, zeta)
        assert _kept_mass(state) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# Rewinding identity
# ---------------------------------------------------------------------------

def test_rewinding_residual_honest_grid():
    for p in np.linspace(0.5, 1.0, 11):
        toy = make_toy_verifier(float(p))
        delta, pi, omega = honest_rewinding_instance(toy)
        assert rewinding_residual(delta, pi, omega) <= 1e-8
        assert np.linalg.eigvalsh(delta @ pi @ delta)[-1] == pytest.approx(0.5, abs=1e-9)


def test_rewinding_two_dim_algebra():
    # delta = |e0><e0| against pi tilted 45 degrees: delta pi delta = (1/2)|e0><e0|
    theta = np.pi / 4
    pi = proj(np.array([np.cos(theta), np.sin(theta)], dtype=complex))
    delta = proj(np.array([1.0, 0.0]))
    omega = np.array([1.0, 0.0], dtype=complex)
    assert rewinding_residual(delta, pi, omega) <= 1e-12


def jordan_half_instance(rng, dim):
    """Random pair of projectors with a planted 45-degree principal angle."""
    assert dim % 2 == 0
    angles = [np.pi / 4] + [float(rng.uniform(0.1, np.pi / 2 - 0.1)) for _ in range(dim // 2 - 1)]
    delta_dirs = []
    pi_dirs = []
    for k, angle in enumerate(angles):
        e_a = np.zeros(dim, dtype=complex)
        e_b = np.zeros(dim, dtype=complex)
        e_a[2 * k] = 1.0
        e_b[2 * k + 1] = 1.0
        delta_dirs.append(e_a)
        pi_dirs.append(np.cos(angle) * e_a + np.sin(angle) * e_b)
    u = random_unitary(rng, dim)
    delta = sum(proj(u @ d) for d in delta_dirs)
    pi = sum(proj(u @ d) for d in pi_dirs)
    omega = u @ delta_dirs[0]
    return delta, pi, omega


def test_rewinding_synthetic_jordan_instances():
    for _ in range(30):
        dim = int(RNG.integers(1, 9)) * 2
        delta, pi, omega = jordan_half_instance(RNG, dim)
        assert rewinding_residual(delta, pi, omega) <= 1e-8


def test_rewinding_precondition_errors():
    delta = proj(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        rewinding_residual(np.eye(2) * 0.5, delta, np.array([1.0, 0.0]))
    with pytest.raises(HalfEigenpairError):
        rewinding_residual(np.eye(2), np.eye(2), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# The verifier
# ---------------------------------------------------------------------------

def test_completeness_spot_checks():
    for p in (0.5, 0.75, 1.0):
        toy = make_toy_verifier(p)
        result = ProtocolRun(cheating_proof(HONEST_STRATEGY, toy, l=2), toy).exact()
        assert result.accept_probability == pytest.approx(1.0, abs=1e-9)
        assert result.branches["b0_allzero_reject"] <= 1e-12


def test_branch_masses_sum_to_one():
    toy = make_toy_verifier(1e-3)
    for strat in ({"kind": "idle_epr"}, {"kind": "local_unitaries", "unitary_seed": 3}):
        result = ProtocolRun(cheating_proof(strat, toy, l=2), toy).exact()
        assert sum(result.branches.values()) == pytest.approx(1.0, abs=1e-9)


def test_idle_epr_exact_accept_is_three_quarters():
    # postselection teleports |0> through an untouched pair; the all-zero
    # measurement then fires with certainty, so accept = 1/2 + 1/4 exactly
    toy = make_toy_verifier(1e-3)
    result = ProtocolRun(cheating_proof({"kind": "idle_epr"}, toy, l=2), toy).exact()
    assert result.accept_probability == pytest.approx(0.75, abs=1e-12)
    assert result.branches["b0_allzero_reject"] == pytest.approx(0.25, abs=1e-12)


def test_choi_product_matches_hand_closed_form():
    # one-control-qubit algebra gives accept = 3/4 + (1 - (1 - 2 p q')^2)/4
    p = 1e-3
    toy = make_toy_verifier(p)
    for qp in (0.0, 0.3, 0.8, 1.0):
        proof = cheating_proof({"kind": "choi_product", "q": qp}, toy, l=2)
        result = ProtocolRun(proof, toy).exact()
        expected = 0.75 + (1 - (1 - 2 * p * qp) ** 2) / 4
        assert result.accept_probability == pytest.approx(expected, abs=1e-12)


def test_asymmetric_custom_state_swap_branch_formula():
    # pair 1 != pair 2 as a product: conditional b=1 reject = (1 - Tr(rho1 rho2))/2
    # with rho1, rho2 the pinched pair states
    toy = make_toy_verifier(1e-3)
    u1, u2 = random_unitary(RNG, 2), random_unitary(RNG, 2)
    witness = np.array([0.0, 1.0], dtype=complex)
    amps = tensor(witness, choi_state(u1), choi_state(u2))
    proof = ProtocolState(amps, 1, 2)
    result = ProtocolRun(proof, toy).exact()
    rho1 = apply_pinch(proj(choi_state(u1)), 2, [0, 1])
    rho2 = apply_pinch(proj(choi_state(u2)), 2, [0, 1])
    expected = (1 - np.trace(rho1 @ rho2).real) / 2
    conditional_reject = result.branches["b1_swap_reject"] * 2
    assert conditional_reject == pytest.approx(expected, abs=1e-9)


def test_step_one_two_fixed_point_for_honest_proof():
    toy = make_toy_verifier(0.75)
    # symmetrizing and pinching leave the two-pair restriction of an honest
    # proof (exchangeable, pairs in the kept Bell subspaces) untouched
    for l in (2, 3):
        proof = cheating_proof(HONEST_STRATEGY, toy, l)
        sym = symmetrize_pairs(proof.state, 1, l)
        # qubits (P, S1, S1', S2, S2')
        pinched = apply_pinch(apply_pinch(sym, 5, [1, 2]), 5, [3, 4])
        reference = partial_trace(proof.state, 1 + 2 * l, [0, 1, 2, 3, 4])
        assert trace_distance(pinched, reference) <= 1e-10


def test_sampled_runs_deterministic_and_consistent():
    toy = make_toy_verifier(1e-3)
    proof = cheating_proof({"kind": "idle_epr"}, toy, l=2)
    run = ProtocolRun(proof, toy)
    a = sample_tuples(run, 9, 500)
    b = sample_tuples(run, 9, 500)
    assert a == b
    freq = sum(key not in REJECT_KEYS for key, _ in a) / len(a)
    assert abs(freq - 0.75) <= 5 * np.sqrt(0.75 * 0.25 / 500)


def test_run_outcome_fields_consistent():
    # an honest proof is accepted surely, so every sampled key is an accept key
    toy = make_toy_verifier(0.5)
    proof = cheating_proof(HONEST_STRATEGY, toy, l=3)
    run = ProtocolRun(proof, toy)
    seen = set()
    for key, pair in sample_tuples(run, 11, 200):
        seen.add(key)
        assert pair[0] != pair[1]
        assert 1 <= pair[0] <= 3 and 1 <= pair[1] <= 3
    assert seen <= set(BRANCH_KEYS) - set(REJECT_KEYS)
    assert {"b0_postsel_fail", "b0_measured_accept", "b1_swap_accept"} <= seen


def _scalar_samples(run, seed, trials):
    trees = {}
    return [scalar_sample(run, stream(seed, t), trees) for t in range(trials)]


_STRATEGIES = st.one_of(
    st.just({"kind": "honest"}),
    st.just({"kind": "idle_epr"}),
    st.builds(lambda q: {"kind": "choi_product", "q": q}, st.floats(0.0, 1.0)),
    st.builds(lambda s: {"kind": "local_unitaries", "unitary_seed": s}, st.integers(-(2**63), 2**63 - 1)),
)


@settings(max_examples=30, deadline=None)
@given(
    l=st.integers(2, 6),
    a_qubits=st.integers(1, 2),
    p=st.floats(0.05, 1.0),
    strategy=_STRATEGIES,
    seed=st.integers(-(2**63), 2**63 - 1),
    chunk=st.integers(1, 9),
    trials=st.integers(1, 30),
)
def test_bulk_sample_matches_scalar_reference(l, a_qubits, p, strategy, seed, chunk, trials):
    assume(strategy["kind"] != "honest" or p >= 0.5)
    toy = make_toy_verifier(p, a_qubits=a_qubits)
    run = ProtocolRun(cheating_proof(strategy, toy, l), toy)
    # a small chunk puts chunk boundaries inside the run
    with mock.patch.object(rngmod, "CHUNK_TRIALS", chunk):
        bulk = sample_tuples(run, seed, trials)
    assert bulk == _scalar_samples(run, seed, trials)


def test_bulk_sample_matches_scalar_reference_past_a_full_chunk():
    toy = make_toy_verifier(0.3)
    run = ProtocolRun(cheating_proof({"kind": "choi_product", "q": 0.4}, toy, l=3), toy)
    trials = rngmod.CHUNK_TRIALS + 5
    assert sample_tuples(run, -5, trials) == _scalar_samples(run, -5, trials)


@pytest.mark.parametrize("l", [2, 4])
def test_redraw_fallback_takes_the_stream_draws(monkeypatch, l):
    toy = make_toy_verifier(0.6)
    run = ProtocolRun(cheating_proof({"kind": "choi_product", "q": 0.7}, toy, l), toy)
    # every bounded draw claims a redraw and a wrong value, so every trial's
    # draws must come from its own stream
    monkeypatch.setattr(rngmod, "bounded", lambda u32, n: (np.zeros(len(u32), np.int64), np.ones(len(u32), bool)))
    assert sample_tuples(run, 3, 60) == _scalar_samples(run, 3, 60)


@pytest.mark.parametrize("strategy", [{"kind": "choi_product", "q": 0.5}, {"kind": "idle_epr"}])
def test_bulk_sample_matches_scalar_reference_on_edge_draws(monkeypatch, strategy):
    toy = make_toy_verifier(0.3, a_qubits=2)
    run = ProtocolRun(cheating_proof(strategy, toy, l=3), toy)
    draws = []
    for i in range(3):
        for drawn_j in range(2):
            j = drawn_j + (drawn_j >= i)
            [tree] = _pair_tree(select_ordered_pair(run.proof.state, 1, 3, i, j)[None], toy)
            u1s = [0.0, *edge_uniforms(tree.bell_probs), *edge_uniforms([tree.swap_pass, 1.0 - tree.swap_pass])]
            u2s = [u for dist in tree.bit_dists.values() for u in edge_uniforms(dist)]
            draws += [(i, drawn_j, coin, u1, u2) for coin in (0, 1) for u1 in u1s for u2 in u2s]
    columns = tuple(np.array(column) for column in zip(*draws))
    monkeypatch.setattr(rngmod, "trial_draws", lambda seed, start, n, l: tuple(c[start:start + n] for c in columns))
    trees = {}
    expected = [scalar_sample(run, FixedDraws(d[:3], d[3:]), trees) for d in draws]
    assert sample_tuples(run, 0, len(draws)) == expected


def _tree_calls(run, trials):
    """The shapes of the stacks run's _pair_tree calls get while it samples
    trials trials."""
    with mock.patch.object(protocol, "_pair_tree", wraps=protocol._pair_tree) as build:
        sample_tuples(run, 1, trials)
    return [call.args[0].shape for call in build.call_args_list]


@pytest.mark.parametrize("p_qubits, a_qubits", [(1, 1), (2, 1), (1, 2)])
def test_exact_builds_one_tree_on_a_stack_of_one(p_qubits, a_qubits):
    toy = make_toy_verifier(0.3, p_qubits=p_qubits, a_qubits=a_qubits)
    run = ProtocolRun(cheating_proof({"kind": "local_unitaries", "unitary_seed": 5}, toy, l=3), toy)
    with mock.patch.object(protocol, "_pair_tree", wraps=protocol._pair_tree) as build:
        run.exact()
    d = 2 ** (p_qubits + 4)
    assert [call.args[0].shape for call in build.call_args_list] == [(1, d, d)]


def _trees_by_pair(run) -> dict:
    """Each ordered pair's tree, read off one _pair_trees call's slot table;
    every tree it built is some pair's."""
    l = run.proof.l
    trees, slots = run._pair_trees()
    assert slots.shape == (l * l,)
    by_pair = {(i, j): trees[slots[i * l + j]] for i in range(l) for j in range(l) if i != j}
    assert {id(tree) for tree in by_pair.values()} == {id(tree) for tree in trees}
    return by_pair


def _sampled_tree_builds(strategy, p, l):
    """The run, each ordered pair's tree from one _pair_trees call, and how
    many trees that call built: the members of the stacks its _pair_tree calls got."""
    toy = make_toy_verifier(p)
    run = ProtocolRun(cheating_proof(strategy, toy, l), toy)
    with mock.patch.object(protocol, "_pair_tree", wraps=protocol._pair_tree) as build:
        trees = _trees_by_pair(run)
    return run, trees, sum(call.args[0].shape[0] for call in build.call_args_list)


# Product proofs whose ordered-pair reductions are equal bit for bit.
@pytest.mark.parametrize("strategy, p", [
    (HONEST_STRATEGY, 0.5), (HONEST_STRATEGY, 1.0), ({"kind": "idle_epr"}, 0.2),
    ({"kind": "choi_product", "q": 0.5}, 0.3), ({"kind": "choi_product", "q": 0.3}, 0.3),
])
def test_sampled_product_proof_builds_one_tree(strategy, p):
    assert _sampled_tree_builds(strategy, p, l=4)[2] == 1


def test_sampled_local_unitaries_build_a_tree_per_pair():
    assert _sampled_tree_builds({"kind": "local_unitaries", "unitary_seed": 5}, 0.3, l=3)[2] == 6


def test_sampled_run_builds_its_trees_in_one_stacked_call():
    toy = make_toy_verifier(0.3)
    run = ProtocolRun(cheating_proof({"kind": "local_unitaries", "unitary_seed": 5}, toy, l=3), toy)
    # Six distinct two-slot states on (P, S1, S1', S2, S2'), all drawn in the first chunk.
    assert _tree_calls(run, 2000) == [(6, 32, 32)]


def test_sampled_stacks_hold_at_most_max_stack_trees():
    toy = make_toy_verifier(0.3)
    run = ProtocolRun(cheating_proof({"kind": "local_unitaries", "unitary_seed": 5}, toy, l=4), toy)
    most = tree_stack(1, 1)
    assert _tree_calls(run, 2000) == [(most, 32, 32), (12 - most, 32, 32)]


@pytest.mark.parametrize("p_qubits, a_qubits, calls", [
    (1, 2, [(2, 32, 32)] * 3), (2, 1, [(2, 64, 64)] * 3), (2, 2, [(1, 64, 64)] * 6),
])
def test_sampled_stacks_of_larger_trees_hold_fewer(p_qubits, a_qubits, calls):
    # Each qubit past p_qubits = a_qubits = 1 quarters the stack, so a
    # stack's tree states stay within those of 8 smallest trees.
    assert tree_stack(1, 1) == 8 and tree_stack(1, 8) == 1
    toy = make_toy_verifier(0.3, p_qubits=p_qubits, a_qubits=a_qubits)
    run = ProtocolRun(cheating_proof({"kind": "local_unitaries", "unitary_seed": 5}, toy, l=3), toy)
    assert _tree_calls(run, 2000) == calls


@pytest.mark.parametrize("l", [2, 3, 4, 5])
@pytest.mark.parametrize("strategy, p", [
    (HONEST_STRATEGY, 0.7), ({"kind": "choi_product", "q": 0.1}, 0.3),
    ({"kind": "local_unitaries", "unitary_seed": -3}, 0.6),
])
def test_sampled_trees_are_one_per_distinct_reduction(strategy, p, l):
    # From l = 3 on, a product proof's reductions can differ in the last bits,
    # as its amplitudes multiply the pair factors in position order; those
    # pairs keep trees of their own.  At l = 5 local_unitaries' 20 distinct
    # reductions fill three stacks, and the honest proof's last pairs reuse
    # trees of a stack that is already full.
    run, trees, builds = _sampled_tree_builds(strategy, p, l)
    states = {}
    for (i, j), tree in trees.items():
        key = select_ordered_pair(run.proof.state, 1, l, i, j).tobytes()
        assert states.setdefault(key, tree) is tree
    assert builds == len(states) == len({id(tree) for tree in trees.values()})


def _counted_reductions(monkeypatch) -> list[tuple[int, int]]:
    """The (i, j) of each select_ordered_pair call made from now on."""
    direct = kernel.select_ordered_pair
    calls = []

    def counted(state, p_qubits, l, i, j):
        calls.append((i, j))
        return direct(state, p_qubits, l, i, j)

    # Bound in protocol too, so that a direct call from the run counts.
    monkeypatch.setattr(kernel, "select_ordered_pair", counted)
    monkeypatch.setattr(protocol, "select_ordered_pair", counted, raising=False)
    return calls


@pytest.mark.parametrize("strategy, p", [
    (HONEST_STRATEGY, 0.7), ({"kind": "local_unitaries", "unitary_seed": -3}, 0.6),
])
def test_sampled_run_reduces_each_unordered_pair_once(monkeypatch, strategy, p):
    toy = make_toy_verifier(p)
    run = ProtocolRun(cheating_proof(strategy, toy, 4), toy)
    calls = _counted_reductions(monkeypatch)
    trees = _trees_by_pair(run)
    assert len(trees) == 12
    assert calls == [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for (i, j), tree in trees.items():
        assert [tree] == _pair_tree(select_ordered_pair(run.proof.state, 1, 4, i, j)[None], toy)


def test_sampled_chunk_reads_each_drawn_tree_once():
    # A product proof's 12 ordered pairs share one tree, so each chunk draws
    # its Bell outcomes in one pass over all its trials, not one per pair.
    toy = make_toy_verifier(0.5)
    run = ProtocolRun(cheating_proof(HONEST_STRATEGY, toy, l=4), toy)
    [tree] = run._pair_trees()[0]
    with mock.patch.object(rngmod, "choose", wraps=rngmod.choose) as choose:
        sample_tuples(run, 1, 3000)
    assert len(choose.call_args_list) == 1 + len(tree.bit_dists)
    assert choose.call_args_list[0].args[0].size == 3000


def test_one_trial_run_builds_every_tree_before_its_draw(monkeypatch):
    # One trial draws one ordered pair, yet all 12 trees are built, from one
    # reduction per unordered pair, in stacks of at most tree_stack(1, 1).
    toy = make_toy_verifier(0.3)
    run = ProtocolRun(cheating_proof({"kind": "local_unitaries", "unitary_seed": 5}, toy, l=4), toy)
    calls = _counted_reductions(monkeypatch)
    most = tree_stack(1, 1)
    assert _tree_calls(run, 1) == [(most, 32, 32), (12 - most, 32, 32)]
    assert calls == [(i, j) for i in range(4) for j in range(i + 1, 4)]


def test_verifier_rejects_bad_inputs():
    toy = make_toy_verifier(0.75)
    proof = cheating_proof(HONEST_STRATEGY, toy, l=2)
    other = make_toy_verifier(0.75, p_qubits=2)
    with pytest.raises(ValueError):
        ProtocolRun(proof, other)
    with pytest.raises(ValueError):
        ProtocolState(proof.state, 1, 1)


def test_two_qubit_register_toys():
    toy = make_toy_verifier(0.7, p_qubits=2, a_qubits=2)
    result = ProtocolRun(cheating_proof(HONEST_STRATEGY, toy, l=2), toy).exact()
    assert result.accept_probability == pytest.approx(1.0, abs=1e-9)


def test_four_pair_runs():
    # the supported upper end of the pair count
    toy = make_toy_verifier(0.75)
    result = ProtocolRun(cheating_proof(HONEST_STRATEGY, toy, l=4), toy).exact()
    assert result.accept_probability == pytest.approx(1.0, abs=1e-9)
    cheat = ProtocolRun(cheating_proof({"kind": "local_unitaries", "unitary_seed": 3}, toy, l=4), toy).exact()
    assert sum(cheat.branches.values()) == pytest.approx(1.0, abs=1e-9)


def test_eight_pair_runs():
    toy = make_toy_verifier(0.75)
    result = ProtocolRun(cheating_proof(HONEST_STRATEGY, toy, l=8), toy).exact()
    assert result.accept_probability == pytest.approx(1.0, abs=1e-9)
    cheat = ProtocolRun(cheating_proof({"kind": "local_unitaries", "unitary_seed": 3}, toy, l=8), toy).exact()
    assert sum(cheat.branches.values()) == pytest.approx(1.0, abs=1e-9)


def _distinct_choi_pairs(l: int) -> ProtocolState:
    rng = np.random.default_rng(100 + l)
    amps = np.array([0.0, 1.0], dtype=complex)
    for _ in range(l):
        amps = tensor(amps, choi_state(random_unitary(rng, 2)))
    return ProtocolState(amps, 1, l)


@pytest.mark.parametrize("l", [3, 4])
def test_exact_matches_oracle_on_non_exchangeable_proofs(l):
    # exact() evaluates one tree on the pair-averaged state; the oracle runs
    # each ordered pair's reduction, and their mean must agree
    toy = make_toy_verifier(0.3)
    ordered = [(i, j) for i in range(l) for j in range(l) if i != j]
    for name, proof in (
        ("local_unitaries", cheating_proof({"kind": "local_unitaries", "unitary_seed": 7}, toy, l)),
        ("distinct_choi_pairs", _distinct_choi_pairs(l)),
    ):
        reductions = [select_ordered_pair(proof.state, 1, l, i, j) for i, j in ordered]
        assert trace_distance(reductions[0], reductions[l - 1]) > 1e-3  # (0,1) vs (1,0)
        per_pair = [
            verifier_branch_masses(toy.v, toy.acc_projector, toy.p_qubits, toy.a_qubits, rho)
            for rho in reductions
        ]
        result = ProtocolRun(proof, toy).exact()
        for key in BRANCH_KEYS:
            expected = np.mean([masses[key] for masses in per_pair])
            assert result.branches[key] == pytest.approx(expected, abs=1e-9), (name, key)


def _circuit_tree(dm, toy):
    """The pair tree's coin-0 distributions by brute force: the verifier steps,
    each Bell projection of (S2', S1) summed out of the full density, then the
    (A, S2) diagonal of each kept outcome's normalized state."""
    p, a = toy.p_qubits, toy.a_qubits
    dm = pinch_pair(pinch_pair(dm, p + 4, [p, p + 1]), p + 4, [p + 2, p + 3])
    w = apply_local(dm, BELL_TO_COMPUTATIONAL, p + 4, [p, p + 1])
    w = partial_trace(w, p + 4, [*range(p), p, p + 2, p + 3])
    # (P, S1, S2, S2', A): S1 is qubit p, S2 p + 1, S2' p + 2 and A the last a.
    w = tensor(w, proj(np.eye(2**a)[0]))
    n = p + 3 + a
    pa = [*range(p), *range(p + 3, n)]
    w = apply_local(w, toy.v, n, pa)
    flip = np.eye(2 ** (p + a + 1)) - 2.0 * tensor(toy.acc_projector, proj(np.array([0.0, 1.0])))
    w = apply_local(w, flip, n, [*pa, p])
    w = apply_local(w, dagger(toy.v), n, pa)
    x_on_s2 = tensor(np.eye(2**a), np.array([[0, 1], [1, 0]]))
    pair, bits = [p + 2, p], [*range(p + 3, n), p + 1]
    bell_probs, bit_dists = [], {}
    for k, bell in enumerate(BELL_STATES):
        out = bell_branch(w, n, pair, bits, bell)
        if k == BELL_LABELS.index("psi+"):
            out = x_on_s2 @ out @ x_on_s2
        prob = float(np.trace(out).real)
        bell_probs.append(prob if prob >= PROB_FLOOR else 0.0)
        if k in KEPT and prob >= PROB_FLOOR:
            bit_dists[k] = [p if p >= PROB_FLOOR else 0.0 for p in out.diagonal().real / prob]
    return bell_probs, bit_dists


@settings(max_examples=200, deadline=None)
@given(
    p_qubits=st.integers(1, 2),
    a_qubits=st.integers(1, 2),
    p=st.floats(0.05, 1.0),
    kind=st.sampled_from(["mixed", "pure", "idle_epr"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_tree_diagonal_read_matches_post_selection(p_qubits, a_qubits, p, kind, seed):
    toy = make_toy_verifier(p, p_qubits, a_qubits)
    d = 2 ** (p_qubits + 4)
    rng = np.random.default_rng(seed)
    if kind == "mixed":
        dm = random_density(rng, d)
    elif kind == "pure":
        dm = proj(random_pure(rng, d))
    else:
        # deterministic bits: most conditional probabilities sit on PROB_FLOOR
        proof = cheating_proof({"kind": "idle_epr"}, toy, l=2)
        dm = select_ordered_pair(proof.state, p_qubits, 2, 0, 1)
    [tree] = _pair_tree(dm[None], toy)
    bell_probs, bit_dists = _circuit_tree(dm, toy)
    assert len(tree.bell_probs) == len(bell_probs) == 4
    assert np.max(np.abs(np.asarray(tree.bell_probs) - bell_probs)) <= 1e-12
    assert set(tree.bit_dists) == set(bit_dists)
    for k, probs in bit_dists.items():
        assert len(tree.bit_dists[k]) == len(probs) == 2 ** (a_qubits + 1)
        assert np.max(np.abs(np.asarray(tree.bit_dists[k]) - probs)) <= 1e-12


def _two_slot_members(rng, toy, kinds: list[str]) -> list[np.ndarray]:
    """A (P, S1, S1', S2, S2') density for each kind: a random mixed one, or the
    reduction of a random pure three-pair state or of a local_unitaries proof
    to a random ordered pair."""
    members = []
    for kind in kinds:
        if kind == "density":
            members.append(random_density(rng, 2 ** (toy.p_qubits + 4)))
            continue
        if kind == "pure_proof":
            state = random_pure(rng, 2 ** (toy.p_qubits + 6))
        else:
            seed = int(rng.integers(2**63))
            state = cheating_proof({"kind": "local_unitaries", "unitary_seed": seed}, toy, 3).state
        i, j = rng.choice(3, size=2, replace=False)
        members.append(select_ordered_pair(state, toy.p_qubits, 3, int(i), int(j)))
    return members


@settings(max_examples=40, deadline=None)
@given(
    p_qubits=st.integers(1, 2),
    a_qubits=st.integers(1, 3),
    p=st.floats(0.05, 1.0),
    kinds=st.lists(st.sampled_from(["density", "pure_proof", "local_unitaries"]), min_size=1, max_size=4),
    picks=st.lists(st.integers(0, 3), min_size=1, max_size=tree_stack(1, 1)),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_pair_tree_is_bit_exact_with_the_reference_tree(p_qubits, a_qubits, p, kinds, picks, seed):
    toy = make_toy_verifier(p, p_qubits, a_qubits)
    members = _two_slot_members(np.random.default_rng(seed), toy, kinds)
    # A stack of 1-8 members, some of them repeated.
    stack = np.array([members[k % len(members)] for k in picks])
    expected = [reference_pair_tree(m, toy) for m in stack]
    trees = _pair_tree(stack, toy)
    assert isinstance(trees, list) and len(trees) == len(stack)
    assert repr(trees) == repr(expected)
    # A stack of one, as exact() makes it, gives a list of one tree.
    alone = _pair_tree(stack[:1], toy)
    assert isinstance(alone, list) and repr(alone) == repr(expected[:1])


def test_protocol_run_never_forms_the_proof_density(monkeypatch):
    # Every reduction of the whole proof (kernel's pair reductions and the
    # marginal check) must take its amplitudes, never a density.
    toy = make_toy_verifier(0.75)
    n = toy.p_qubits + 2 * 3
    original = partial_trace

    def guarded(t, n_qubits, keep):
        assert t.ndim == 1 or n_qubits < n, "reduced the density of the whole proof"
        return original(t, n_qubits, keep)

    monkeypatch.setattr(kernel, "partial_trace", guarded)
    monkeypatch.setattr(protocol, "partial_trace", guarded)
    for strategy in (HONEST_STRATEGY, {"kind": "local_unitaries", "unitary_seed": 2}):
        proof = cheating_proof(strategy, toy, l=3)
        run = ProtocolRun(proof, toy)
        assert sum(run.exact().branches.values()) == pytest.approx(1.0, abs=1e-9)
        sample_tuples(run, 1, 1)
