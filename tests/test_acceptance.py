"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion.
"""

import time

import numpy as np

from eprverify.channels import apply_pinch, choi_state
from eprverify.harness import ExperimentConfig, emit_report, lemma_suite, run_experiment
from eprverify.kernel import (
    BELL_LABELS,
    BELL_STATES,
    BELL_TO_COMPUTATIONAL,
    rx_prob,
)
from eprverify.linalg import dagger, proj, tensor
from eprverify.protocol import (
    HONEST_STRATEGY,
    ProtocolRun,
    ProtocolState,
    ToyVerifier,
    cheating_proof,
    honest_rewinding_instance,
    make_toy_verifier,
    rewinding_residual,
    swap_test,
    teleport,
)
from eprverify.sampling import random_density, random_pure, random_unitary

from dense_reference import pure_fidelity
from monolithic_oracle import proof_branch_masses, verifier_branch_masses

P_GRID = np.linspace(0.5, 1.0, 11)
Q_GRID = np.linspace(0.0, 1.0, 11)


def haar_toy(seed: int, p_qubits: int, a_qubits: int) -> ToyVerifier:
    """A verifier with a Haar-random V on (P, A), so no permutation of P's or
    A's qubits leaves it unchanged; the acceptance maximum and its witness
    come from eigh of (I (x) <0|) V† Pi_acc V (I (x) |0>), and the rest is
    built as make_toy_verifier builds it."""
    dp, da = 2**p_qubits, 2**a_qubits
    v = random_unitary(np.random.default_rng(seed), dp * da)
    one = proj(np.array([0.0, 1.0]))
    acc = tensor(np.eye(dp), one, np.eye(da // 2))
    on_zero = v[:, ::da]  # the columns with A = |0...0>
    values, vectors = np.linalg.eigh(dagger(on_zero) @ acc @ on_zero)
    flip = np.eye(2 * dp * da) - 2.0 * tensor(acc, one)
    return ToyVerifier(v, p_qubits, a_qubits, acc, float(values[-1]), vectors[:, -1], flip)


def test_criterion_1_perfect_completeness():
    start = time.perf_counter()
    for p in P_GRID:
        for l in (2, 3):
            toy = make_toy_verifier(float(p))
            result = ProtocolRun(cheating_proof(HONEST_STRATEGY, toy, l), toy).exact()
            assert abs(result.accept_probability - 1.0) <= 1e-9, (p, l)
    # Haar-random verifiers whose top eigenvalue is at least 1/2.
    for seed, (p_qubits, a_qubits) in enumerate(((1, 1), (2, 1), (1, 2), (2, 2))):
        toy = haar_toy(seed, p_qubits, a_qubits)
        assert toy.max_accept >= 0.5, seed
        for l in (2, 3):
            result = ProtocolRun(cheating_proof(HONEST_STRATEGY, toy, l), toy).exact()
            assert abs(result.accept_probability - 1.0) <= 1e-9, (seed, l)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"completeness sweep took {elapsed:.1f} s"
    print(f"ACCEPTANCE 1 (perfect completeness, 11 p-values x l in {{2,3}}, 4 Haar verifiers): PASS ({elapsed:.1f} s)")


def test_criterion_2_post_selection_lemma():
    rng = np.random.default_rng(220220)
    for _ in range(50):
        q = float(rng.uniform(0.0, 1.0))
        phi = random_pure(rng, 2)
        # qubits (S2, S2', S1): the pair, then phi
        state = tensor(choi_state(dagger(rx_prob(q))), phi)
        # the verifier's own read: a Bell measurement of (S2', S1), the phi+ and psi+ outcomes kept
        blocks = teleport(state, 3, 1, 2, [0])
        kept = [blocks[BELL_LABELS.index("phi+")], blocks[BELL_LABELS.index("psi+")]]
        success = sum(np.trace(out).real for out in kept)
        assert abs(success - 0.5) <= 1e-12
        expected = dagger(rx_prob(q)) @ phi
        for out in kept:
            assert pure_fidelity(expected, out / np.trace(out).real) >= 1.0 - 1e-10
    print("ACCEPTANCE 2 (post-selection: 50 random (q, phi), success 1/2, exact output): PASS")


def test_criterion_3_swap_test_formula():
    rng = np.random.default_rng(330330)
    for t in range(200):
        k = 1 if t % 2 == 0 else 2
        rho, sigma = random_density(rng, 2**k), random_density(rng, 2**k)
        circuit = swap_test(tensor(rho, sigma))
        assert abs(circuit - (1 + np.trace(rho @ sigma).real) / 2) <= 1e-12
    psi = random_pure(rng, 2)
    assert abs(swap_test(tensor(proj(psi), proj(psi))) - 1.0) <= 1e-12
    orth = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert abs(swap_test(orth) - 0.5) <= 1e-12
    print("ACCEPTANCE 3 (SWAP test circuit vs closed form, 200 pairs + edges): PASS")


def test_criterion_4_rewinding_identity():
    for p in P_GRID:
        toy = make_toy_verifier(float(p))
        delta, pi, omega = honest_rewinding_instance(toy)
        assert rewinding_residual(delta, pi, omega) <= 1e-8, p
    rng = np.random.default_rng(440440)
    for _ in range(100):
        dim = int(rng.integers(1, 9)) * 2
        angles = [np.pi / 4] + [float(rng.uniform(0.1, np.pi / 2 - 0.1)) for _ in range(dim // 2 - 1)]
        u = random_unitary(rng, dim)
        delta = np.zeros((dim, dim), dtype=complex)
        pi = np.zeros((dim, dim), dtype=complex)
        for k, angle in enumerate(angles):
            e_a = np.zeros(dim, dtype=complex)
            e_b = np.zeros(dim, dtype=complex)
            e_a[2 * k] = 1.0
            e_b[2 * k + 1] = 1.0
            delta += proj(u @ e_a)
            pi += proj(u @ (np.cos(angle) * e_a + np.sin(angle) * e_b))
        omega = u[:, 0]
        assert rewinding_residual(delta, pi, omega) <= 1e-8
    print("ACCEPTANCE 4 (rewinding residual <= 1e-8, honest grid + 100 synthetic): PASS")


def test_criterion_5_choi_and_decoder_identities():
    decoder = BELL_TO_COMPUTATIONAL
    zero = np.array([1.0, 0.0], dtype=complex)
    for q in Q_GRID:
        got = choi_state(dagger(rx_prob(float(q))))
        closed = np.sqrt(1 - q) * BELL_STATES[0] + 1j * np.sqrt(q) * BELL_STATES[2]
        assert np.max(np.abs(got - closed)) <= 1e-12
        decoded = decoder @ got
        target = tensor((rx_prob(float(q)) @ zero).reshape(2, 1), zero.reshape(2, 1)).reshape(-1)
        assert np.max(np.abs(decoded - target)) <= 1e-12
    print("ACCEPTANCE 5 (Choi closed form + decoder identity on 11-point q grid): PASS")


def test_criterion_6_inequality_suite():
    margins = lemma_suite(trials=1000, seed=660660, tol=1e-9)
    assert len(margins) == 10
    for name, entry in margins.items():
        assert entry["samples"] >= 1000, name
        assert entry["violations"] == 0, name
        assert entry["min_margin"] >= -1e-9, (name, entry["min_margin"])
    worst = min(entry["min_margin"] for entry in margins.values())
    print(f"ACCEPTANCE 6 (inequality suite, 10 x 1000 instances, worst margin {worst:.2e}): PASS")


def _assert_matches_oracle(toy: ToyVerifier, proof: ProtocolState, case) -> None:
    result = ProtocolRun(proof, toy).exact()
    oracle = proof_branch_masses(toy.v, toy.acc_projector, toy.p_qubits, toy.a_qubits, proof.state, proof.l)
    oracle_accept = oracle["b0_postsel_fail"] + oracle["b0_measured_accept"] + oracle["b1_swap_accept"]
    assert abs(result.accept_probability - oracle_accept) <= 1e-9, case
    for key in result.branches:
        assert abs(result.branches[key] - oracle[key]) <= 1e-9, (case, key)


def test_criterion_7_soundness_oracle_equivalence():
    start = time.perf_counter()
    strategies = [
        ("honest", {"kind": "honest"}),
        ("idle_epr", {"kind": "idle_epr"}),
        ("choi_product", {"kind": "choi_product", "q": 0.8}),
        ("local_unitaries", {"kind": "local_unitaries", "unitary_seed": 5}),
    ]
    # The oracle makes its own pair reductions of the whole proof, at l = 3
    # and 4 and with two P or two A qubits.
    for p_qubits, a_qubits in ((1, 1), (2, 1), (1, 2)):
        toy = make_toy_verifier(0.3, p_qubits, a_qubits)
        for l in (3, 4):
            for name, strategy in strategies:
                _assert_matches_oracle(toy, cheating_proof(strategy, toy, l), (p_qubits, a_qubits, l, name))
    # Haar-random verifiers, on which a fault in the order of P's or A's
    # qubits shows; and a matrix proof, a mixture of two strategies' proofs.
    for seed, (p_qubits, a_qubits) in enumerate(((1, 1), (2, 1), (1, 2))):
        toy = haar_toy(seed, p_qubits, a_qubits)
        for l in (2, 3):
            for name, strategy in strategies:
                _assert_matches_oracle(toy, cheating_proof(strategy, toy, l), (seed, p_qubits, a_qubits, l, name))
    toy = haar_toy(11, 2, 1)
    honest, twisted = (cheating_proof(strategy, toy, 3) for strategy in (strategies[0][1], strategies[3][1]))
    mixture = ProtocolState(0.6 * proj(honest.state) + 0.4 * proj(twisted.state), 2, 3)
    _assert_matches_oracle(toy, mixture, "mixture")
    for p in (1e-3, 2e-4):
        toy = make_toy_verifier(p)
        for name, strategy in strategies:
            proof = cheating_proof(strategy, toy, l=2)
            result = ProtocolRun(proof, toy).exact()
            oracle = verifier_branch_masses(
                toy.v, toy.acc_projector, toy.p_qubits, toy.a_qubits,
                proj(proof.state),
            )
            oracle_accept = (
                oracle["b0_postsel_fail"] + oracle["b0_measured_accept"] + oracle["b1_swap_accept"]
            )
            assert abs(result.accept_probability - oracle_accept) <= 1e-9, (p, name)
            for key in result.branches:
                assert abs(result.branches[key] - oracle[key]) <= 1e-9, (p, name, key)
            assert result.reject_probability > 0.0, (p, name)
    # asymmetric custom state: conditional swap-branch rejection in closed form
    toy = make_toy_verifier(1e-3)
    rng = np.random.default_rng(770770)
    for _ in range(5):
        u1, u2 = random_unitary(rng, 2), random_unitary(rng, 2)
        amps = tensor(
            np.array([0.0, 1.0], dtype=complex),
            choi_state(u1),
            choi_state(u2),
        )
        proof = ProtocolState(amps, 1, 2)
        result = ProtocolRun(proof, toy).exact()
        rho1 = apply_pinch(proj(choi_state(u1)), 2, [0, 1])
        rho2 = apply_pinch(proj(choi_state(u2)), 2, [0, 1])
        expected = (1 - np.trace(rho1 @ rho2).real) / 2
        assert abs(result.branches["b1_swap_reject"] * 2 - expected) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"soundness suite took {elapsed:.1f} s"
    print(f"ACCEPTANCE 7 (exact verifier vs monolithic oracle <= 1e-9): PASS ({elapsed:.1f} s)")


def test_criterion_8_sampled_exact_consistency():
    trials = 100_000
    strategies = [
        {"kind": "honest"},
        {"kind": "idle_epr"},
        {"kind": "choi_product", "q": 0.8},
    ]
    toys = [0.75, 1e-3]
    for p_toy in toys:
        for strategy in strategies:
            base = {
                "experiment": "soundness",
                "verifier": {"p": p_toy},
                "strategy": strategy,
                "seed": 808080,
            }
            exact = run_experiment(ExperimentConfig.from_dict({**base, "mode": "exact"}))
            sampled = run_experiment(
                ExperimentConfig.from_dict({**base, "mode": "sampled", "trials": trials})
            )
            p = exact.accept_probability
            bound = 5 * np.sqrt(p * (1 - p) / trials)
            diff = abs(sampled.accept_probability - p)
            assert diff <= bound, (p_toy, strategy, diff, bound)
    # repeated seeds emit byte-identical reports
    for strategy in strategies[:2]:
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "soundness",
                "verifier": {"p": 1e-3},
                "strategy": strategy,
                "seed": 818181,
                "mode": "sampled",
                "trials": 2000,
            }
        )
        first, second = run_experiment(cfg), run_experiment(cfg)
        assert emit_report(first, "json") == emit_report(second, "json")
        assert emit_report(first, "csv") == emit_report(second, "csv")
    print(f"ACCEPTANCE 8 (3 strategies x 2 toys, {trials} trials within 5 sigma; byte-stable): PASS")
