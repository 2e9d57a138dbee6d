"""Distance/fidelity measures and the inequality-margin oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eprverify.channels import apply_pinch
from eprverify.kernel import HADAMARD
from eprverify.linalg import dagger, hermitian_sqrt, operator_norm, partial_trace, proj, trace_norm
from eprverify.metrics import (
    additive_perturbation_margin,
    fidelity,
    fvg_margins,
    gentle_margin,
    holder_margin,
    mixture_perturbation_margin,
    monotonicity_margin,
    trace_distance,
    triangle_margin,
)
from eprverify.sampling import (
    ginibre_density,
    random_complex_matrix,
    random_density,
    random_projector,
    random_pure,
    random_unitary,
)

import dense_reference as ref
from dense_reference import pure_fidelity

RNG = np.random.default_rng(515151)

ZERO = np.array([1.0, 0.0], dtype=complex)
ONE = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)


def test_trace_distance_basics():
    rho = random_density(RNG, 4)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(proj(PLUS), proj(MINUS)) == pytest.approx(1.0, abs=1e-12)
    # difference I/2 - |0><0| has eigenvalues +-1/2
    assert trace_distance(np.eye(2) / 2, proj(ZERO)) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        trace_distance(np.eye(2), np.eye(4))


def test_pure_trace_distance():
    # on pure states D = sqrt(1 - |<a|b>|^2)
    psi = random_pure(RNG, 8)
    assert trace_distance(proj(psi), proj(psi)) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(proj(ZERO), proj(PLUS)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    for _ in range(100):
        a, b = random_pure(RNG, 4), random_pure(RNG, 4)
        closed = np.sqrt(max(1.0 - abs(np.vdot(a, b)) ** 2, 0.0))
        assert abs(closed - trace_distance(proj(a), proj(b))) <= 1e-10


def test_fidelity_basics():
    rho = random_density(RNG, 4)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    assert fidelity(proj(ZERO), proj(ONE)) == pytest.approx(0.0, abs=1e-9)


def test_fidelity_pure_form():
    # F(|phi><phi|, sigma) = sqrt(<phi|sigma|phi>)
    for _ in range(50):
        phi = random_pure(RNG, 4)
        sigma = random_density(RNG, 4)
        assert fidelity(proj(phi), sigma) == pytest.approx(
            pure_fidelity(phi, sigma), abs=1e-9
        )


def test_fidelity_symmetric():
    for _ in range(200):
        d = int(RNG.integers(2, 9))
        rho, sigma = random_density(RNG, d), random_density(RNG, d)
        assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) <= 1e-9


def test_fvg_margins_extremes():
    rho = random_density(RNG, 4)
    lo, up = fvg_margins(rho, rho)
    assert lo == pytest.approx(0.0, abs=1e-9)
    assert up == pytest.approx(0.0, abs=1e-9)
    lo, up = fvg_margins(proj(ZERO), proj(ONE))
    assert lo == pytest.approx(0.0, abs=1e-9)
    assert up == pytest.approx(0.0, abs=1e-9)


def test_fvg_margins_random():
    for _ in range(1000):
        d = int(RNG.integers(2, 5))
        lo, up = fvg_margins(random_density(RNG, d), random_density(RNG, d))
        assert lo >= -1e-9
        assert up >= -1e-9


def test_gentle_margin_trivial_and_saturating():
    rho = random_density(RNG, 4)
    assert gentle_margin(rho, np.zeros((4, 4))) == pytest.approx(0.0, abs=1e-9)
    # |+><+| against P = |1><1|: both sides equal 1/2
    assert gentle_margin(proj(PLUS), proj(ONE)) == pytest.approx(0.0, abs=1e-9)


def test_gentle_margin_random():
    count = 0
    while count < 300:
        d = int(RNG.integers(2, 9))
        rho = random_density(RNG, d)
        projector = random_projector(RNG, d, int(RNG.integers(1, d)))
        if np.trace(rho @ projector).real >= 1 - 1e-6:
            continue
        assert gentle_margin(rho, projector) >= -1e-9
        count += 1


def test_gentle_margin_rejects_full_overlap():
    with pytest.raises(ValueError):
        gentle_margin(proj(ZERO), proj(ZERO))


def test_perturbation_margins_trivial():
    a = random_complex_matrix(RNG, 3)
    assert additive_perturbation_margin(a, np.zeros((3, 3)), 0.0) == pytest.approx(0.0, abs=1e-12)
    rho, sigma = random_density(RNG, 3), random_density(RNG, 3)
    assert mixture_perturbation_margin(rho, sigma, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_perturbation_additive_scaled_bump():
    # PSD bump of trace 0.3 moves any operator by at most 0.15
    for _ in range(50):
        a = random_complex_matrix(RNG, 4)
        bump = random_density(RNG, 4) * 0.3
        assert trace_distance(a + bump, a) <= 0.15 + 1e-12
        assert additive_perturbation_margin(a, bump, 0.3) >= -1e-9


def test_perturbation_margin_preconditions():
    a = random_complex_matrix(RNG, 3)
    with pytest.raises(ValueError):
        additive_perturbation_margin(a, -np.eye(3), 1.0)
    with pytest.raises(ValueError):
        additive_perturbation_margin(a, np.eye(3), 0.5)
    with pytest.raises(ValueError):
        mixture_perturbation_margin(random_density(RNG, 3), random_density(RNG, 3), 1.0)


def test_perturbation_checks_pair():
    for _ in range(100):
        d = int(RNG.integers(2, 9))
        rho, sigma = random_density(RNG, d), random_density(RNG, d)
        eps = float(RNG.uniform(0, 0.99))
        # the additive bound with B = eps sigma (PSD, trace eps), and the mixture at weight eps
        assert additive_perturbation_margin(rho, eps * sigma, eps) >= -1e-9
        assert mixture_perturbation_margin(rho, sigma, eps) >= -1e-9


def test_triangle_inequality_random():
    for _ in range(1000):
        d = int(RNG.integers(2, 17))
        a, b, c = (random_complex_matrix(RNG, d) for _ in range(3))
        assert triangle_margin(a, b, c) >= -1e-9


def test_holder_margin_random():
    for _ in range(300):
        d = int(RNG.integers(2, 17))
        assert holder_margin(random_complex_matrix(RNG, d), random_complex_matrix(RNG, d)) >= -1e-9


def test_monotonicity_under_partial_trace():
    for _ in range(300):
        n = int(RNG.integers(2, 4))
        rho, sigma = random_density(RNG, 2**n), random_density(RNG, 2**n)
        channel = lambda m: partial_trace(m, n, [0])
        assert monotonicity_margin(rho, sigma, channel) >= -1e-9


def test_monotonicity_under_pinch():
    for _ in range(300):
        rho, sigma = random_density(RNG, 4), random_density(RNG, 4)
        assert monotonicity_margin(rho, sigma, lambda m: apply_pinch(m, 2, [0, 1])) >= -1e-9


def test_monotonicity_under_unitary_conjugation():
    for _ in range(300):
        d = int(RNG.integers(2, 9))
        u = random_unitary(RNG, d)
        rho, sigma = random_density(RNG, d), random_density(RNG, d)
        margin = monotonicity_margin(rho, sigma, lambda m: u @ m @ u.conj().T)
        # unitaries preserve the distance, so the margin is ~0 from both sides
        assert abs(margin) <= 1e-9


def test_hadamard_basis_states_match_gate():
    assert np.allclose(HADAMARD @ ZERO, PLUS)
    assert np.allclose(HADAMARD @ ONE, MINUS)


# ---------------------------------------------------------------------------
# Stacks (..., d, d) against the one-matrix references, bit for bit
# ---------------------------------------------------------------------------

def _stacked_instances(d: int, count: int, seed: int) -> dict[str, list[tuple]]:
    """Per-instance argument tuples of each metric and margin, on count random
    instances of dimension d."""
    rng = np.random.default_rng(seed)

    def draw(make) -> list:
        return [make() for _ in range(count)]

    a, b, c = (draw(lambda: random_complex_matrix(rng, d)) for _ in range(3))
    rho, sigma = (draw(lambda: random_density(rng, d)) for _ in range(2))
    us = draw(lambda: random_unitary(rng, d))
    projectors = draw(lambda: random_projector(rng, d, int(rng.integers(1, d))))
    eps = draw(lambda: float(rng.uniform(0.0, 0.999)))
    bumps = [e * float(rng.uniform(0.0, 1.0)) * s for e, s in zip(eps, sigma)]
    return {
        "matrix": list(zip(a)), "density": list(zip(rho)), "pair": list(zip(a, b)),
        "triple": list(zip(a, b, c)), "states": list(zip(rho, sigma)),
        "unitary": list(zip(rho, sigma, us)), "projector": list(zip(rho, projectors)),
        "additive": list(zip(a, bumps, eps)), "mixture": list(zip(rho, sigma, eps)),
    }


def _conjugated(rho, sigma, u):
    return monotonicity_margin(rho, sigma, lambda m: u @ m @ dagger(u))


def _scalar_conjugated(rho, sigma, u):
    return ref.scalar_monotonicity_margin(rho, sigma, lambda m: u @ m @ u.conj().T)


# (stack-aware form, one-matrix reference, kind of instance it takes)
STACKED_FORMS = [
    (trace_norm, ref.scalar_trace_norm, "matrix"),
    (operator_norm, ref.scalar_operator_norm, "matrix"),
    (hermitian_sqrt, ref.scalar_hermitian_sqrt, "density"),
    (ginibre_density, ref.scalar_ginibre_density, "matrix"),
    (trace_distance, ref.scalar_trace_distance, "pair"),
    (fidelity, ref.scalar_fidelity, "states"),
    (holder_margin, ref.scalar_holder_margin, "pair"),
    (triangle_margin, ref.scalar_triangle_margin, "triple"),
    (_conjugated, _scalar_conjugated, "unitary"),
    (fvg_margins, ref.scalar_fvg_margins, "states"),
    (gentle_margin, ref.scalar_gentle_margin, "projector"),
    (additive_perturbation_margin, ref.scalar_additive_perturbation_margin, "additive"),
    (mixture_perturbation_margin, ref.scalar_mixture_perturbation_margin, "mixture"),
]


def _values(x) -> np.ndarray:
    """A result as an array; a pair of results (fvg_margins) on its last axis."""
    return np.stack(x, axis=-1) if isinstance(x, tuple) else np.asarray(x)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 16), count=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
# On this draw np.abs of the stacked Tr(B† A) differs from the scalar abs() in
# the last bit (x86-64 with AVX-512); holder_margin's hypot form matches it.
@example(d=5, count=3, seed=0)
# On this draw one gentle margin's F ** 2 (libm pow) differs from F * F in the
# last bit; gentle_margin's float_power matches it.
@example(d=4, count=9, seed=137)
def test_stacked_metrics_match_one_matrix_references(d, count, seed):
    instances = _stacked_instances(d, count, seed)
    for stacked, scalar, kind in STACKED_FORMS:
        want = np.array([_values(scalar(*args)) for args in instances[kind]])
        fields = [np.array(column) for column in zip(*instances[kind])]
        assert np.array_equal(_values(stacked(*fields)), want), stacked.__name__
        # One matrix given as 2-D gives the first instance's value.
        assert np.array_equal(_values(stacked(*instances[kind][0])), want[0]), stacked.__name__
