"""Distance and fidelity measures, plus signed-margin oracles for the
standard inequalities relating them.

Every inequality oracle returns its slack (lhs-to-rhs margin) rather than a
boolean, so property tests can assert ``margin >= -tol`` and log worst cases.
Inputs may be raw matrices or :class:`~eprverify.kernel.DensityOperator`.
"""

from __future__ import annotations

import numpy as np

from .linalg import dagger, hermitian_sqrt, trace_norm, operator_norm


def _mat(x) -> np.ndarray:
    return np.asarray(getattr(x, "matrix", x), dtype=complex)


def trace_distance(a, b) -> float:
    """Half the trace norm of A - B."""
    a, b = _mat(a), _mat(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return 0.5 * trace_norm(a - b)


def fidelity(rho, sigma) -> float:
    """Trace norm of sqrt(rho) sqrt(sigma), via spectral square roots."""
    rho, sigma = _mat(rho), _mat(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    return trace_norm(hermitian_sqrt(rho) @ hermitian_sqrt(sigma))


def holder_margin(a, b) -> float:
    """Slack of |Tr(B† A)| <= ||A||_1 ||B||_inf."""
    a, b = _mat(a), _mat(b)
    lhs = abs(np.trace(dagger(b) @ a))
    return trace_norm(a) * operator_norm(b) - lhs


def triangle_margin(a, b, c) -> float:
    """Slack of D(A,B) <= D(A,C) + D(C,B)."""
    return trace_distance(a, c) + trace_distance(c, b) - trace_distance(a, b)


def monotonicity_margin(rho, sigma, channel) -> float:
    """Slack of D(channel(rho), channel(sigma)) <= D(rho, sigma).

    ``channel`` maps matrices to matrices and must be completely positive and
    trace preserving for the inequality to hold.
    """
    rho, sigma = _mat(rho), _mat(sigma)
    return trace_distance(rho, sigma) - trace_distance(channel(rho), channel(sigma))


def fvg_margins(rho, sigma) -> tuple[float, float]:
    """Slacks of 1 - D <= F and F <= sqrt(1 - D^2)."""
    d = trace_distance(rho, sigma)
    f = fidelity(rho, sigma)
    upper = np.sqrt(max(1.0 - d * d, 0.0))
    return f - (1.0 - d), float(upper - f)


def gentle_margin(rho, projector) -> float:
    """Slack of 1 - Tr(rho P) <= F(rho, post)^2 for the projected-out post state.

    The post state is (I-P) rho (I-P) normalized; requires Tr(rho P) < 1.
    """
    rho, projector = _mat(rho), _mat(projector)
    hit = float(np.trace(rho @ projector).real)
    if hit >= 1.0 - 1e-12:
        raise ValueError(f"Tr(rho P) = {hit} leaves no post state to compare against")
    comp = np.eye(rho.shape[0]) - projector
    post = comp @ rho @ comp
    post = post / np.trace(post).real
    return fidelity(rho, post) ** 2 - (1.0 - hit)


def additive_perturbation_margin(a, b, eps: float) -> float:
    """Slack of D(A + B, A) <= eps/2 for PSD B with Tr(B) <= eps."""
    a, b = _mat(a), _mat(b)
    if np.min(np.linalg.eigvalsh((b + dagger(b)) / 2)) < -1e-10 or not np.allclose(b, dagger(b), atol=1e-10):
        raise ValueError("perturbation B must be PSD")
    tr_b = float(np.trace(b).real)
    if tr_b > eps + 1e-12:
        raise ValueError(f"Tr(B) = {tr_b} exceeds eps = {eps}")
    return eps / 2.0 - trace_distance(a + b, a)


def mixture_perturbation_margin(rho, sigma, eps: float) -> float:
    """Slack of D((1-eps) rho + eps sigma, rho) <= eps for density operators."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    rho, sigma = _mat(rho), _mat(sigma)
    mixed = (1.0 - eps) * rho + eps * sigma
    return eps - trace_distance(mixed, rho)

