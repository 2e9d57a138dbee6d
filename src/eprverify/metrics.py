"""Distance and fidelity measures, plus signed-margin oracles for the
standard inequalities relating them.

Every inequality oracle returns its slack (lhs-to-rhs margin) rather than a
boolean, so property tests can assert ``margin >= -tol`` and log worst cases.
Inputs are arrays: a matrix, or a stack of matrices (..., d, d) with scalar
parameters given one per matrix or once for all.  Each function returns one
value per matrix, bit for bit the one its matrices would give alone.
"""

from __future__ import annotations

import numpy as np

from .linalg import dagger, hermitian_sqrt, trace_norm, operator_norm


def _mat(x) -> np.ndarray:
    return np.asarray(x, dtype=complex)


def _trace(a: np.ndarray) -> np.ndarray:
    return np.trace(a, axis1=-2, axis2=-1)


def trace_distance(a, b) -> np.ndarray:
    """Half the trace norm of A - B."""
    a, b = _mat(a), _mat(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return 0.5 * trace_norm(a - b)


def fidelity(rho, sigma) -> np.ndarray:
    """Trace norm of sqrt(rho) sqrt(sigma), via spectral square roots."""
    rho, sigma = _mat(rho), _mat(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    return trace_norm(hermitian_sqrt(rho) @ hermitian_sqrt(sigma))


def holder_margin(a, b) -> np.ndarray:
    """Slack of |Tr(B† A)| <= ||A||_1 ||B||_inf."""
    a, b = _mat(a), _mat(b)
    t = _trace(dagger(b) @ a)
    # np.abs on a complex array takes a SIMD path that differs from the scalar
    # abs() in the last bit on about a third of draws; hypot matches it.
    return trace_norm(a) * operator_norm(b) - np.hypot(t.real, t.imag)


def triangle_margin(a, b, c) -> np.ndarray:
    """Slack of D(A,B) <= D(A,C) + D(C,B)."""
    return trace_distance(a, c) + trace_distance(c, b) - trace_distance(a, b)


def monotonicity_margin(rho, sigma, channel) -> np.ndarray:
    """Slack of D(channel(rho), channel(sigma)) <= D(rho, sigma).

    ``channel`` maps a matrix, or a stack of them, to the same, and must be
    completely positive and trace preserving for the inequality to hold.
    """
    rho, sigma = _mat(rho), _mat(sigma)
    return trace_distance(rho, sigma) - trace_distance(channel(rho), channel(sigma))


def fvg_margins(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    """Slacks of 1 - D <= F and F <= sqrt(1 - D^2)."""
    d = trace_distance(rho, sigma)
    f = fidelity(rho, sigma)
    gap = 1.0 - d * d
    # max(gap, 0.0) as Python's max() takes it: -0.0 and NaN stay.
    upper = np.sqrt(np.where(0.0 > gap, 0.0, gap))
    return f - (1.0 - d), upper - f


def gentle_margin(rho, projector) -> np.ndarray:
    """Slack of 1 - Tr(rho P) <= F(rho, post)^2 for the projected-out post state.

    The post state is (I-P) rho (I-P) normalized; requires Tr(rho P) < 1.
    """
    rho, projector = _mat(rho), _mat(projector)
    hit = _trace(rho @ projector).real
    if np.any(hit >= 1.0 - 1e-12):
        raise ValueError(f"Tr(rho P) = {np.max(hit)} leaves no post state to compare against")
    comp = np.eye(rho.shape[-1]) - projector
    post = comp @ rho @ comp
    post = post / _trace(post).real[..., None, None]
    # float_power is libm's pow, as Python's float ** is; the ** of a float64
    # array squares by x * x, which differs in the last bit on about 0.1% of values.
    return np.float_power(fidelity(rho, post), 2) - (1.0 - hit)


def additive_perturbation_margin(a, b, eps) -> np.ndarray:
    """Slack of D(A + B, A) <= eps/2 for PSD B with Tr(B) <= eps."""
    a, b = _mat(a), _mat(b)
    eps = np.asarray(eps, dtype=float)
    if np.min(np.linalg.eigvalsh((b + dagger(b)) / 2)) < -1e-10 or not np.allclose(b, dagger(b), atol=1e-10):
        raise ValueError("perturbation B must be PSD")
    tr_b = _trace(b).real
    if np.any(tr_b > eps + 1e-12):
        raise ValueError(f"Tr(B) exceeds eps by up to {np.max(tr_b - eps):.3e}")
    return eps / 2.0 - trace_distance(a + b, a)


def mixture_perturbation_margin(rho, sigma, eps) -> np.ndarray:
    """Slack of D((1-eps) rho + eps sigma, rho) <= eps for density operators."""
    eps = np.asarray(eps, dtype=float)
    if not np.all((0.0 <= eps) & (eps < 1.0)):
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    rho, sigma = _mat(rho), _mat(sigma)
    weight = eps[..., None, None]
    mixed = (1.0 - weight) * rho + weight * sigma
    return eps - trace_distance(mixed, rho)
