"""Gaussian-state algebra: states, channels, general-dyne conditioning, Williamson form.

Conventions (used consistently across the package): hbar = 2, vacuum
covariance = identity, quadrature ordering ``q1, p1, ..., qK, pK``, and
``<q> = 2 Re <a>`` so complex mode amplitudes are ``alpha = (q + i p) / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from . import _check_inputs

__all__ = [
    "GaussianState",
    "ChannelParams",
    "SymplecticDecomposition",
    "symplectic_form",
    "tmsv",
    "apply_channel",
    "condition_on_generaldyne",
    "williamson",
]


def symplectic_form(num_modes: int) -> np.ndarray:
    """Symplectic form Omega = direct sum of [[0, 1], [-1, 0]] blocks."""
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(num_modes), j2)


def _quad_indices(modes: Sequence[int]) -> np.ndarray:
    out = []
    for m in modes:
        out.extend((2 * m, 2 * m + 1))
    return np.asarray(out, dtype=int)


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state of ``num_modes`` modes.

    Parameters
    ----------
    num_modes : int
    mean : array of length 2K, quadrature ordering q1, p1, ..., qK, pK.
    cov : real symmetric 2K x 2K covariance (vacuum = identity).
    """

    num_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        k = int(self.num_modes)
        if k < 1:
            raise ValueError("num_modes must be positive")
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.array(self.cov, dtype=float)
        if mean.shape != (2 * k,):
            raise ValueError(f"mean must have length {2 * k}, got {mean.shape}")
        if cov.shape != (2 * k, 2 * k):
            raise ValueError(f"cov must be {2 * k}x{2 * k}, got {cov.shape}")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if np.max(np.abs(cov - cov.T)) > 1e-12 * scale:
            raise ValueError("cov must be symmetric")
        cov = 0.5 * (cov + cov.T)
        omega = symplectic_form(k)
        uncertainty = np.linalg.eigvalsh(cov + 1j * omega)
        if np.min(uncertainty) < -1e-9 * scale:
            raise ValueError(
                "cov violates the uncertainty relation "
                f"(min eig of V + i Omega = {np.min(uncertainty):.3e})"
            )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "num_modes", k)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def complex_means(self) -> np.ndarray:
        """Mode amplitudes ``alpha_k = (<q_k> + i <p_k>) / 2``."""
        return (self.mean[0::2] + 1j * self.mean[1::2]) / 2.0


@dataclass(frozen=True)
class ChannelParams:
    """Phase-rotating lossy thermal channel a_R = e^{i theta} sqrt(kappa) a_S + sqrt(1-kappa) a_B.

    ``n_b`` is the added noise photon number; the thermal environment has
    mean photon number ``n_b / (1 - kappa)`` so the return-mode noise term is
    ``2 n_b + 1`` independent of kappa.
    """

    kappa: float
    theta: float = 0.0
    n_b: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError("kappa must lie in [0, 1]")
        _check_inputs(n_b=self.n_b)
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")


@dataclass(frozen=True)
class SymplecticDecomposition:
    """Result of :func:`williamson`: ``V = S (diag(nu) ⊗ I2) S^T`` with S symplectic."""

    s_matrix: np.ndarray
    spectrum: np.ndarray

    def __post_init__(self) -> None:
        s = np.array(self.s_matrix, dtype=float)
        nu = np.array(self.spectrum, dtype=float).reshape(-1)
        if s.shape != (2 * nu.size, 2 * nu.size):
            raise ValueError("s_matrix shape inconsistent with spectrum length")
        s.setflags(write=False)
        nu.setflags(write=False)
        object.__setattr__(self, "s_matrix", s)
        object.__setattr__(self, "spectrum", nu)

    def reconstruct(self) -> np.ndarray:
        d = np.repeat(self.spectrum, 2)
        return self.s_matrix @ np.diag(d) @ self.s_matrix.T


def tmsv(n_s: float) -> GaussianState:
    """Two-mode squeezed vacuum with ``n_s`` photons per mode.

    Zero mean; covariance has diagonal blocks ``(2 n_s + 1) I`` and
    off-diagonal blocks ``2 sqrt(n_s (n_s + 1)) Z``.
    """
    _check_inputs(n_s=n_s)
    z = np.diag([1.0, -1.0])
    eye = np.eye(2)
    c = 2.0 * math.sqrt(n_s * (n_s + 1.0))
    cov = np.block([[(2 * n_s + 1) * eye, c * z], [c * z, (2 * n_s + 1) * eye]])
    return GaussianState(2, np.zeros(4), cov)


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def apply_channel(
    state: GaussianState, mode_index: int, ch: ChannelParams
) -> GaussianState:
    """Send one mode of ``state`` through the lossy thermal phase channel.

    The selected mode's amplitude maps to ``e^{i theta} sqrt(kappa) alpha``;
    the environment contributes additive covariance ``(1 - kappa + 2 n_b) I``
    on that mode (no extra environment mode is instantiated).
    """
    if not 0 <= mode_index < state.num_modes:
        raise ValueError("mode_index out of range")
    if ch.kappa == 1.0 and ch.n_b > 0.0:
        raise ValueError(
            "kappa = 1 with n_b > 0 is rejected: the thermal environment "
            "photon number n_b / (1 - kappa) diverges"
        )
    k2 = 2 * state.num_modes
    x = np.eye(k2)
    sl = slice(2 * mode_index, 2 * mode_index + 2)
    x[sl, sl] = math.sqrt(ch.kappa) * _rotation(ch.theta)
    mean = x @ state.mean
    cov = x @ state.cov @ x.T
    cov[sl, sl] += (1.0 - ch.kappa + 2.0 * ch.n_b) * np.eye(2)
    return GaussianState(state.num_modes, mean, cov)


def _partition(
    state: GaussianState, measured_modes: Iterable[int]
) -> tuple[np.ndarray, np.ndarray]:
    measured = sorted(set(int(m) for m in measured_modes))
    if not measured:
        raise ValueError("measured_modes must not be empty")
    if measured[0] < 0 or measured[-1] >= state.num_modes:
        raise ValueError("measured_modes out of range")
    kept = [m for m in range(state.num_modes) if m not in measured]
    return _quad_indices(kept), _quad_indices(measured)


def condition_on_generaldyne(
    state: GaussianState,
    measured_modes: Iterable[int],
    meas_cov,
    outcome,
) -> GaussianState:
    """Conditional state of the unmeasured modes after a general-dyne outcome.

    Implements
    ``V_A' = V_A - V_AB (V_B + V_Pi)^{-1} V_AB^T`` and
    ``x_A' = x_A + V_AB (V_B + V_Pi)^{-1} (x_Pi - x_B)``,
    where ``V_Pi = meas_cov`` (identity for heterodyne) and ``x_Pi`` is the
    outcome in quadrature units.
    """
    idx_a, idx_b = _partition(state, measured_modes)
    if idx_a.size == 0:
        raise ValueError("at least one mode must remain unmeasured")
    v_pi = np.asarray(meas_cov, dtype=float)
    if v_pi.shape != (idx_b.size, idx_b.size):
        raise ValueError(f"meas_cov must be {idx_b.size}x{idx_b.size}")
    outcome = np.asarray(outcome, dtype=float).reshape(-1)
    if outcome.shape != (idx_b.size,):
        raise ValueError(f"outcome must have length {idx_b.size}")
    try:
        cho = scipy.linalg.cho_factor(state.cov[np.ix_(idx_b, idx_b)] + v_pi)
    except np.linalg.LinAlgError as exc:
        raise ValueError("V_B + meas_cov is singular") from exc
    v_a = state.cov[np.ix_(idx_a, idx_a)]
    v_ab = state.cov[np.ix_(idx_a, idx_b)]
    gain = scipy.linalg.cho_solve(cho, v_ab.T).T
    cov = v_a - gain @ v_ab.T
    mean = state.mean[idx_a] + gain @ (outcome - state.mean[idx_b])
    return GaussianState(idx_a.size // 2, mean, 0.5 * (cov + cov.T))


def williamson(cov: np.ndarray) -> SymplecticDecomposition:
    """Williamson normal form of a positive-definite covariance matrix.

    Uses the Cholesky factor ``V = L L^T`` and the real Schur form of the
    antisymmetric ``L^T Omega L`` to build ``S = L O (diag(nu)^{-1/2} ⊗ I2)``
    with ``V = S (diag(nu) ⊗ I2) S^T`` and ``S Omega S^T = Omega``.
    """
    v = np.asarray(cov, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] % 2:
        raise ValueError("cov must be a 2K x 2K matrix")
    scale = max(1.0, float(np.max(np.abs(v))))
    if np.max(np.abs(v - v.T)) > 1e-10 * scale:
        raise ValueError("cov must be symmetric")
    v = 0.5 * (v + v.T)
    k = v.shape[0] // 2
    try:
        ell = np.linalg.cholesky(v)
    except np.linalg.LinAlgError as exc:
        raise ValueError("cov must be positive definite") from exc
    omega = symplectic_form(k)
    a = ell.T @ omega @ ell
    a = 0.5 * (a - a.T)  # enforce antisymmetry against roundoff
    t, o = scipy.linalg.schur(a, output="real")
    # Canonical block orientation: positive upper-right entries.
    for j in range(k):
        i = 2 * j
        if t[i, i + 1] < 0:
            o[:, [i, i + 1]] = o[:, [i + 1, i]]
            t[[i, i + 1], :] = t[[i + 1, i], :]
            t[:, [i, i + 1]] = t[:, [i + 1, i]]
    nu = np.array([t[2 * j, 2 * j + 1] for j in range(k)])
    # Deterministic ordering: ascending symplectic eigenvalues.
    order = np.argsort(nu)
    perm = _quad_indices(order)
    nu = nu[order]
    o = o[:, perm]
    if np.min(nu) < 1.0 - 1e-9 * scale:
        raise ValueError(
            f"symplectic spectrum below 1 (min {np.min(nu):.12g}); "
            "input is not a physical covariance"
        )
    s = ell @ o @ np.diag(np.repeat(1.0 / np.sqrt(nu), 2))
    return SymplecticDecomposition(s, nu)
