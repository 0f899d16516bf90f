"""Desk-scale spectral verification of preconditioner quality.

Everything here assembles dense matrices, so every entry point is capped
(features at ``DENSE_CAP_P``, samples at ``TAU_CAP_N``) and raises
``DiagnosticCapError`` beyond the cap: these are verification instruments,
not production paths.

Conventions.  The curvature operator under study is the finite-sum part of
the Hessian, ``H = (1/n) sum_i d_i a_i a_i'`` — the same operator the
sketch sees, with the l2 term excluded.  Where the per-sample structure
matters (the curvature-dissimilarity functional), the l2 coefficient is
folded into each sample's Hessian so the objective remains an exact finite
sum of the regularized pieces; the strong-convexity constant is measured as
``lambda_min(H) + l2``, never assumed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .linalg import DiagnosticCapError, eigh_small, make_rng, top_eig_diag_plus_rank1
from .nystrom import NystromApprox
from .oracles import ProblemOracle
from .optimizers import OptimizerConfig, resolve_config, sketch_hessian

#: Dense diagnostics refuse feature dimensions beyond this.
DENSE_CAP_P = 2048
#: The per-sample dissimilarity scan refuses sample counts beyond this.
TAU_CAP_N = 20000

_CHUNK = 4096


def effective_dimension(eigenvalues: np.ndarray, beta: float) -> float:
    """Smoothed eigenvalue count ``sum_i lam_i / (lam_i + beta)``."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    return float(np.sum(eigenvalues / (eigenvalues + beta)))


def _check_caps(oracle: ProblemOracle, need_samples: bool = False) -> None:
    if oracle.p > DENSE_CAP_P:
        raise DiagnosticCapError(
            f"feature dimension {oracle.p} exceeds the dense diagnostic cap of {DENSE_CAP_P}"
        )
    if need_samples and oracle.n > TAU_CAP_N:
        raise DiagnosticCapError(
            f"sample count {oracle.n} exceeds the dissimilarity cap of {TAU_CAP_N}"
        )


def rho_dissimilarity(oracle: ProblemOracle, w: np.ndarray, rho: float) -> float:
    """Curvature dissimilarity across samples at regularization level rho.

    Returns the max over samples of the top eigenvalue of the
    rho-regularized per-sample Hessian conjugated by the inverse square root
    of the rho-regularized average Hessian.  The l2 coefficient is folded
    into every per-sample Hessian, so the average of the conjugated matrices
    is exactly the identity and the value is always at least 1.

    Each per-sample top eigenvalue is exact: the conjugated matrix is
    diagonal-plus-rank-one in the eigenbasis of the average, and its top
    eigenvalue solves a secular equation.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    _check_caps(oracle, need_samples=True)
    w = np.asarray(w, dtype=np.float64)
    shift = oracle.l2 + rho
    h_data = oracle.hessian_matrix(w)
    eigvals, eigvecs = eigh_small(h_data + shift * np.eye(oracle.p))
    # Conjugated per-sample matrix, in the eigenbasis of the average:
    # shift * diag(1/lam) + d_i * v_i v_i' with v_i = lam^{-1/2} U' a_i.
    base_diag = shift / eigvals
    inv_sqrt = eigvecs / np.sqrt(eigvals)[None, :]
    full = np.arange(oracle.n, dtype=np.int64)
    weights = oracle.curvature_weights(w, full)
    tau = 0.0
    for start in range(0, oracle.n, _CHUNK):
        stop = min(start + _CHUNK, oracle.n)
        rows = oracle.data.features[full[start:stop]]
        vecs = np.asarray(rows @ inv_sqrt)
        tops = top_eig_diag_plus_rank1(base_diag, weights[start:stop], vecs)
        tau = max(tau, float(np.max(tops)))
    return tau


def dissimilarity_upper_bound(oracle: ProblemOracle, w: np.ndarray, rho: float) -> float:
    """The worst-case bound ``min(n, (M + rho) / (mu + rho))``.

    ``M`` is the largest per-sample regularized curvature
    ``max_i d_i ||a_i||^2 + l2`` and ``mu = lambda_min(H) + l2`` is the
    measured strong-convexity constant.
    """
    _check_caps(oracle, need_samples=True)
    w = np.asarray(w, dtype=np.float64)
    full = np.arange(oracle.n, dtype=np.int64)
    weights = oracle.curvature_weights(w, full)
    m_w = float(np.max(weights * oracle.data.row_norms() ** 2)) + oracle.l2
    h_data = oracle.hessian_matrix(w)
    eigvals, _ = eigh_small(h_data)
    mu = float(eigvals[0]) + oracle.l2
    return min(float(oracle.n), (m_w + rho) / (mu + rho))


def _inv_sqrt_psd(matrix: np.ndarray) -> np.ndarray:
    """Dense symmetric inverse square root with an eigenvalue floor.

    The floor at 1e-14 of the top eigenvalue guards against roundoff on
    numerically singular inputs; it cannot bind for genuinely pd matrices.
    """
    eigvals, eigvecs = eigh_small(matrix)
    top = float(eigvals[-1])
    floored = np.maximum(eigvals, 1e-14 * max(top, np.finfo(np.float64).tiny))
    return (eigvecs / np.sqrt(floored)[None, :]) @ eigvecs.T


@dataclass
class SpectrumReport:
    """Before/after-preconditioning spectrum snapshot with certificates.

    ``eigs_raw`` and ``eigs_precond`` are descending; ``to_csv`` emits them
    normalized by their respective leading eigenvalue.  The sandwich fields
    certify the regularized conjugation ``P^{-1/2} (H + rho I) P^{-1/2}``:
    when the sketch was built on the full data, its spectrum provably lies
    in [1, 1 + ||E||/rho] with E the sketch residual.
    """

    context: dict
    eigs_raw: np.ndarray
    eigs_precond: np.ndarray
    lambda_min_sandwich: float
    lambda_max_sandwich: float
    residual_norm: float
    sandwich_upper: float
    kappa_raw: float
    kappa_precond: float
    kappa_certificate: float
    mu: float
    tau_rho: float | None = None
    d_eff: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        top_raw = float(self.eigs_raw[0]) if self.eigs_raw.size else 1.0
        top_pre = float(self.eigs_precond[0]) if self.eigs_precond.size else 1.0
        top_raw = top_raw if top_raw > 0 else 1.0
        top_pre = top_pre if top_pre > 0 else 1.0
        lines = ["index,eig_raw,eig_precond"]
        for i, (a, b) in enumerate(zip(self.eigs_raw, self.eigs_precond)):
            lines.append(f"{i},{repr(float(a / top_raw))},{repr(float(b / top_pre))}")
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        out = {
            "lambda_max": float(self.eigs_raw[0]) if self.eigs_raw.size else None,
            "lambda_min": float(self.eigs_raw[-1]) if self.eigs_raw.size else None,
            "lambda_max_precond": float(self.eigs_precond[0]) if self.eigs_precond.size else None,
            "lambda_min_precond": float(self.eigs_precond[-1]) if self.eigs_precond.size else None,
            "lambda_min_sandwich": self.lambda_min_sandwich,
            "lambda_max_sandwich": self.lambda_max_sandwich,
            "residual_norm": self.residual_norm,
            "sandwich_upper": self.sandwich_upper,
            "kappa": self.kappa_raw,
            "kappa_precond": self.kappa_precond,
            "kappa_certificate": self.kappa_certificate,
            "mu": self.mu,
            "tau_rho": self.tau_rho,
            "d_eff": {repr(float(k)): v for k, v in self.d_eff.items()},
            "context": self.context,
        }
        return out

    def to_json(self) -> str:
        return json.dumps(self.summary(), indent=2)


def _spectrum_pair(h: np.ndarray, nys: NystromApprox, rho: float):
    """Eigenvalues of H and of P^{-1/2} H P^{-1/2}, both descending."""
    eig_raw, _ = eigh_small(h)
    p_mat = nys.matrix() + rho * np.eye(h.shape[0])
    p_inv_sqrt = _inv_sqrt_psd(p_mat)
    conj = p_inv_sqrt @ h @ p_inv_sqrt
    eig_pre, _ = eigh_small(0.5 * (conj + conj.T))
    return eig_raw[::-1], eig_pre[::-1], p_inv_sqrt


def sandwich_check(
    oracle: ProblemOracle,
    w: np.ndarray,
    nys: NystromApprox,
    rho: float,
    top_m: int | None = None,
    compute_tau: bool = False,
    d_eff_betas: tuple = (),
) -> SpectrumReport:
    """Measure how tightly ``H_hat + rho I`` sandwiches the Hessian.

    Assembles the finite-sum Hessian densely, conjugates ``H + rho I`` by
    the inverse square root of the preconditioner, and reports the extreme
    eigenvalues together with the deterministic certificates from the
    full-batch case: ``1 <= lambda_min <= lambda_max <= 1 + ||E||/rho`` and
    an end-to-end preconditioned condition number at most
    ``(1 + rho/mu)(1 + ||E||/rho)``.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    _check_caps(oracle, need_samples=compute_tau)
    w = np.asarray(w, dtype=np.float64)
    h = oracle.hessian_matrix(w)
    if nys.batch is not None and len(nys.batch) < oracle.n:
        h_batch = oracle.hessian_matrix(w, nys.batch)
    else:
        h_batch = h

    eig_raw, eig_pre, p_inv_sqrt = _spectrum_pair(h, nys, rho)
    reg = p_inv_sqrt @ (h + rho * np.eye(oracle.p)) @ p_inv_sqrt
    eig_reg, _ = eigh_small(0.5 * (reg + reg.T))

    resid = h_batch - nys.matrix()
    resid_eigs, _ = eigh_small(0.5 * (resid + resid.T))
    residual_norm = float(np.max(np.abs(resid_eigs)))

    mu = float(eig_raw[-1]) + oracle.l2
    kappa_raw = float(eig_raw[0] / eig_raw[-1]) if eig_raw[-1] > 0 else float("inf")
    kappa_pre = float(eig_pre[0] / eig_pre[-1]) if eig_pre[-1] > 0 else float("inf")
    certificate = (1.0 + rho / mu) * (1.0 + residual_norm / rho) if mu > 0 else float("inf")

    m = len(eig_raw) if top_m is None else min(top_m, len(eig_raw))
    tau = rho_dissimilarity(oracle, w, rho) if compute_tau else None
    d_eff = {float(b): effective_dimension(eig_raw, float(b)) for b in d_eff_betas}
    return SpectrumReport(
        context={
            "p": oracle.p,
            "n": oracle.n,
            "task": oracle.task,
            "rho": rho,
            "rank": nys.rank,
            "hess_batch": int(len(nys.batch)) if nys.batch is not None else oracle.n,
            "l2": oracle.l2,
        },
        eigs_raw=eig_raw[:m],
        eigs_precond=eig_pre[:m],
        lambda_min_sandwich=float(eig_reg[0]),
        lambda_max_sandwich=float(eig_reg[-1]),
        residual_norm=residual_norm,
        sandwich_upper=1.0 + residual_norm / rho,
        kappa_raw=kappa_raw,
        kappa_precond=kappa_pre,
        kappa_certificate=certificate,
        mu=mu,
        tau_rho=tau,
        d_eff=d_eff,
    )


def conditioning_report(
    oracle: ProblemOracle,
    w: np.ndarray,
    config: OptimizerConfig | None = None,
    top_m: int = 500,
    compute_tau: bool = False,
    d_eff_betas: tuple = (),
) -> SpectrumReport:
    """Build a preconditioner per the config and report the conditioning shift.

    Draws the Hessian batch and sketch exactly as an optimizer run would
    (same seed discipline), then emits the top-``top_m`` eigenvalues of the
    Hessian before and after preconditioning plus the sandwich certificates.
    """
    cfg = resolve_config(config if config is not None else OptimizerConfig(), oracle)
    _check_caps(oracle, need_samples=compute_tau)
    w = np.asarray(w, dtype=np.float64)
    nys = sketch_hessian(oracle, cfg, w, make_rng(cfg.seed))
    return sandwich_check(
        oracle, w, nys, cfg.rho, top_m=top_m, compute_tau=compute_tau, d_eff_betas=d_eff_betas
    )
