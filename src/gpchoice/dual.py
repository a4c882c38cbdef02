"""Dual program of a standard-form GP: linear equality system and objective.

The dual associates one nonnegative weight with every primal term.  Weights of
the objective block must sum to one (normality); for every variable the
exponent-weighted sum over all terms, objective block included, must vanish
(orthogonality).  The dual objective is

    prod_k (c_k / w_k)^(w_k) * prod_i lambda_i^(lambda_i)

with c_k the standardized term coefficients and lambda_i the weight sum of
constraint block i.  Factors with w_k = 0 or lambda_i = 0 take their
continuous limit, one.

Each DualProgram stores its terms alone and derives its equality system,
block layout and solver start from them once; the kernels use the layout to
treat all blocks at once.  The log dual, its gradient and the full Hessian
add in the order of a block-by-block loop; the Hessian on a basis B is
assembled from B's sums over each block, without the full matrix.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

import numpy as np

from .posynomial import GpDomainError, StandardGp


# scatter and starts: slots of the weights and of a 0 before each block;
# member: (m, K), 1.0 where term k lies in constraint block i + 1
_Layout = namedtuple("_Layout", "scatter starts member")
# A, b and (T_0, T_1, ..., T_m) of the dual's equalities A w = b
_Equalities = namedtuple("_Equalities", "matrix rhs block_sizes")


def _equality_system(exponents: np.ndarray, block_index: np.ndarray) -> _Equalities:
    """A w = b: the normality row over the objective block on top of one
    orthogonality row per variable, objective included; b = e1."""
    k, n = exponents.shape
    matrix = np.zeros((n + 1, k))
    matrix[0, block_index == 0] = 1.0
    matrix[1:, :] = exponents.T
    rhs = np.zeros(n + 1)
    rhs[0] = 1.0
    matrix.flags.writeable = rhs.flags.writeable = False
    return _Equalities(matrix, rhs, tuple(np.bincount(block_index).tolist()))


@dataclass(frozen=True)
class DualProgram:
    """Flattened dual data: one entry per primal term, objective block first.

    Only the terms are stored; ``equality_matrix @ w = equality_rhs`` and
    ``block_sizes``, read-only, are derived from them by _equality_system.
    """

    term_coefficients: np.ndarray  # (K,), strictly positive
    block_index: np.ndarray  # (K,), 0 for objective, i for constraint i
    exponent_matrix: np.ndarray  # (K, n)

    def __post_init__(self):
        for arr in (self.term_coefficients, self.block_index, self.exponent_matrix):
            arr.flags.writeable = False

    @cached_property
    def _equalities(self) -> _Equalities:
        return _equality_system(self.exponent_matrix, self.block_index)

    equality_matrix = property(attrgetter("_equalities.matrix"))  # (n + 1, K)
    equality_rhs = property(attrgetter("_equalities.rhs"))  # (n + 1,)
    block_sizes = property(attrgetter("_equalities.block_sizes"))  # (T_0, ..., T_m)

    @property
    def term_count(self) -> int:
        return self.term_coefficients.shape[0]

    @property
    def variable_count(self) -> int:
        return self.exponent_matrix.shape[1]

    @property
    def constraint_count(self) -> int:
        return len(self.block_sizes) - 1

    @cached_property
    def _layout(self) -> _Layout:
        offsets = np.cumsum((0, *self.block_sizes[:-1]))
        block = self.block_index
        layout = _Layout(
            scatter=np.arange(block.size) + block + 1,
            starts=offsets + np.arange(len(self.block_sizes)),
            member=(block == np.arange(1, len(self.block_sizes))[:, None]) * 1.0,
        )
        for arr in layout:
            arr.flags.writeable = False
        return layout

    @cached_property
    def _start(self):
        """The start point and null space of the equality system, read-only
        (solver._equality_start): every solve of this program reads them."""
        from .solver import _equality_start  # solver imports dual

        return _equality_start(self)

    def weight_labels(self) -> tuple[str, ...]:
        """Labels w{block}{term}, objective block first, 1-based term index."""
        labels = []
        for i, size in enumerate(self.block_sizes):
            labels.extend(f"w{i}{t + 1}" for t in range(size))
        return tuple(labels)


def build_dual(s: StandardGp) -> DualProgram:
    """Assemble the dual weight program of a standard-form GP; raises
    GpDomainError on a term coefficient that is not finite and positive, on
    a term whose exponents are not one per variable, and on an exponent
    that is not finite."""
    coeffs: list[float] = []
    blocks: list[int] = []
    exps: list[tuple[float, ...]] = []
    for i, posy in enumerate((s.objective, *s.constraints)):
        if not posy.term_count:
            where = f"constraint {i - 1}" if i else "objective"
            raise GpDomainError(f"{where} has no terms")
        for term in posy.terms:
            if not 0.0 < term.coefficient < math.inf:
                raise GpDomainError(f"term {len(coeffs)}: coefficient {term.coefficient!r} "
                                    "is not finite and positive")
            if len(term.exponents) != s.variable_count:
                raise GpDomainError(f"term {len(coeffs)}: {len(term.exponents)} exponents "
                                    f"for {s.variable_count} variables")
            coeffs.append(term.coefficient)
            blocks.append(i)
            exps.append(term.exponents)
    exponents = np.array(exps, dtype=float)
    finite = np.isfinite(exponents)
    if not finite.all():
        k = int(finite.all(axis=1).argmin())
        raise GpDomainError(f"term {k}: exponents {exps[k]!r} are not all finite")
    return DualProgram(
        term_coefficients=np.array(coeffs, dtype=float),
        block_index=np.array(blocks, dtype=int),
        exponent_matrix=exponents,
    )


def _check_weights(d: DualProgram, w, *batch: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (*batch, d.term_count):
        raise GpDomainError(
            f"weight vector has shape {w.shape}, expected {(*batch, d.term_count)}"
        )
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise GpDomainError("weights must be finite and nonnegative")
    return w


def _block_sums(d: DualProgram, w: np.ndarray) -> np.ndarray:
    """Block weight sums, objective first, in w[block].sum()'s order, per row."""
    lay = d._layout
    buf = np.zeros((*w.shape[:-1], lay.scatter.size + lay.starts.size))
    buf[..., lay.scatter] = w
    # reduceat alone adds w0 + (w1 + w2); from a 0 it adds as sum() does
    return np.add.reduceat(buf, lay.starts, axis=-1)


def block_lambdas(d: DualProgram, w) -> np.ndarray:
    """Per-constraint-block weight sums lambda_i, i = 1..m (per row of a stack)."""
    return _block_sums(d, np.asarray(w, dtype=float))[..., 1:]


def log_dual_objective(d: DualProgram, w) -> tuple[float, np.ndarray]:
    """Log of the dual objective and its gradient.

    Value uses the convention 0*log(0) = 0.  Gradient components are
    log(c_k) - log(w_k) - 1 on the objective block and
    log(c_k) - log(w_k) + log(lambda_i) on constraint block i; they diverge
    to +inf as w_k -> 0.
    """
    value, grad = _log_dual_objective(d, _check_weights(d, w))[:2]
    return float(value), grad


def _log_dual_objective(
    d: DualProgram, w: np.ndarray, log_c: np.ndarray | None = None
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """log_dual_objective, log w and the block sums, on checked weights; on
    a (B, K) stack w, with log_c per row, each row bit for bit as alone."""
    log_c = np.log(d.term_coefficients) if log_c is None else log_c
    pos = w > 0.0
    if np.count_nonzero(pos) == pos.size:
        return _positive_log_dual(d, w, log_c)
    if w.ndim > 1:  # zero weights compact each row apart
        log_c = np.broadcast_to(log_c, w.shape)
        rows = zip(*map(_log_dual_objective, [d] * len(w), w, log_c))
        return tuple(np.array(x) for x in rows)
    # 0 log 0 = 0: zero weights and emptied blocks add nothing
    lam = _block_sums(d, w)
    with np.errstate(divide="ignore"):
        logw, log_lam = np.log(w), np.log(lam)
    ratio = log_c - logw
    live = lam > 0.0
    terms = np.zeros_like(lam)
    terms[live] = lam[live] * log_lam[live]
    log_lam[~live] = np.inf  # an emptied block's gradient is +inf
    return _assembled(d, np.add.reduce(w[pos] * ratio[pos]), terms, ratio, logw, log_lam, lam)


def _positive_log_dual(d: DualProgram, w: np.ndarray, log_c: np.ndarray) -> tuple:
    """_log_dual_objective where every weight is positive, none nan, which
    it does not check: the kernel of the fast pass, whose weights keep a floor."""
    lam = _block_sums(d, w)
    logw, log_lam = np.log(w), np.log(lam)
    ratio = log_c - logw
    return _assembled(d, np.add.reduce(w * ratio, axis=-1), lam * log_lam, ratio, logw,
                      log_lam, lam)


def _assembled(d: DualProgram, value, terms, ratio, logw, log_lam, lam) -> tuple:
    """_log_dual_objective's result from the weight part of the value, the
    blocks' lam log lam (terms, overwritten) and ratio = log c - log w."""
    # add each constraint block's term to value in turn, as accumulate does
    terms[..., 0] = value
    value = np.add.accumulate(terms, axis=-1).T[-1]
    # constraint terms add log lambda + 1, objective terms an exact 0.0
    shift = log_lam + 1.0
    shift[..., 0] = 0.0
    grad = ratio - 1.0 + shift.take(d.block_index, axis=-1)
    return value, grad, logw, lam


def _reduced_hessian(
    basis: np.ndarray, basis_sums: np.ndarray, lam: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """B^T H B for the Hessian H of the log dual.

    H is sum_i s_i s_i^T / lambda_i - diag(1 / w), with s_i the indicator of
    constraint block i; basis_sums = member @ B stacks the s_i^T B, and lam
    holds the block sums, objective first.  At B = I only exact zeros join
    each entry's one term, so the result is the entrywise formula bit for bit.
    lam and w may stack rows along a leading axis, one reduced Hessian each,
    and so may basis and basis_sums, one basis per row.
    """
    sums = (basis_sums.mT / lam[..., None, 1:]) @ basis_sums
    return sums - (basis.mT * (1.0 / w)[..., None, :]) @ basis
