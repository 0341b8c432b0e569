"""Matrix exponential via truncated Taylor series or diagonal Pade approximants.

Both methods share one scaling-and-squaring wrapper: when the 1-norm of the
argument exceeds ``scaling_threshold`` the matrix is divided by a power of
two, the series / rational approximant is evaluated there, and the result is
squared back up.  Pass ``scaling_threshold=math.inf`` to evaluate the raw
approximant.  The Pade step inverts Q(A) once: the inverse gives the 1-norm
condition it checks and the solution X = Q(A)^-1 P(A).  The empty matrix is its
own exponential; a 1-norm too large to scale and an overflowed result raise
``NonFiniteInput``.

No attention variant calls this module (``tensor_expm`` goes through ``eigh``);
it serves the exponential identities of ``verify``, the tests and the demos.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .dense import as_square, finite_result
from .errors import NonFiniteInput, SingularDenominator

DEFAULT_SCALING_THRESHOLD = 0.5
_CONDITION_LIMIT = 1e12


def _one_norm(a: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(a), axis=0)))


def _squarings(norm1: float, threshold: float) -> int:
    if norm1 <= threshold or not math.isfinite(threshold):
        return 0
    log_ratio = math.log2(norm1 / threshold)  # inf when the norm or the ratio overflows
    if log_ratio > 1023:  # s would reach 1024, and 2.0 ** 1024 overflows
        raise NonFiniteInput(f"1-norm {norm1:.3e} is too large to scale", stage="expm scaling")
    return max(0, math.ceil(log_ratio))


def pade_coefficients(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending numerator/denominator coefficients of the degree-(m, n) approximant of exp.

    Obtained by matching the exponential's Taylor series through order m + n,
    which fixes p_j = (m+n-j)! m! / ((m+n)! j! (m-j)!) and the mirrored,
    sign-alternating q_j.  The arrays are fresh; the caller may modify them.
    """
    if m < 1 or n < 1:
        raise ValueError("pade degrees must be >= 1")
    fact = math.factorial
    total = fact(m + n)
    p = [Fraction(fact(m + n - j) * fact(m), total * fact(j) * fact(m - j)) for j in range(m + 1)]
    q = [
        (-1) ** j * Fraction(fact(m + n - j) * fact(n), total * fact(j) * fact(n - j))
        for j in range(n + 1)
    ]
    return np.array([float(c) for c in p]), np.array([float(c) for c in q])


def _polyval_matrix(coeffs: np.ndarray, a: np.ndarray) -> np.ndarray:
    # Horner scheme on the matrix argument, coefficients in ascending order.
    eye = np.eye(a.shape[0], dtype=a.dtype)
    acc = coeffs[-1] * eye
    for c in coeffs[-2::-1]:
        acc = acc @ a + c * eye
    return acc


def _scaled_and_squared(a: np.ndarray, scaling_threshold: float, approximant) -> np.ndarray:
    """approximant(A / 2^s) squared s times; s halvings bring A's 1-norm to the threshold."""
    if not scaling_threshold > 0:
        raise ValueError("scaling_threshold must be positive")
    if not a.size:
        return a.copy()
    with np.errstate(over="ignore"):  # an overflowed norm is reported below
        s = _squarings(_one_norm(a), scaling_threshold)
    out = approximant(a / (2.0**s))
    with np.errstate(over="ignore", invalid="ignore"):  # finite_result reports overflow
        for _ in range(s):
            out = out @ out
    return finite_result(out, "matrix exponential")


def expm_taylor(
    a,
    terms: int = 30,
    scaling_threshold: float = DEFAULT_SCALING_THRESHOLD,
) -> np.ndarray:
    """sum_{k=0}^{terms} A^k / k!, with scaling-and-squaring."""
    a = as_square(a, "a")
    if terms < 1:
        raise ValueError("terms must be >= 1")

    def series(x):
        eye = np.eye(x.shape[0], dtype=x.dtype)
        acc = eye.copy()
        term = eye
        for k in range(1, terms + 1):
            term = term @ x / k
            acc = acc + term
        return acc

    return _scaled_and_squared(a, scaling_threshold, series)


def expm_pade(
    a,
    m: int = 6,
    n: int = 6,
    scaling_threshold: float = DEFAULT_SCALING_THRESHOLD,
) -> np.ndarray:
    """X = Q(A)^-1 P(A) for the degree-(m, n) approximant, with scaling-and-squaring."""
    a = as_square(a, "a")
    p_coeffs, q_coeffs = pade_coefficients(m, n)

    def rational(x):
        p_mat = _polyval_matrix(p_coeffs, x)
        q_mat = _polyval_matrix(q_coeffs, x)
        try:  # one inverse gives both the 1-norm condition, as np.linalg.cond computes it, and X
            inverse = np.linalg.inv(q_mat)
            condition = _one_norm(q_mat) * _one_norm(inverse)
        except np.linalg.LinAlgError:
            condition = math.inf
        if not condition <= _CONDITION_LIMIT:
            if math.isnan(condition) and not np.isnan(q_mat).any():  # as np.linalg.cond reports it
                condition = math.inf
            raise SingularDenominator(
                f"denominator condition estimate {condition:.3e} exceeds {_CONDITION_LIMIT:.0e}",
                condition=condition, limit=_CONDITION_LIMIT,
            )
        return inverse @ p_mat

    return _scaled_and_squared(a, scaling_threshold, rational)
