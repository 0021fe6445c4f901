"""Spin states, coin operators, and the coin-position entanglement entropy kernel.

The reduced coin state of a walker is fully determined by two moments:
A = sum_j |a_j|^2 (up population) and B = sum_j a_j b_j* (coherence).  Its
eigenvalues are lambda_pm = 1/2 +- sqrt((A - 1/2)^2 + |B|^2), and the
entanglement entropy is the binary entropy of lambda_plus.  The characteristic
function delta = (lambda_plus - lambda_minus)^2 carries the same information;
delta = 0 means maximal entanglement, delta = 1 a separable (pure-coin) state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError

TWO_PI = 2.0 * math.pi

#: Tolerance for eigenvalue clamping: violations beyond this signal a real bug.
CLAMP_TOL = 1e-9

#: Tolerance of the unit checks |spin|^2 = 1 and C C^dagger = 1.
UNIT_TOL = 1e-12

#: The seven basis sums auu, aud, add, buu, bud, bdu, bdd of `spin_moments`, as
#: indices (y, s, r) of cross[y, s, r] = sum_j a_s conj(x_r), x = a (y = 0) or b (y = 1).
BASIS_SUMS = ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))


@dataclass(frozen=True)
class BlochAngles:
    """Polar (alpha) and azimuthal (beta) angles of a pure spin state.

    alpha must lie in [0, pi]; beta is canonicalized into [-pi, pi) by
    `_reduce_beta`, so inputs in [0, 2pi) or any real value are accepted.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= math.pi:
            raise DomainError(f"alpha must be in [0, pi], got {self.alpha}")
        object.__setattr__(self, "beta", float(_reduce_beta(float(self.beta))))


def _reduce_beta(beta):
    """Elementwise: beta in [-pi, pi) as it is (so the rule is idempotent),
    any other beta as (beta + pi) mod 2pi - pi."""
    beta = np.asarray(beta, dtype=float)
    with np.errstate(invalid="ignore"):  # an infinite beta gives NaN, as float % does
        wrapped = np.mod(beta + math.pi, TWO_PI) - math.pi
    return np.where((beta >= -math.pi) & (beta < math.pi), beta, wrapped)


@dataclass(frozen=True)
class Spinor:
    """A two-component complex amplitude (up, down)."""

    up: complex
    down: complex

    def norm_sq(self) -> float:
        return abs(self.up) ** 2 + abs(self.down) ** 2

    def is_normalized(self) -> bool:
        return abs(self.norm_sq() - 1.0) <= UNIT_TOL


def require_normalized(spin: Spinor) -> None:
    """DomainError unless `spin` is normalized."""
    if not spin.is_normalized():
        raise DomainError(f"spin must be normalized, |spin|^2 = {spin.norm_sq()}")


#: A coin operator is a 2x2 complex unitary matrix.
CoinOperator = NDArray[np.complex128]


@dataclass(frozen=True)
class CoinMoments:
    """The two moments (A, B) that determine the reduced coin state.

    Scalars for one state, or arrays over many states or times.  Physical
    moments satisfy 0 <= A <= 1 and |B|^2 <= A(1-A) (positivity and trace-1 of
    the reduced density operator).
    """

    A: float | NDArray[np.float64]
    B: complex | NDArray[np.complex128]


def as_time(value, name: str) -> int:
    """A time or step count `value` as an int >= 0, or DomainError naming `name`.

    Integral values (3, 3.0, numpy integers) are accepted as int; booleans,
    fractions, NaN, infinities and negative values are rejected, by the rule
    the CLI applies to its integer options.
    """
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, bool) or number != value or number < 0:
        raise DomainError(f"{name} must be an integer >= 0, got {value!r}")
    return number


def spin_amplitudes(alpha, beta):
    """Spin amplitudes (cos(alpha/2), e^{i beta} sin(alpha/2)), broadcast, complex.

    beta is reduced by BlochAngles' rule, so raw angles and their BlochAngles
    give the same amplitudes bit for bit.
    """
    half, beta = np.broadcast_arrays(np.divide(alpha, 2.0), _reduce_beta(beta))
    up = np.cos(half).astype(np.complex128)
    down = (np.cos(beta) + 1j * np.sin(beta)) * np.sin(half)
    return up, down


def spin_from_angles(angles: BlochAngles) -> Spinor:
    """The Spinor of `spin_amplitudes` at `angles`."""
    return Spinor(*(complex(x) for x in spin_amplitudes(angles.alpha, angles.beta)))


def hadamard_coin() -> CoinOperator:
    """The Hadamard coin (1/sqrt2) [[1, 1], [1, -1]]."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)


def fourier_coin() -> CoinOperator:
    """The Fourier (Kempe) coin (1/sqrt2) [[1, i], [i, 1]]."""
    return np.array([[1.0, 1j], [1j, 1.0]], dtype=np.complex128) / math.sqrt(2.0)


#: The named coins, as shared read-only matrices.
COINS = {name: np.frombuffer(make().tobytes(), dtype=np.complex128).reshape(2, 2)
         for name, make in (("hadamard", hadamard_coin), ("fourier", fourier_coin))}


def unitary_coin(coin) -> CoinOperator:
    """The one coin rule of both engines, `coin` as its 2x2 complex matrix: a name
    of `COINS` is its shared matrix; a finite 2x2 matrix with max |C C^dagger - 1|
    <= UNIT_TOL keeps its values; anything else raises DomainError."""
    if isinstance(coin, str) and coin in COINS:
        return COINS[coin]
    try:
        m = np.asarray(coin, dtype=np.complex128)
    except (TypeError, ValueError):  # another string, ragged or not numbers
        m = np.empty(0)
    # C C^dagger - 1 on Python complexes, 4x cheaper than numpy; NaN and inf fail it
    (a, b), (c, d) = m.tolist() if m.shape == (2, 2) else ((math.nan,) * 2,) * 2
    gaps = (abs(a) ** 2 + abs(b) ** 2 - 1.0, abs(c) ** 2 + abs(d) ** 2 - 1.0,
            a * c.conjugate() + b * d.conjugate())
    if not all(abs(x) <= UNIT_TOL for x in gaps):
        raise DomainError(f"coin must be {', '.join(map(repr, COINS))} or a finite unitary"
                          f" 2x2 matrix to {UNIT_TOL}")
    return m


def binary_entropy(lam):
    """Binary entropy -p log2 p - (1-p) log2 (1-p) in bits, with 0 log 0 = 0.

    Accepts a float or an ndarray of eigenvalues in [0, 1].
    """
    lam = np.asarray(lam, dtype=float)
    lam = np.clip(lam, 0.0, 1.0)
    q = 1.0 - lam
    # log2 is evaluated only where its argument is positive; the zero-filled
    # out= arrays make the skipped entries defined (0 log 0 = 0).
    log_lam = np.log2(lam, out=np.zeros_like(lam), where=lam > 0.0)
    log_q = np.log2(q, out=np.zeros_like(q), where=q > 0.0)
    # The skipped logs are 0, so each product is already 0 where its factor is.
    h = lam * log_lam
    h += q * log_q
    h = 0.0 - h  # -h, with -0.0 normalized to 0.0
    if h.ndim == 0:
        return float(h)
    return h


def spin_moments(sums, up, down):
    """Moments (A, B) of the initial spin (up, down) from the seven basis sums.

    The walk is linear in the initial spin, so the moments are a quadratic form
    in its amplitudes.  `sums` = (auu, aud, add, buu, bud, bdu, bdd) are the
    cross sums of the walks from spin up (u) and spin down (d): with a_s, b_s
    the up and down amplitudes of the walk from spin s, a_sr = sum_j a_s a_r*
    and b_sr = sum_j a_s b_r*.  They may be taken at one time, at several (a
    trailing time axis), or averaged over time:
        A = auu |up|^2 + add |down|^2 + 2 Re(aud up down*)
        B = buu |up|^2 + bdd |down|^2 + bud up down* + bdu up* down
    Scalars give scalars; arrays broadcast against each other and the sums.
    """
    auu, aud, add, buu, bud, bdu, bdd = sums
    # builtin abs: on a Python complex np.abs can differ in the last bit
    pu = abs(up) ** 2
    pd = abs(down) ** 2
    cross = up * np.conj(down)
    a = (auu * pu + add * pd).real + 2.0 * (aud * cross).real
    b = buu * pu + bdd * pd + bud * cross + bdu * np.conj(cross)
    return a, b


def _radius_sq(a, b):
    """(A - 1/2)^2 + |B|^2, the squared half-gap of the coin eigenvalues.

    Squared by np.square, which multiplies, for scalars and arrays alike: `** 2`
    on a scalar calls the C library's pow(), which is not correctly rounded for
    every input, so the same moments would differ as a scalar and in an array.
    """
    return np.square(a - 0.5) + np.square(np.abs(b))


def entropy_from_moments(m: CoinMoments):
    """Entanglement entropy of the reduced coin state with moments (A, B), scalars
    or arrays: `entropy_from_delta` of delta = 4((A - 1/2)^2 + |B|^2), so
    inconsistent (delta > 1 + CLAMP_TOL) or non-finite moments raise DomainError.
    """
    return entropy_from_delta(4.0 * _radius_sq(np.real(m.A), m.B))


def _clamped_delta(delta):
    """delta clamped to [0, 1]; an excursion beyond CLAMP_TOL, or NaN, raises DomainError."""
    delta = np.asarray(delta, dtype=float)
    # written so that NaN fails it: every comparison with NaN is False
    if not np.all((delta >= -CLAMP_TOL) & (delta <= 1.0 + CLAMP_TOL)):
        raise DomainError(
            f"delta must lie in [0, 1], got values in [{np.min(delta)}, {np.max(delta)}]"
        )
    return np.clip(delta, 0.0, 1.0)


def entropy_from_delta(delta):
    """Asymptotic entanglement entropy from the characteristic function delta.

    lambda_pm = (1 +- sqrt(delta))/2.  delta may be a scalar (a float is
    returned) or an array (an array is); it is checked and clamped as in
    `delta_from_moments`.
    """
    return binary_entropy((1.0 + np.sqrt(_clamped_delta(delta))) / 2.0)


def delta_from_moments(m: CoinMoments) -> float:
    """Characteristic function delta = (lambda_plus - lambda_minus)^2 of scalar moments.

    Algebraically 1 - 4[A(1-A) - |B|^2], so delta <= 1 for physical moments.
    It is clamped to [0, 1]; an excursion beyond CLAMP_TOL (unphysical
    moments) or a NaN raises DomainError.
    """
    return float(_clamped_delta(4.0 * _radius_sq(float(m.A), m.B)))
