"""Spin states, coin operators, and the coin-position entanglement entropy kernel.

The reduced coin state of a walker is fully determined by two moments:
A = sum_j |a_j|^2 (up population) and B = sum_j a_j b_j* (coherence).  Its
eigenvalues are lambda_pm = 1/2 +- sqrt((A - 1/2)^2 + |B|^2), and the
entanglement entropy is the binary entropy of lambda_plus.  The characteristic
function delta = (lambda_plus - lambda_minus)^2 carries the same information;
delta = 0 means maximal entanglement, delta = 1 a separable (pure-coin) state.

The walk followed by the trace over position is a qubit channel: an initial
spin with Bloch vector n leaves the coin with Bloch vector r = P n + q, where
r_z = 2A - 1 and r_x - i r_y = 2B (Nielsen & Chuang, Quantum Computation and
Quantum Information, Sec. 8.3).  The seven basis sums fix the real 3x3 P and
the 3-vector q (`bloch_map`), so delta = |r|^2 = |P n + q|^2 is a quadratic
form in (n_x, n_y, n_z, 1) with ten coefficients (`delta_form`), read against
the ten monomials of a spin's Bloch vector (`bloch_monomials`) by `delta_at`.
"""

from __future__ import annotations

import math
import numbers
import sys
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

    Each is one number (a 0-d array is one; an array of them, or a ragged
    sequence, raises DomainError); alpha lies in [0, pi] and beta is finite
    (`check_angles`); beta is canonicalized into [-pi, pi) by `_reduce_beta`,
    so any finite beta is accepted.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name, angle in (("alpha", self.alpha), ("beta", self.beta)):
            if _as_array(angle).ndim != 0:
                raise DomainError(f"{name} must be one angle, got {angle!r}")
        check_angles(self.alpha, self.beta)
        object.__setattr__(self, "beta", float(_reduce_beta(float(self.beta))))


def _as_array(x) -> np.ndarray:
    """np.asarray(x); a ragged sequence, which numpy refuses to read as an
    array, is read as one object, which every rule on numbers refuses."""
    try:
        return np.asarray(x)
    except ValueError:
        return np.array(None, dtype=object)


def _reduce_beta(beta):
    """Elementwise: a finite beta in [-pi, pi) as it is (so the rule is
    idempotent), any other as (beta + pi) mod 2pi - pi."""
    beta = np.asarray(beta, dtype=float)
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
    """DomainError unless `spin` is a Spinor of two numbers, real or complex
    (Python or numpy scalars, or 0-d arrays; no bool, string, array of them
    or ragged sequence), with |spin|^2 = 1 to UNIT_TOL."""
    if not isinstance(spin, Spinor) or not all(
            (a := _as_array(x)).ndim == 0 and a.dtype.kind in "iufc" for x in (spin.up, spin.down)):
        raise DomainError(f"spin must be a Spinor of two numbers, got {spin!r}")
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


def as_positive(value, name: str):
    """A sigma0 or grid step `value`, a real > 0 and at most the largest double
    (no bool, and no int a double cannot hold), as it is; else DomainError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf
            or isinstance(value, int) and value > sys.float_info.max):
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")
    return value


def check_angles(alpha, beta) -> None:
    """DomainError unless every alpha is in [0, pi] and every beta finite, each read on its own."""
    a, b = _as_array(alpha), _as_array(beta)
    if a.dtype.kind not in "iuf" or not np.all((a >= 0.0) & (a <= math.pi)):
        raise DomainError(f"alpha must be in [0, pi], got {alpha!r}")
    if b.dtype.kind not in "iuf" or not np.all(np.isfinite(b)):
        raise DomainError(f"beta must be finite, got {beta!r}")


def spin_amplitudes(alpha, beta):
    """Spin amplitudes (cos(alpha/2), e^{i beta} sin(alpha/2)), broadcast, complex.

    The angles are BlochAngles' (`check_angles`, `_reduce_beta`), so raw angles
    and their BlochAngles give the same amplitudes bit for bit.
    """
    check_angles(alpha, beta)
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

    Accepts a float or an ndarray of eigenvalues in [0, 1], clipped to it; a
    value beyond it by more than CLAMP_TOL (+-inf among them), or a bool,
    string, complex or object value, raises DomainError, and NaN propagates.
    """
    return _fresh_buffers(_checked_binary_entropy_into, lam, "lam")


def _checked_binary_entropy_into(lam, out, work) -> None:
    """`_binary_entropy_into` of eigenvalues checked to lie in [0, 1] to
    CLAMP_TOL; every comparison with NaN is False, so NaN passes."""
    if np.any((lam < -CLAMP_TOL) | (lam > 1.0 + CLAMP_TOL)):
        raise DomainError(f"lam must lie in [0, 1], got values in "
                          f"[{np.nanmin(lam)}, {np.nanmax(lam)}]")
    _binary_entropy_into(lam, out, work)


def _fresh_buffers(kernel, x, name: str):
    """kernel(x, out, work) on a float copy of x and new buffers (`_new_buffers`).
    x must hold real numbers: a bool, string, complex or object value, or a
    ragged sequence, raises DomainError naming `name`."""
    if _as_array(x).dtype.kind not in "iuf":
        raise DomainError(f"{name} must be real numbers, got {x!r}")
    return _new_buffers(kernel, np.array(x, dtype=float))  # a copy: the kernel overwrites it


def _new_buffers(kernel, x):
    """kernel(x, out, work) with new out and work buffers of the float array x's
    shape, which the kernel may overwrite: a float for a 0-d x, else out."""
    out = np.empty_like(x)
    kernel(x, out, np.empty_like(x))
    if out.ndim == 0:
        return float(out)
    return out


def _binary_entropy_into(lam, out, work) -> None:
    """`binary_entropy` of the float array lam into out, with no temporaries
    beyond two masks; lam is clipped to [0, 1] and then overwritten, and work,
    of lam's shape, is scratch."""
    np.clip(lam, 0.0, 1.0, out=lam)
    q = np.subtract(1.0, lam, out=work)
    # log2 is evaluated only where its argument is positive; the zero-filled
    # out= arrays make the skipped entries defined (0 log 0 = 0).
    out.fill(0.0)
    np.log2(lam, out=out, where=lam > 0.0)
    # The skipped logs are 0, so each product is already 0 where its factor is.
    np.multiply(lam, out, out=out)
    log_q = lam
    log_q.fill(0.0)
    np.log2(q, out=log_q, where=q > 0.0)
    np.multiply(q, log_q, out=log_q)
    np.add(out, log_q, out=out)
    np.subtract(0.0, out, out=out)  # -h, with -0.0 normalized to 0.0


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


def bloch_map(sums):
    """The qubit channel r = P n + q of the seven basis sums, as (P, q).

    n is the Bloch vector of the initial spin and r that of the reduced coin
    state: r_z = 2A - 1 and r_x - i r_y = 2B for the moments (A, B) that
    `spin_moments` gives.  The sums are those of `spin_moments`, at one time, at
    several (a trailing time axis) or time-averaged; P has shape (3, 3) and q
    (3,), each followed by the sums' shape.  The real parts of auu and add are
    taken, and q is kept as it is: the walk's norm drift shows up in it.
    """
    auu, aud, add, buu, bud, bdu, bdd = sums
    auu, add = np.real(auu), np.real(add)
    # 2B = (buu + bdd) + (buu - bdd) n_z + (bud + bdu) n_x + i (bdu - bud) n_y
    b0, bz, bx, by = buu + bdd, buu - bdd, bud + bdu, 1j * (bdu - bud)
    p = np.array([[bx.real, by.real, bz.real],
                  [-bx.imag, -by.imag, -bz.imag],
                  [2.0 * aud.real, 2.0 * aud.imag, auu - add]])
    q = np.array([b0.real, -b0.imag, auu + add - 1.0])
    return p, q


#: The entries (i, j), i <= j, of a symmetric 4x4 quadratic form in
#: m = (n_x, n_y, n_z, 1), in the order of `delta_form`'s ten coefficients and
#: of `bloch_monomials`' ten monomials m_i m_j.
_FORM_I = np.array([0, 1, 2, 0, 0, 1, 0, 1, 2, 3])
_FORM_J = np.array([0, 1, 2, 1, 2, 2, 3, 3, 3, 3])


def delta_form(sums):
    """delta = |P n + q|^2 of the seven basis sums (`bloch_map`) as ten coefficients.

    delta = sum_k c_k m_k over the monomials m of `bloch_monomials`: with
    G = P^T P and g = P^T q, c = (G_xx, G_yy, G_zz, 2 G_xy, 2 G_xz, 2 G_yz,
    2 g_x, 2 g_y, 2 g_z, |q|^2).  The result has shape (10,) followed by the
    sums' shape, so a spin grid's delta at every time is one matrix product.
    """
    p, q = bloch_map(sums)
    pq = np.concatenate((p, q[:, None]), axis=1)  # [P q], (3, 4)
    return _gram_form(np.einsum("ci...,cj...->ij...", pq, pq))  # [[G, g], [g^T, |q|^2]]


def _gram_form(gram):
    """The ten coefficients of the quadratic form m^T gram m in m = (n_x, n_y,
    n_z, 1), for a symmetric 4x4 `gram` (followed by any shape), in
    `delta_form`'s layout."""
    form = gram[_FORM_I, _FORM_J]
    form[_FORM_I != _FORM_J] *= 2.0  # an off-diagonal entry stands for two
    return form


def bloch_monomials(alpha, beta):
    """The ten monomials (n_x^2, n_y^2, n_z^2, n_x n_y, n_x n_z, n_y n_z, n_x,
    n_y, n_z, 1) of the Bloch vectors n = (sin a cos b, sin a sin b, cos a) of
    the spins at angles (alpha, beta), broadcast, on a last axis of length 10,
    which `delta_form`'s coefficients are read against (`delta_at`)."""
    sin_alpha = np.sin(alpha)
    n = np.broadcast_arrays(sin_alpha * np.cos(beta), sin_alpha * np.sin(beta), np.cos(alpha), 1.0)
    m = np.stack(n, axis=-1)  # (n_x, n_y, n_z, 1)
    return m[..., _FORM_I] * m[..., _FORM_J]


def delta_at(form, alpha, beta):
    """delta of the ten coefficients `form` (`delta_form`'s layout, shape (10,))
    at the spins (alpha, beta), broadcast: a float for scalar angles, else an
    array.  Each point's ten products are summed along the last axis in one
    fixed order, not by a BLAS product, so a point's delta does not depend on
    the shape of the call it is in."""
    delta = np.sum(bloch_monomials(alpha, beta) * form, axis=-1)
    return float(delta) if delta.ndim == 0 else delta


def entropy_from_moments(m: CoinMoments):
    """Entanglement entropy of the reduced coin state with moments (A, B), scalars
    or arrays: `entropy_from_delta` of `delta_from_moments`, so inconsistent
    (delta > 1 + CLAMP_TOL) or non-finite moments raise DomainError.  The
    delta that `delta_from_moments` checked and clamped, a new array, goes to
    the kernel as it is (`_clamped_entropy_into`); clamping is idempotent,
    so the entropies are those of `entropy_from_delta` bit for bit.
    """
    return _new_buffers(_clamped_entropy_into, np.asarray(delta_from_moments(m), dtype=float))


def _check_delta(delta) -> None:
    """DomainError unless every delta lies in [0, 1] to CLAMP_TOL; NaN fails."""
    if delta.size == 0:
        return
    # min and max propagate NaN, and every comparison with NaN is False
    lo, hi = np.min(delta), np.max(delta)
    if not (lo >= -CLAMP_TOL and hi <= 1.0 + CLAMP_TOL):
        raise DomainError(f"delta must lie in [0, 1], got values in [{lo}, {hi}]")


def entropy_from_delta(delta):
    """Asymptotic entanglement entropy from the characteristic function delta.

    lambda_pm = (1 +- sqrt(delta))/2.  delta may be a scalar (a float is
    returned) or an array (an array is) of real numbers; it is checked and
    clamped as in `delta_from_moments`.
    """
    return _fresh_buffers(_entropy_into, delta, "delta")


def _entropy_into(delta, out, work) -> None:
    """The entropy kernel: `entropy_from_delta` of the float array delta into
    out.  delta is checked as by `delta_from_moments` and then overwritten, and
    work, of delta's shape, is scratch, so a caller that reduces many blocks
    of one shape allocates its buffers once."""
    _check_delta(delta)
    np.clip(delta, 0.0, 1.0, out=delta)
    _clamped_entropy_into(delta, out, work)


def _clamped_entropy_into(delta, out, work) -> None:
    """`_entropy_into` of a delta already checked and clamped to [0, 1], as
    `delta_from_moments` returns it: delta is overwritten, with no second
    check or clip."""
    lam = np.sqrt(delta, out=delta)
    np.add(1.0, lam, out=lam)
    np.divide(lam, 2.0, out=lam)
    _binary_entropy_into(lam, out, work)


def delta_from_moments(m: CoinMoments):
    """Characteristic function delta = (lambda_plus - lambda_minus)^2 =
    4((A - 1/2)^2 + |B|^2) of moments (A, B): a float for scalars, else an array.

    Algebraically 1 - 4[A(1-A) - |B|^2], so delta <= 1 for physical moments.
    It is clamped to [0, 1]; an excursion beyond CLAMP_TOL (unphysical
    moments) or a NaN raises DomainError, as does an A that is not real or a
    B that is not a number (a bool, string or object).  Squared by np.square,
    which multiplies, for scalars and arrays alike: `** 2` on a scalar calls
    the C library's pow(), which is not correctly rounded for every input, so
    the same moments would differ as a scalar and in an array.
    """
    a, b = _as_array(m.A), _as_array(m.B)
    if a.dtype.kind not in "iuf" or b.dtype.kind not in "iufc":
        raise DomainError(f"moments must be a real A and a real or complex B, got {m!r}")
    delta = 4.0 * (np.square(a - 0.5) + np.square(np.abs(b)))  # numpy, any shape
    _check_delta(delta)
    delta = np.clip(delta, 0.0, 1.0)
    return float(delta) if delta.ndim == 0 else delta
