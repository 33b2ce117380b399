"""Characteristic roots of the annihilating recurrence and growth rates.

The scaled polynomial sequence satisfies a fixed-order linear recurrence
whose limiting characteristic roots are the values

    v_h = prod_j (y_h - q_j)^{q_j} (y_h + p_j)^{p_j} / (p_j + q_j)^{p_j+q_j},

where the y_h solve zeta prod(y + p_j) = (zeta - 1) prod(y - q_j).  The
roots and the v_h are computed on Gaussian integers (pairs of ints on a grid
2^-w): the roots are located by Durand-Kerner and refined by Newton's method
on exact values of the polynomial, and the inclusion disks are accepted and
checked disjoint by integer comparisons; the v_h are products of powers cut
to a fixed number of bits.  Growth rates of solution sequences are read off
with a windowed-max slope fit.

For small instances an annihilating coefficient vector witnesses the
recurrence directly.  It is found modulo a fixed sequence of 128-bit primes
(exact.first_dependency_mod), lifted to the rationals by the Chinese
remainder theorem and rational reconstruction, and returned only once it
annihilates the eliminated integer columns exactly; a prime that reports
the dependency too early is passed over, and running out of primes raises
InternalCheckError.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from math import isqrt, lcm, prod
from typing import Optional, Sequence

import mpmath as mp

from .errors import HypothesisError, InternalCheckError, ParamError, PrecisionError
from .exact import (DensePoly, crt_pair, first_dependency_mod, fixed_log, modular_prime,
                    rational_reconstruction)
from .legendre import ParamSet, _legendre_coeffs, check_precision


# ---------------------------------------------------------------------------
# characteristic polynomial and roots
# ---------------------------------------------------------------------------

def characteristic_polynomial(params: ParamSet) -> DensePoly:
    """zeta prod(y + p_j) - (zeta - 1) prod(y - q_j), monic of degree n in y."""
    zeta, one = params.z, DensePoly([1])
    plus = prod((DensePoly([p, 1]) for p in params.p), start=one)
    minus = prod((DensePoly([-q, 1]) for q in params.q), start=one)
    poly = zeta * plus - (zeta - 1) * minus
    if poly.coeffs[-1] != 1:
        raise InternalCheckError("characteristic polynomial is not monic")
    return poly


@dataclass(frozen=True)
class SpectralData:
    """Roots y_h and values v_h, ordered by descending |v| (ties by argument);
    :func:`char_values` fills in the logs."""

    roots: tuple          # mpc roots y_h
    values: tuple         # mpc values v_h
    precision: int
    # log2 of the largest root inclusion radius n |f(y_h) / f'(y_h)|
    log2_root_radius: Optional[mp.mpf] = None
    log_abs_values: tuple = ()               # mpf log|v_h|
    log_v_max: Optional[mp.mpf] = None       # log V = log max|v_h|
    log_v_capped: Optional[mp.mpf] = None    # log W = log max{|v_h| : |v_h| <= threshold}
    log_threshold: Optional[mp.mpf] = None   # log of the admissible-size threshold


def _mul(a: tuple, b: tuple, bits: int) -> tuple:
    """a b for Gaussian integers (re, im, e) = (re + i im) 2^e, both parts cut
    toward zero to at most `bits` bits with one shared exponent."""
    (ar, ai, ae), (br, bi, be) = a, b
    re, im = ar * br - ai * bi, ar * bi + ai * br
    s = max(abs(re).bit_length(), abs(im).bit_length(), bits) - bits
    return re >> s if re >= 0 else -(-re >> s), im >> s if im >= 0 else -(-im >> s), ae + be + s


def _char_value_at(params: ParamSet, y, work: int):
    """v = prod_j (y - q_j)^q_j (y + p_j)^p_j / (p_j + q_j)^(p_j + q_j) at work bits.

    The numerator is formed on Gaussian integers from the exact mpc y, each
    power by square-and-multiply, and :func:`_mul` cuts each base and product
    to work + 16 bits: at most 2^-(work+14) relative each.  A cut on the
    partial power z^m of z^k is raised by at most k/m, and those factors sum
    to at most 3k, so the numerator is within (3M + 2n) 2^-(work+14)
    relative, M = sum(p_j + q_j).  It becomes one mpc, divided by the integer
    prod (p_j + q_j)^(p_j + q_j) at work bits.  (mpmath's z**k would take
    exp(k log z) once k times the bits reaches 10000.)
    """
    (sr, xr, er, _), (si, xi, ei, _) = y.real._mpf_, y.imag._mpf_
    e = min(er, ei, 0)
    x, i = (-xr if sr else xr) << (er - e), (-xi if si else xi) << (ei - e)
    bits, acc = work + 16, (1, 0, 0)
    for p, q in params.pairs():
        for base, k in ((x - (q << -e), q), (x + (p << -e), p)):
            if k:
                z = r = _mul((base, i, e), (1, 0, 0), bits)
                for bit in bin(k)[3:]:
                    r = _mul(r, r, bits)
                    r = _mul(r, z, bits) if bit == "1" else r
                acc = _mul(acc, r, bits)
    re, im, e = acc
    with mp.workprec(work):
        return mp.mpc(mp.mpf((re, e)), mp.mpf((im, e))) / prod(
            (p + q) ** (p + q) for p, q in params.pairs())


def _horner(coeffs: list[int], x: int, y: int, w: int) -> tuple[int, int, int, int]:
    """(Re F, Im F, Re D, Im D) for F = 2^(wn) f(u) and D = 2^(w(n-1)) f'(u),
    exactly, at u = (x + iy)/2^w; f(u) = sum coeffs[k] u^k has degree n."""
    n = len(coeffs) - 1
    fr, fi, dr, di = coeffs[n], 0, 0, 0
    for k in range(n - 1, -1, -1):
        dr, di = dr * x - di * y + fr, dr * y + di * x + fi
        fr, fi = fr * x - fi * y + (coeffs[k] << w * (n - k)), fr * y + fi * x
    return fr, fi, dr, di


def _quotient(fr: int, fi: int, dr: int, di: int) -> tuple[int, int]:
    """(fr + i fi)/(dr + i di) rounded to the nearest Gaussian integer."""
    d2 = dr * dr + di * di
    return (2 * (fr * dr + fi * di) + d2) // (2 * d2), (2 * (fi * dr - fr * di) + d2) // (2 * d2)


LOCATOR_MAX_SWEEPS = 200


def _locate_roots(coeffs: list[int]) -> tuple[int, list[list[int]]]:
    """(w, [[x, y], ...]), points (x + iy)/2^w near the roots of sum coeffs[k] u^k.

    polyroots' Durand-Kerner iteration from the starts (0.4 + 0.9i)^k, each
    point moved in place, on the grid 2^-w, w = 73 + size (size the bit
    length of Cauchy's bound): the bits polyroots has at 53 bits with
    extraprec 20 + size.  Each correction f(u)/(c prod_j (u - u_j)), c the
    leading coefficient and a zero factor skipped as polyroots does, is exact
    before it is rounded to the grid.  Stops once a sweep moves every point
    less than 2^-52; PrecisionError after LOCATOR_MAX_SWEEPS sweeps.
    """
    n = len(coeffs) - 1
    w = 73 + (max(map(abs, coeffs[:-1]), default=0) // coeffs[-1] + 1).bit_length()
    pts = [[round(Fraction(c.real) * 2**w), round(Fraction(c.imag) * 2**w)]
           for c in (complex(0.4, 0.9) ** k for k in range(n))]
    for _ in range(LOCATOR_MAX_SWEEPS):
        done = True
        for u in pts:
            fr, fi, _, _ = _horner(coeffs, *u, w)
            pr, pi = coeffs[n], 0
            for v in pts:
                dx, dy = u[0] - v[0], u[1] - v[1]
                if dx or dy:
                    pr, pi = pr * dx - pi * dy, pr * dy + pi * dx
                elif v is not u:
                    pr, pi = pr << w, pi << w
            done = done and fr * fr + fi * fi < (pr * pr + pi * pi) << 2 * (w - 52)
            sx, sy = _quotient(fr, fi, pr, pi)
            u[0], u[1] = u[0] - sx, u[1] - sy
        if done:
            return w, pts
    raise PrecisionError(f"root location did not converge in {LOCATOR_MAX_SWEEPS} sweeps")


NEWTON_EXTRA_STEPS = 3  # full-precision steps allowed after the ladder


def _newton_root(coeffs: list[int], x: int, y: int, w: int, precision: int):
    """Refine the root near (x + iy)/2^w of f(u) = sum coeffs[k] u^k, degree n.

    Newton's method on :func:`_horner`, each step rounded to the grid 2^-v,
    v on a ladder that doubles up to work = precision + 64.  Returns (x, y, r)
    for the first u = (x + iy)/2^work with n |f(u)/f'(u)| <
    2^-(precision + 23) max(1, |u|), decided in integers; the disk about u of
    radius r/2^(2 work) >= n |f(u)/f'(u)| (0 if f(u) = 0) holds a root.
    PrecisionError when the rule still fails after the ladder and
    NEWTON_EXTRA_STEPS more steps, or f'(u) vanishes.
    """
    n, work = len(coeffs) - 1, precision + 64
    ladder = [work]
    while ladder[-1] > 106:
        ladder.append(ladder[-1] // 2 + 4)
    for v in ladder[::-1] + [work] * NEWTON_EXTRA_STEPS:
        x, y, w = (x << v - w, y << v - w, v) if v >= w else (x >> w - v, y >> w - v, v)
        fr, fi, dr, di = _horner(coeffs, x, y, w)
        if not (dr or di):
            break
        f2, d2 = n * n * (fr * fr + fi * fi), dr * dr + di * di
        if w == work and f2 << 2 * (precision + 23) < d2 * max(1 << 2 * w, x * x + y * y):
            return x, y, isqrt((f2 << 2 * w) // d2) + 1 if f2 else 0
        sx, sy = _quotient(fr, fi, dr, di)
        x, y = x - sx, y - sy
    near = mp.mpc(mp.mpf((x, -w)), mp.mpf((y, -w)))
    raise PrecisionError(f"Newton refinement of the root near {mp.nstr(near, 8)} "
                         f"did not reach 2^-{precision + 23}")


def characteristic_roots(params: ParamSet, precision: int = 512) -> SpectralData:
    """All n roots and their values v_h, ordered by descending |v_h| (ties by
    argument); the values are those :func:`char_values` reads.

    On the exact integer multiple of the characteristic polynomial,
    :func:`_locate_roots` locates the roots and :func:`_newton_root` refines
    each to the centre of a disk that holds a root.  The n disks must be
    pairwise disjoint, so that they hold all n roots, which is decided in
    integers; log2_root_radius is log2 of the largest radius rounded up to an
    integer.  PrecisionError if the locator does not converge, a root is not
    refined, or two disks meet.  The roots are returned, and the values
    computed, as mpc at work = precision + 64 bits.  A precision below
    legendre.MIN_PRECISION raises ParamError.
    """
    check_precision(precision)
    _, coeffs = characteristic_polynomial(params).cleared()
    w, starts = _locate_roots(coeffs)
    refined = [_newton_root(coeffs, x, y, w, precision) for x, y in starts]
    work = precision + 64
    # squared centre distances on the grid 2^-work, radius sums on 2^-(2 work)
    gaps = [((xa - xb) ** 2 + (ya - yb) ** 2, ra + rb)
            for i, (xa, ya, ra) in enumerate(refined) for xb, yb, rb in refined[i + 1:]]
    if any(gap << 2 * work <= r * r for gap, r in gaps):
        raise PrecisionError("root inclusion disks overlap")
    if gaps and min(gaps)[0] < 1 << 2 * (work - precision // 4):
        warnings.warn("nearly multiple characteristic roots; results may lose accuracy")
    radius = max(r for _, _, r in refined)
    with mp.workprec(work):
        roots = [mp.mpc(mp.mpf((x, -work)), mp.mpf((y, -work))) for x, y, _ in refined]
        values = [_char_value_at(params, y, work) for y in roots]
        # deterministic ordering by the companion values; the argument only
        # breaks ties of |v|, so it is computed inside those groups alone
        mags = [abs(v) for v in values]
        order = sorted(range(len(roots)), key=lambda h: (
            -mags[h], mp.arg(values[h]) if mags.count(mags[h]) > 1 else 0))
        roots, values = tuple(roots[h] for h in order), tuple(values[h] for h in order)
    return SpectralData(roots=roots, values=values, precision=precision,
                        log2_root_radius=mp.mpf((radius - 1).bit_length() - 2 * work)
                        if radius else mp.ninf)


def log_ratio(num: int, den: int) -> mp.mpf:
    """log(num/den) for positive ints at the working precision w, as
    exact.fixed_log of num less that of den: within 2^(1-w) before the
    rounding to w bits."""
    work = mp.mp.prec
    return mp.mpf((fixed_log(num, 0, work) - fixed_log(den, 0, work), -work))


def _log_threshold(params: ParamSet) -> mp.mpf:
    """log of p1^p1 q1^q1 M^M / ((p1+q1)^(2(p1+q1)) prod_{l>=2} (pl+ql)^(pl+ql))
    at the working precision, by :func:`log_ratio`."""
    p1, q1 = params.p[0], params.q[0]
    M = params.total_degree
    num = p1**p1 * q1**q1 * M**M
    den = (p1 + q1) ** (p1 + q1) * prod((p + q) ** (p + q) for p, q in params.pairs())
    return log_ratio(num, den)


def char_values(params: ParamSet, spectral: SpectralData) -> SpectralData:
    """Fill in V, W and the threshold from the values of
    :func:`characteristic_roots`; raises if the setup degenerates.

    Error budget at work = precision + 64 bits, u = 2^-work: each v_h is
    within (3M + 2n) 2^-14 u relative (:func:`_char_value_at`), which moves
    log|v_h| by as much; |v_h| rounded to work bits and exact.fixed_log add
    under u each, and the rounding of the log to work bits its size times
    u.  The threshold is within 2u before its rounding
    (:func:`_log_threshold`).  So every comparison is decided to far better
    than the slack 2^-(precision/4).  A log|v_h| inside the slack re-runs the
    roots at twice the precision, at most twice; one still inside at four
    times the requested precision is taken for an exact tie, which no
    precision decides, and raises PrecisionError.
    """
    requested = spectral.precision
    while True:
        precision = spectral.precision
        work = precision + 64
        values = spectral.values
        # A true root cannot make v vanish: at y = q_j the characteristic
        # polynomial is zeta prod_l (q_j + p_l) != 0, and at y = -p_j it is
        # -(zeta - 1) prod_l (-p_j - q_l) != 0, since z is outside [0, 1].
        # Legitimate values can be exponentially small, so only an exact zero
        # (a root not from this polynomial) is rejected.
        if any(v == 0 for v in values):
            raise HypothesisError("a characteristic value vanishes (root collides with some q_j)")
        with mp.workprec(work):
            logs = [mp.mpf((fixed_log(*abs(v).man_exp, work), -work)) for v in values]
            log_thr = _log_threshold(params)
            slack = mp.mpf(2) ** (-(precision // 4))
            if not any(abs(lg - log_thr) < slack for lg in logs):
                below = [lg for lg in logs if lg <= log_thr]
                if not below:
                    raise HypothesisError("no characteristic value below the size threshold")
                return replace(spectral, log_abs_values=tuple(+lg for lg in logs),
                               log_v_max=+max(logs), log_v_capped=+max(below),
                               log_threshold=+log_thr)
            if precision >= 4 * requested:
                raise PrecisionError(
                    f"threshold tie: a log|v_h| lies within 2^-{precision // 4} of the "
                    f"size threshold {mp.nstr(log_thr, 15)} at {precision} bits, four "
                    f"times the requested {requested}; an exact tie is undecidable")
        spectral = characteristic_roots(params, 2 * precision)


def spectral_data(params: ParamSet, precision: int = 512) -> SpectralData:
    return char_values(params, characteristic_roots(params, precision))


# ---------------------------------------------------------------------------
# growth rate of a sequence (windowed max + slope fit)
# ---------------------------------------------------------------------------

def windowed_log_maxima(values: Sequence, window: int) -> list[float]:
    """log max(|f(t)|, ..., |f(t+window-1)|) for every full window of the
    consecutive values |f(t)|; needs at least window + 3 values."""
    if window < 1:
        raise ParamError("window must be >= 1")
    mags = [abs(v) for v in values]
    if len(mags) < window + 3:
        raise ParamError(f"need at least window + 3 = {window + 3} values, got {len(mags)}")
    if all(v == 0 for v in mags):
        raise ParamError("all-zero sequence has no growth rate")
    logs = []
    for i in range(len(mags) - window + 1):
        m = max(mags[i : i + window])
        if m == 0:
            raise ParamError("window maximum vanished; sequence is degenerate")
        logs.append(float(mp.log(m)))
    return logs


def windowed_growth_rate(values: Sequence, window: int) -> float:
    """Estimate lim (1/t) log max(|f(t)|, ..., |f(t+window-1)|).

    Fits a least-squares line to :func:`windowed_log_maxima` over the upper
    half of the range; the slope is the estimate.
    """
    logs = windowed_log_maxima(values, window)
    ts = list(range(1, len(logs) + 1))
    half = len(logs) // 2
    xs, ys = ts[half:], logs[half:]
    k = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = k * sxx - sx * sx
    if denom == 0:
        raise ParamError("degenerate fit range")
    return (k * sxy - sx * sy) / denom


# ---------------------------------------------------------------------------
# per-scale recurrence witness by modular elimination
# ---------------------------------------------------------------------------

WITNESS_MAX_COLUMNS = 4000  # larger instances are refused, not eliminated
WITNESS_MAX_ROWS = 2000
WITNESS_PRIME_COUNT = 16    # 2048 bits of modulus: heights up to about 1023 bits


def _witness_primes():
    """The fixed sequence of primes the witness search runs modulo."""
    return (modular_prime(i) for i in range(WITNESS_PRIME_COUNT))


@dataclass(frozen=True)
class RecurrenceWitness:
    """Coefficient polynomials A_0..A_n with sum A_l * L^(t+l) = 0."""

    t: int
    coefficients: tuple[DensePoly, ...]

    def is_trivial(self) -> bool:
        return all(c.is_zero() for c in self.coefficients)


def recurrence_witness(params: ParamSet, t: int) -> RecurrenceWitness:
    """Find A_0..A_n, deg A_l <= L + M(n-l), annihilating the scales t..t+n.

    L is the smallest integer above M n (n-1)/2 - n.  The columns
    z^i * P_{t+l}, ordered by l and then i, form an integer matrix; the
    witness is the combination with coefficient 1 on its first column that
    depends on the earlier ones, which are independent, so the witness is
    unique.

    The search runs modulo each prime of a fixed sequence of 128-bit primes
    (WITNESS_PRIME_COUNT of them, see exact.modular_prime) in turn.  Columns
    independent modulo a prime are independent over Q, so an unlucky prime
    can only report a dependency too early: the largest column index seen so
    far is kept, and only the residues found at that index are combined by
    the Chinese remainder theorem.  After each prime the combination is
    lifted to Q by rational reconstruction and accepted only if it
    annihilates the integer columns exactly (the dependent column weighs 1,
    so the witness is never trivial); otherwise the next prime is taken.
    InternalCheckError if the columns are independent modulo a prime (then
    no witness exists in the degree window) or if the primes run out.
    """
    if t < 0:
        raise ParamError("t must be >= 0")
    n = params.n
    M = params.total_degree
    Lbound = M * n * (n - 1) // 2 - n + 1
    rows = Lbound + M * (t + n) + 1
    sizes = [Lbound + M * (n - l) + 1 for l in range(n + 1)]  # columns per l
    if sum(sizes) > WITNESS_MAX_COLUMNS or rows > WITNESS_MAX_ROWS:
        raise ParamError("instance too large for exact elimination")
    scaled = [_legendre_coeffs(params.pairs(), t + l) for l in range(n + 1)]
    columns = []
    for l, size in enumerate(sizes):
        for i in range(size):
            col = [0] * rows
            col[i:i + len(scaled[l])] = scaled[l]
            columns.append(col)

    index, residues, modulus = -1, [], 1
    for p in _witness_primes():
        found = first_dependency_mod(columns, p)
        if found is None:
            raise InternalCheckError(
                f"no recurrence witness at t={t}: the columns are independent mod {p}")
        k, combo = found
        if k < index:
            continue  # unlucky prime
        if k > index:
            index, residues, modulus = k, combo, p
        else:
            residues = [crt_pair(r, modulus, s, p) for r, s in zip(residues, combo)]
            modulus *= p
        lifted = [rational_reconstruction(r, modulus) for r in residues]
        if None not in lifted and _annihilates(columns, lifted):
            return _assemble_witness(t, lifted, sizes)
    raise InternalCheckError(f"no verified recurrence witness at t={t} after the prime sequence")


def _assemble_witness(t: int, lifted: list[tuple[int, int]], sizes: list[int]
                      ) -> RecurrenceWitness:
    """A_0..A_n from the lifted weights (num, den) of the first columns,
    ordered by l and then i; the columns after them weigh 0.  A_l takes the
    next sizes[l] weights."""
    values = [Fraction(*nd) for nd in lifted] + [Fraction(0)] * (sum(sizes) - len(lifted))
    return RecurrenceWitness(t=t, coefficients=tuple(
        DensePoly(values[end - size:end]) for size, end in zip(sizes, accumulate(sizes))))


def _annihilates(columns: list[list[int]], lifted: list[tuple[int, int]]) -> bool:
    """Whether the weights (num, den) on the first columns sum them to zero,
    checked exactly on the integer multiple that clears the denominators."""
    den = lcm(*(d for _, d in lifted))
    acc = [0] * len(columns[0])
    for (num, d), col in zip(lifted, columns):
        if num:
            a = num * (den // d)
            acc = [x + a * c for x, c in zip(acc, col)]
    return not any(acc)
