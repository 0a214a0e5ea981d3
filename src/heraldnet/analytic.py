"""Closed-form metrics, network geometry and threshold constants.

The design closed forms below are the advertised per-scheme expressions for
success probability, herald probability and heralding efficiency.  They are
mutually consistent (h_eff * p_hr = p_suc identically) and exact at eta = 1.
For the two single-photon schemes at eta < 1 the herald probability and
heralding efficiency given by exhaustive amplitude simulation differ from
the design forms; the simulation-matching expressions are provided
separately as ``exact_p_hr`` and ``exact_h_eff`` so both families can be
compared side by side.  Success probabilities agree everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .heralding import UndefinedMetricError
from .schemes import DEFAULT_ALPHA, SCHEMES

QUOTED_CHORD_REFERENCE_KM = 15.71  # widely quoted figure, kept for comparison

BRACKET_LIMIT_KM = 1e5
DEFAULT_ROOT_TOL_KM = 1e-6


class RootBracketError(ArithmeticError):
    """Raised when no sign change is found inside the search window."""


def _check(scheme: str, n: int, eta: float) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if n < 2:
        raise ValueError("need at least two parties")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmission eta must lie in [0, 1], got {eta}")


def closed_p_suc(scheme: str, n: int, eta: float) -> float:
    """Design success probability.

    bc: eta^2N / 2^(N-1);  sc: eta^2N / 2^(2N-1);  sd: eta^4N / 2^(2N-1).
    These agree with exhaustive simulation for every scheme and eta.
    """
    _check(scheme, n, eta)
    if scheme == "bc":
        return eta ** (2 * n) / 2 ** (n - 1)
    if scheme == "sc":
        return eta ** (2 * n) / 2 ** (2 * n - 1)
    return eta ** (4 * n) / 2 ** (2 * n - 1)


def closed_p_hr(scheme: str, n: int, eta: float) -> float:
    """Design herald probability.

    bc: eta^2N / 2^(N-1)
    sc: (eta^2N + (3 eta^2 - 2 eta^4)^N) / 2^2N
    sd: ((2 eta^2 - eta^4)^N + eta^4N) / 2^2N

    The sc form divides by 2^2N rather than 2^N so that h_eff reaches 1 in
    the lossless limit; see ``sc_p_hr_uncorrected`` for the other variant.
    """
    _check(scheme, n, eta)
    if scheme == "bc":
        return eta ** (2 * n) / 2 ** (n - 1)
    if scheme == "sc":
        return (eta ** (2 * n) + (3 * eta**2 - 2 * eta**4) ** n) / 2 ** (2 * n)
    return ((2 * eta**2 - eta**4) ** n + eta ** (4 * n)) / 2 ** (2 * n)


def closed_h_eff(scheme: str, n: int, eta: float) -> float:
    """Design heralding efficiency.

    bc: exactly 1;  sc: 2 / (1 + (3 - 2 eta^2)^N);
    sd: 2 eta^2N / ((2 - eta^2)^N + eta^2N).
    """
    _check(scheme, n, eta)
    if eta == 0.0:
        raise UndefinedMetricError("heralding efficiency undefined at eta=0")
    if scheme == "bc":
        return 1.0
    if scheme == "sc":
        return 2.0 / (1.0 + (3.0 - 2.0 * eta**2) ** n)
    return 2.0 * eta ** (2 * n) / ((2.0 - eta**2) ** n + eta ** (2 * n))


def sc_p_hr_uncorrected(n: int, eta: float) -> float:
    """Uncorrected sc herald probability (eta^2N + (3 eta^2 - 2 eta^4)^N) / 2^N.

    Kept for side-by-side comparison: it exceeds :func:`closed_p_hr` by a
    factor 2^N and implies h_eff(eta=1) = 2^-N instead of 1, failing the
    lossless consistency check.
    """
    _check("sc", n, eta)
    return (eta ** (2 * n) + (3 * eta**2 - 2 * eta**4) ** n) / 2**n


def exact_p_hr(scheme: str, n: int, eta: float) -> float:
    """Herald probability matching exhaustive amplitude simulation.

    bc: same as the design form.  sc and sd share
    (2 eta^2 - eta^4)^N / 2^(2N-1): a herald needs one surviving photon
    from every party on every station, and only two global routings
    deliver that (all D or all A at the central splitters for sc; every
    pair home or every pair to the neighbour for sd), each with weight
    2^-N prod over parties of eta^2 (2 - eta^2) / 2.  The sc design form
    also counts parties that send both photons to the centre, which leave
    the D/A splitter together and never herald, so it lies above this one.
    The sd design form credits the all-cross routing only when no photon
    is lost (eta^4N), so it lies below this one.
    """
    _check(scheme, n, eta)
    if scheme == "bc":
        return closed_p_hr("bc", n, eta)
    return (2 * eta**2 - eta**4) ** n / 2 ** (2 * n - 1)


def exact_h_eff(scheme: str, n: int, eta: float) -> float:
    """Heralding efficiency matching exhaustive amplitude simulation.

    bc: 1;  sc: (2 - eta^2)^-N;  sd: eta^2N / (2 - eta^2)^N.
    """
    _check(scheme, n, eta)
    if eta == 0.0:
        raise UndefinedMetricError("heralding efficiency undefined at eta=0")
    if scheme == "bc":
        return 1.0
    if scheme == "sc":
        return (2.0 - eta**2) ** (-n)
    return eta ** (2 * n) / (2.0 - eta**2) ** n


def lhv_threshold(n: int) -> float:
    """Minimum heralding efficiency N/(2N-2) that rules out a local
    hidden-variable explanation of the heralded correlations."""
    if n < 2:
        raise ValueError("need at least two parties")
    return n / (2.0 * n - 2.0)


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def eta_of_length(alpha: float, length_km: float) -> float:
    """Amplitude transmission e^(-alpha*l) of a fibre of length l."""
    _check_finite("attenuation", alpha)
    _check_finite("length", length_km)
    if alpha <= 0:
        raise ValueError("attenuation must be positive")
    if length_km < 0:
        raise ValueError("length must be non-negative")
    return math.exp(-alpha * length_km)


def crossover_margin(radius_km: float, n: int, alpha: float) -> float:
    """g(R) = e^(-2 alpha R) + e^(4 alpha R sin(pi/N)) - 2.

    The sc and sd heralding efficiencies coincide where g vanishes; g < 0
    means sd is ahead, g > 0 means sc is ahead.
    """
    return (
        math.exp(-2.0 * alpha * radius_km)
        + math.exp(4.0 * alpha * radius_km * math.sin(math.pi / n))
        - 2.0
    )


def crossover_radius(
    n: int, alpha: float = DEFAULT_ALPHA, tol: float = DEFAULT_ROOT_TOL_KM
) -> float:
    """Radius where the sc and sd heralding efficiencies cross, in km.

    Zero when 2 sin(pi/N) >= 1 (N <= 6): the margin is then non-negative
    for every radius, so the curves only touch at R = 0.  Otherwise the
    unique positive root is bracketed by doubling from 1 km and bisected
    to within ``tol``, or until the bracket is two adjacent floats.
    """
    if n < 2:
        raise ValueError("need at least two parties")
    _check_finite("attenuation", alpha)
    _check_finite("tolerance", tol)
    if alpha <= 0:
        raise ValueError("attenuation must be positive")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    # 1e-12 slack covers roundoff in sin(pi/6) = 0.5 exactly at N = 6
    if 2.0 * math.sin(math.pi / n) >= 1.0 - 1e-12:
        return 0.0

    lo, hi = 0.0, 1.0
    while crossover_margin(hi, n, alpha) < 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > BRACKET_LIMIT_KM:
            raise RootBracketError(
                f"no sign change of the crossover margin below {BRACKET_LIMIT_KM} km"
            )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if crossover_margin(mid, n, alpha) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chord_length(radius_km: float, n: int) -> float:
    """Distance 2 R sin(pi/N) between ring neighbours."""
    return 2.0 * radius_km * math.sin(math.pi / n)


@dataclass(frozen=True)
class ChordAsymptote:
    """Large-N limit of the crossover chord, with a numeric cross-check.

    ``analytic_limit_km`` is ln(2)/(2 alpha), obtained from the crossover
    condition when the e^(-2 alpha R) term vanishes at large R.
    ``numeric_at_reference_n_km`` evaluates the chord at the crossover
    radius for ``reference_n`` parties.  ``quoted_reference_km`` is a
    widely quoted value for this constant that the present relation does
    not reproduce; it is reported alongside rather than silently dropped.
    """

    alpha: float
    analytic_limit_km: float
    reference_n: int
    numeric_at_reference_n_km: float
    quoted_reference_km: float = QUOTED_CHORD_REFERENCE_KM


def asymptotic_chord(alpha: float = DEFAULT_ALPHA, reference_n: int = 500) -> ChordAsymptote:
    _check_finite("attenuation", alpha)
    if alpha <= 0:
        raise ValueError("attenuation must be positive")
    radius = crossover_radius(reference_n, alpha, tol=1e-9)
    return ChordAsymptote(
        alpha=alpha,
        analytic_limit_km=math.log(2.0) / (2.0 * alpha),
        reference_n=reference_n,
        numeric_at_reference_n_km=chord_length(radius, reference_n),
    )


def p_suc_crossing_party_count() -> int:
    """Smallest party count whose sd success probability beats sc at every
    positive radius.

    The ratio p_suc(sd)/p_suc(sc) = e^(2 N alpha R (1 - 4 sin(pi/N)))
    exceeds 1 for all R > 0 exactly when sin(pi/N) < 1/4, independent of
    alpha and R, giving N = ceil(pi/asin(1/4)) = 13.
    """
    n = 2
    while math.sin(math.pi / n) >= 0.25:
        n += 1
    return n
