"""Click-pattern analysis: heralding, success and efficiency metrics.

A herald is the event "every detector station saw exactly one photon".  Each
scheme's circuit ends in its measurement basis, so a station's photon sits
in its H or V slot, and a click pattern for an n-party network is a length-n
tuple of the letters the spec gives those slots ("H"/"V" for the central
schemes, "D"/"A" for the decentralized one).

All probabilities here are computed from the exact evolved amplitudes, never
from closed-form shortcuts; the closed forms live in :mod:`.analytic` and
the test-suite checks the two against each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

from .fock import (
    BITS,
    MAX_OCCUPATION,
    PhotonicState,
    _monomial_weight,
    cancel_residue,
    inner_product,  # noqa: F401 - benchmarks/run.py --trace 1 times heralding.inner_product
    norm_squared,  # noqa: F401 - benchmarks/run.py --trace 1 times heralding.norm_squared
    pack,
    photons,
    product,
)
from .optics import apply
from .schemes import SchemeBuild, SchemeSpec

# Exhaustive amplitude tracking is exponential in the party count; past this
# size a single case needs minutes and gigabytes, so the drivers refuse it.
# This cap is the only bound on the term count (1,048,576 at most, sc N=7).
# Measured on 2 cores, Python 3.11, one fresh process per case, eta 0.9 and 0.5:
# bc N=7 0.08 to 0.11 s and 18 MB, sc N=6 0.8 to 0.9 s and 66 MB, sc N=7 7.8
# to 8.2 s and 467 MB, sd N=6 0.26 to 0.35 s and 41 MB, sd N=7 2.1 to 2.4 s and 151 MB;
# at N=8 every scheme has 16 photons, more than a packed key holds (MAX_OCCUPATION).
ORACLE_MAX_PARTIES = 7


class UndefinedMetricError(ArithmeticError):
    """Raised when a ratio metric has a vanishing denominator."""


class NoGhzComponentError(ValueError):
    """Raised when a click pattern leaves no GHZ amplitude to correct."""


class OracleSizeError(ValueError):
    """Raised when a requested network is too large for exact simulation."""


def check_oracle_size(scheme: str, n: int) -> None:
    if n > ORACLE_MAX_PARTIES:
        raise OracleSizeError(
            f"exact simulation of {scheme} is capped at {ORACLE_MAX_PARTIES} parties, got {n}; "
            "use the closed-form evaluators for larger networks"
        )


def enumerate_patterns(n: int, letters: str) -> list[tuple[str, ...]]:
    """All click patterns over a basis's H-slot and V-slot letter, in that order."""
    if len(letters) != 2 or letters[0] == letters[1]:
        raise ValueError(f"a detection basis names two distinct letters, got {letters!r}")
    return list(itertools.product(letters, repeat=n))


def station_masks(spec: SchemeSpec) -> tuple[int, ...]:
    """The packed mask of each detector station's two modes, in station order."""
    return tuple(
        pack(dict.fromkeys((h.index, v.index), MAX_OCCUPATION)) for h, v in spec.detector_stations
    )


def detection_ready_state(build: SchemeBuild) -> PhotonicState:
    """The heralded part of the evolved state, of squared norm P_hr.

    Substitution is multiplicative, so each party's factor goes through
    every stage of ``build.stages`` on its own, the same way for every
    scheme.  The product of the evolved factors
    (:func:`heraldnet.fock.product`) keeps a partial while no station holds
    two photons and every station whose last feeding party is multiplied in
    holds exactly one.
    """
    factors = [reduce(lambda state, stage: apply(stage, state), build.stages, f)
               for f in build.parties]
    stations = station_masks(build.spec)
    # A tag packs a term's photon count in each station into a nibble, so tags
    # add; ``doubled`` holds the bits of two or more photons in a nibble.
    ones = sum(1 << BITS * s for s in range(len(stations)))
    doubled = ones * (MAX_OCCUPATION - 1)
    tags = [{k: t for k in f.amplitudes if not (t := sum(
        photons(k & m) << BITS * s for s, m in enumerate(stations))) & doubled} for f in factors]
    # closed[j]: a one in the nibble of each station that no party after j feeds.
    fed = [reduce(or_, tag.values(), 0) for tag in tags]
    closed = [ones & ~reduce(or_, fed[j + 1:], 0) for j in range(len(tags))]

    def keep(j: int, tag: int) -> bool:
        return not tag & doubled and tag & closed[j] == closed[j]

    return product(factors, tags, keep)


@dataclass(frozen=True)
class PatternOutcome:
    """Everything the metrics need about a single click pattern.

    ``probability`` is the chance of seeing this pattern; ``ghz_amplitudes``
    are the overlaps of the conditional state (environment in vacuum) with
    the two GHZ branches; ``environment_histogram`` gives the
    unnormalized probability of each total environment photon number, so its
    values sum to ``probability``.
    """

    pattern: tuple[str, ...]
    probability: float
    ghz_amplitudes: tuple[complex, complex]
    environment_histogram: tuple[tuple[int, float], ...]

    @cached_property
    def success_probability(self) -> float:
        x, y = self.ghz_amplitudes
        return 0.5 * (abs(x) + abs(y)) ** 2

    @cached_property
    def fidelity(self) -> float:
        """Overlap with the best phase-corrected GHZ state, given the click."""
        if self.probability <= 0.0:
            return 0.0
        return self.success_probability / self.probability

    def feedforward_phase(self) -> float:
        """Relative phase between the two GHZ branches, in [0, 2 pi).

        A branch is absent only when its amplitude is an exact zero, which
        is what :func:`heraldnet.fock.cancel_residue` gives for a
        cancellation.
        """
        x, y = self.ghz_amplitudes
        if not x or not y:
            raise NoGhzComponentError(
                f"pattern {''.join(self.pattern)} has no correctable GHZ component"
            )
        phase = math.atan2((y / x).imag, (y / x).real) % (2.0 * math.pi)
        # A tiny negative angle rounds up to 2 pi itself, which is 0.
        return 0.0 if phase == 2.0 * math.pi else phase


@dataclass(frozen=True)
class Metrics:
    scheme: str
    n_parties: int
    eta: float
    p_suc: float
    p_hr: float

    def __post_init__(self) -> None:
        slack = 1e-12
        # p_suc is a sum of squares, so it is never negative.
        if not 0.0 <= self.p_suc <= self.p_hr * (1.0 + slack):
            raise ValueError(
                f"inconsistent metrics: p_suc={self.p_suc} p_hr={self.p_hr}"
            )
        if self.p_hr > 1.0 + slack:
            raise ValueError(f"herald probability {self.p_hr} exceeds 1")

    @property
    def h_eff(self) -> float:
        if self.p_hr <= 0.0:
            raise UndefinedMetricError(
                "heralding efficiency undefined: herald probability is zero"
            )
        return self.p_suc / self.p_hr


def analyze_patterns(build: SchemeBuild) -> list[PatternOutcome]:
    """One walk over the ready state, accumulated per click signature (the
    key's detector bits) in the state's order.  A heralded key's weight,
    environment photon count and GHZ branch amplitudes are those of its part
    off the detectors, found once per part; each GHZ amplitude sums
    conj(branch) * amplitude * weight as :func:`heraldnet.fock.inner_product`
    does, and a sum that cancels to residue is an exact zero."""
    spec = build.spec
    env_mask = pack(dict.fromkeys((m.index for m in spec.environment_modes), MAX_OCCUPATION))
    off_detectors = ~sum(station_masks(spec))
    slots = [(BITS * h.index, BITS * v.index) for h, v in spec.retained_pairs]
    (xh, xv), (yh, yv) = spec.ghz_qubits

    def branches(part: int) -> tuple[tuple[int, complex], ...]:
        # Each nonzero GHZ branch amplitude of ``part`` with its slot in the
        # sums: a product of one qubit per retained pair, in pair order, on a
        # part that holds one photon per pair.  A heralded key's part holds n
        # of its 2n photons, so one per pair leaves none elsewhere.
        x = y = 1 + 0j
        for h, v in slots:
            if part >> h & MAX_OCCUPATION:
                x, y = x * xh, y * yh
            elif part >> v & MAX_OCCUPATION:
                x, y = x * xv, y * yv
            else:
                return ()
        return tuple((i, g) for i, g in ((2, x), (4, y)) if g)

    parts: dict[int, tuple[float, int, tuple[tuple[int, complex], ...]]] = {}
    # Per signature: probability, histogram, and each GHZ amplitude with its terms' magnitudes.
    sums: dict[int, list] = {}
    for key, amp in detection_ready_state(build).amplitudes.items():
        part = key & off_detectors
        facts = parts.get(part)
        if facts is None:
            facts = parts[part] = (_monomial_weight(part), photons(part & env_mask), branches(part))
        w, env_total, ghz = facts
        acc = sums.get(key ^ part)
        if acc is None:
            acc = sums[key ^ part] = [0.0, {}, 0j, 0.0, 0j, 0.0]
        weight = abs(amp) ** 2 * w
        acc[0] += weight
        acc[1][env_total] = acc[1].get(env_total, 0.0) + weight
        for i, g in ghz:
            term = g.conjugate() * amp * w
            acc[i] += term
            acc[i + 1] += abs(term)

    outcomes = []
    for pattern in enumerate_patterns(spec.n_parties, spec.detection_basis):
        clicks = pack({station[spec.detection_basis.index(c)].index: 1
                       for station, c in zip(spec.detector_stations, pattern)})
        probability, histogram, x, x_scale, y, y_scale = sums.get(clicks, (0.0, {}, 0j, 0, 0j, 0))
        outcomes.append(PatternOutcome(pattern, probability,
                                       (cancel_residue(x, x_scale), cancel_residue(y, y_scale)),
                                       tuple(sorted(histogram.items()))))
    return outcomes


def compute_metrics(build: SchemeBuild) -> Metrics:
    outcomes = analyze_patterns(build)
    return Metrics(
        scheme=build.spec.scheme,
        n_parties=build.spec.n_parties,
        eta=build.spec.eta,
        p_suc=sum(o.success_probability for o in outcomes),
        p_hr=sum(o.probability for o in outcomes),
    )
