"""Click-pattern analysis: heralding, success and efficiency metrics.

A herald is the event "every detector station saw exactly one photon".  For
each station the photon is resolved in the station's measurement basis, so a
click pattern for an n-party network is a length-n tuple of basis letters
("H"/"V" for the central schemes, "D"/"A" for the decentralized one).

All probabilities here are computed from the exact evolved amplitudes, never
from closed-form shortcuts; the closed forms live in :mod:`.analytic` and
the test-suite checks the two against each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .fock import PhotonicState, inner_product, norm_squared, with_photons
from .optics import LinearMap, apply, compose_maps
from .schemes import SchemeBuild, SchemeSpec

# Exhaustive amplitude tracking is exponential in the party count; past this
# size a single case needs minutes and gigabytes, so the drivers refuse it.
ORACLE_MAX_PARTIES = 6
DEFAULT_TERM_BUDGET = 10**8

AMPLITUDE_TOL = 1e-12

BASIS_LETTERS = {"HV": ("H", "V"), "DA": ("D", "A")}


class UndefinedMetricError(ArithmeticError):
    """Raised when a ratio metric has a vanishing denominator."""


class NoGhzComponentError(ValueError):
    """Raised when a click pattern leaves no GHZ amplitude to correct."""


class OracleSizeError(ValueError):
    """Raised when a requested network is too large for exact simulation."""


def check_oracle_size(n: int) -> None:
    if n > ORACLE_MAX_PARTIES:
        raise OracleSizeError(
            f"exact simulation is capped at {ORACLE_MAX_PARTIES} parties, got {n}; "
            "use the closed-form evaluators for larger networks"
        )


def enumerate_patterns(n: int, basis: str) -> list[tuple[str, ...]]:
    """All click patterns in lexicographic order of the basis letters."""
    letters = BASIS_LETTERS[basis]
    return list(itertools.product(letters, repeat=n))


def detector_rotation(spec: SchemeSpec) -> LinearMap:
    """Basis change that moves diagonal-basis content into the H/V slots.

    Maps d_H -> (d_H + d_V)/sqrt(2) and d_V -> (d_H - d_V)/sqrt(2) on every
    detector pair, so a D photon lands in the H slot and an A photon in the
    V slot.  The map is its own inverse.
    """
    r = 1.0 / math.sqrt(2.0)
    columns = {}
    for dh, dv in spec.detector_stations:
        columns[dh.index] = ((dh.index, r), (dv.index, r))
        columns[dv.index] = ((dh.index, r), (dv.index, -r))
    return LinearMap(spec.registry, columns)


def detection_ready_state(build: SchemeBuild) -> PhotonicState:
    """Evolve through the full network and align detector slots with the
    measurement basis so occupation projections implement the detection.

    For diagonal-basis detection the basis rotation is composed into the
    final circuit stage, which saves one full pass over the largest state;
    the result is identical to applying the rotation separately.
    """
    stages = list(build.circuit.stages)
    if build.spec.detection_basis == "DA":
        stages[-1] = compose_maps(stages[-1], detector_rotation(build.spec))
    state = build.state
    for stage in stages:
        state = apply(stage, state, term_cap=DEFAULT_TERM_BUDGET)
    return state


def _target_signature(pattern: tuple[str, ...]) -> tuple[int, ...]:
    occs: list[int] = []
    for letter in pattern:
        if letter in ("H", "D"):
            occs.extend((1, 0))
        else:
            occs.extend((0, 1))
    return tuple(occs)


@dataclass(frozen=True)
class PatternOutcome:
    """Everything the metrics need about a single click pattern.

    ``probability`` is the chance of seeing this pattern; ``ghz_amplitudes``
    are the overlaps of the conditional state (environment in vacuum) with
    the two reference product strings; ``environment_histogram`` gives the
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

    def feedforward_phase(self, tol: float = AMPLITUDE_TOL) -> float:
        """Relative phase between the two GHZ branches, in [0, 2 pi)."""
        x, y = self.ghz_amplitudes
        if abs(x) <= tol or abs(y) <= tol:
            raise NoGhzComponentError(
                f"pattern {''.join(self.pattern)} has no correctable GHZ component"
            )
        phase = math.atan2((y / x).imag, (y / x).real)
        return phase % (2.0 * math.pi)


@dataclass(frozen=True)
class Metrics:
    scheme: str
    n_parties: int
    eta: float
    p_suc: float
    p_hr: float

    def __post_init__(self) -> None:
        slack = 1e-12
        if not -slack <= self.p_suc <= self.p_hr + slack:
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
    """One pass over the evolved state, bucketed by detector signature."""
    spec = build.spec
    detector_indices = [m.index for pair in spec.detector_stations for m in pair]
    n_slots = len(detector_indices)
    d_min = len(spec.registry) - n_slots
    if detector_indices != list(range(d_min, d_min + n_slots)):
        raise ValueError(
            "detector modes must be the last registered modes, in station order"
        )
    ready = detection_ready_state(build)
    env_indices = {m.index for m in spec.environment_modes}

    # Detector modes come last in the registry, so their entries form a
    # suffix of every sorted monomial; scan backwards to read the signature.
    buckets: dict[tuple[int, ...], dict] = {}
    for monomial, amp in ready.terms.items():
        sig = [0] * n_slots
        for idx, occ in reversed(monomial):
            if idx < d_min:
                break
            sig[idx - d_min] = occ
        buckets.setdefault(tuple(sig), {})[monomial] = amp

    outcomes = []
    for pattern in enumerate_patterns(spec.n_parties, spec.detection_basis):
        bucket = buckets.get(_target_signature(pattern), {})
        conditional = PhotonicState(spec.registry, dict(bucket))
        probability = norm_squared(conditional)

        extra = {idx: occ for idx, occ in zip(detector_indices, _target_signature(pattern)) if occ}
        bras = tuple(with_photons(s, extra) for s in spec.ghz_pair)
        amplitudes = tuple(inner_product(bra, conditional) for bra in bras)

        histogram: dict[int, float] = {}
        for monomial, amp in bucket.items():
            env_total = sum(occ for idx, occ in monomial if idx in env_indices)
            weight = abs(amp) ** 2
            for idx, occ in monomial:
                if occ > 1:
                    weight *= math.factorial(occ)
            histogram[env_total] = histogram.get(env_total, 0.0) + weight

        outcomes.append(
            PatternOutcome(
                pattern=pattern,
                probability=probability,
                ghz_amplitudes=amplitudes,
                environment_histogram=tuple(sorted(histogram.items())),
            )
        )
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


def false_herald_breakdown(build: SchemeBuild) -> list[PatternOutcome]:
    """Per-pattern report, most probable pattern first.

    A "false herald" is a click pattern accepted by the detectors while one
    or more photons leaked into the environment; the histogram column shows
    how much of each pattern's probability comes from each leak size.
    """
    outcomes = analyze_patterns(build)
    return sorted(outcomes, key=lambda o: (-o.probability, o.pattern))
