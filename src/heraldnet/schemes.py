"""Network builders for the three heralded GHZ distribution schemes.

Each builder returns the initial photonic state, the staged circuit, and a
:class:`SchemeSpec` describing where the detectors, retained qubits and
environment sit.  Party indices are 1-based and all "next party" wiring is
cyclic: ``nxt(i) = i % n + 1``.

Scheme summary (n parties, photon budget 2n):

``bc``
    Every party holds one Bell pair ``(b_H c_V + b_V c_H)/sqrt(2)``, keeps
    path ``b`` and sends path ``c`` through a lossy channel to a central
    ring of diagonal-basis polarizing splitters.  The D output of party i's
    splitter and the A output of party i-1's splitter merge on detector
    station ``d_i``, measured in H/V.

``sc``
    Every party holds two orthogonally polarized single photons, splits each
    on a 50:50 splitter between kept path ``b`` and channel ``c``; the
    central station is identical to ``bc``.

``sd``
    No central station.  Each party interferes its two photons on a local
    diagonal-basis splitter (path ``b`` returns home, path ``c`` goes to the
    next party), both paths are lossy, and a local canonical-basis splitter
    combines the returning ``b`` with the neighbour's ``c`` into a retained
    path ``e`` and a detector path ``d``.  Detection is in the diagonal
    basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .fock import (
    Mode,
    ModeRegistry,
    PhotonicState,
    state_from_creation_product,
    superpose,
    with_photons,
)
from .optics import (
    Circuit,
    LinearMap,
    bs_5050,
    loss_channel,
    merge_maps,
    pbs_da,
    pbs_hv,
    phase_plate,
    rewire,
)

SCHEMES = ("bc", "sc", "sd")

DEFAULT_ALPHA = 0.023  # fibre attenuation per km for the field amplitude


class GeometryError(ValueError):
    """Raised for inconsistent geometry parameters."""


@dataclass(frozen=True)
class NetworkGeometry:
    """Parties on a circle of radius ``radius_km`` around the central node."""

    n_parties: int
    radius_km: float
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if self.n_parties < 2:
            raise GeometryError("a network needs at least two parties")
        if self.radius_km < 0:
            raise GeometryError("radius must be non-negative")
        if self.alpha < 0:
            raise GeometryError("attenuation must be non-negative")

    def link_length_km(self, scheme: str) -> float:
        """Fibre length per link: the radius for central schemes, the
        neighbour chord 2R sin(pi/N) for the decentralized one."""
        _check_scheme(scheme)
        if scheme == "sd":
            return 2.0 * self.radius_km * math.sin(math.pi / self.n_parties)
        return self.radius_km


def eta_for_geometry(scheme: str, geometry: NetworkGeometry) -> float:
    """Amplitude transmission e^(-alpha * link length) for one channel."""
    return math.exp(-geometry.alpha * geometry.link_length_km(scheme))


@dataclass(frozen=True)
class SchemeSpec:
    """Static description of a built network.

    ``detector_stations`` and ``retained_pairs`` are per-party (H, V) mode
    pairs; ``detection_basis`` is ``"HV"`` or ``"DA"``; ``ghz_pair`` holds
    the two orthonormal retained states whose balanced superposition is the
    target GHZ state; ``feedforward_rule`` predicts the correcting phase for
    a herald outcome tuple.
    """

    scheme: str
    n_parties: int
    eta: float
    registry: ModeRegistry
    detector_stations: tuple[tuple[Mode, Mode], ...]
    retained_pairs: tuple[tuple[Mode, Mode], ...]
    environment_modes: tuple[Mode, ...]
    detection_basis: str
    ghz_pair: tuple[PhotonicState, PhotonicState]
    feedforward_rule: Callable[[tuple[str, ...]], float]


class SchemeBuild(NamedTuple):
    state: PhotonicState
    circuit: Circuit
    spec: SchemeSpec


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def _check_params(n: int, eta: float) -> None:
    if n < 2:
        raise ValueError("need at least two parties")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmission eta must lie in [0, 1], got {eta}")


def _nxt(i: int, n: int) -> int:
    return i % n + 1


def _register_pairs(registry: ModeRegistry, prefix: str, n: int, role: str) -> list[tuple[Mode, Mode]]:
    return [
        (registry.register(f"{prefix}{i}", "H", role), registry.register(f"{prefix}{i}", "V", role))
        for i in range(1, n + 1)
    ]


# ----------------------------------------------------------------------
# Initial states
# ----------------------------------------------------------------------

def bell_initial_state(registry: ModeRegistry, n: int) -> PhotonicState:
    """Product of n polarization Bell pairs (b_H c_V + b_V c_H)/sqrt(2).

    Expanded eagerly into 2^n monomials with amplitude 2^(-n/2) each.
    """
    state = state_from_creation_product(registry, [])
    r = 1.0 / math.sqrt(2.0)
    for i in range(1, n + 1):
        bh, bv = registry.get(f"b{i}", "H"), registry.get(f"b{i}", "V")
        ch, cv = registry.get(f"c{i}", "H"), registry.get(f"c{i}", "V")
        state = superpose(
            [
                (r, with_photons(state, {bh.index: 1, cv.index: 1})),
                (r, with_photons(state, {bv.index: 1, ch.index: 1})),
            ]
        )
    return state


def single_photon_initial_state(registry: ModeRegistry, n: int) -> PhotonicState:
    """One H and one V photon per party on the source paths: prod a_iH a_iV."""
    modes: list[Mode] = []
    for i in range(1, n + 1):
        modes.append(registry.get(f"a{i}", "H"))
        modes.append(registry.get(f"a{i}", "V"))
    return state_from_creation_product(registry, modes)


# ----------------------------------------------------------------------
# Shared GHZ bookkeeping
# ----------------------------------------------------------------------

def _diagonal_string(pairs: list[tuple[Mode, Mode]], sign: float) -> PhotonicState:
    """Normalized product over parties of (H + sign*V)/sqrt(2) on given pairs."""
    registry = pairs[0][0].registry
    state = state_from_creation_product(registry, [])
    r = 1.0 / math.sqrt(2.0)
    for h, v in pairs:
        state = superpose(
            [(r, with_photons(state, {h.index: 1})), (sign * r, with_photons(state, {v.index: 1}))]
        )
    return state


def _canonical_string(pairs: list[tuple[Mode, Mode]], which: str) -> PhotonicState:
    registry = pairs[0][0].registry
    modes = [h if which == "H" else v for h, v in pairs]
    return state_from_creation_product(registry, modes)


def _central_feedforward(n: int) -> Callable[[tuple[str, ...]], float]:
    # Phase between the two diagonal GHZ strings: pi * (V-count + n) mod 2,
    # fixed by the splitter sign conventions above (checked against the
    # simulated amplitudes in the tests, not assumed).
    def rule(pattern: tuple[str, ...]) -> float:
        return math.pi * ((pattern.count("V") + n) % 2)

    return rule


def _decentral_feedforward(n: int) -> Callable[[tuple[str, ...]], float]:
    del n  # the A-count parity alone fixes the phase for this wiring
    def rule(pattern: tuple[str, ...]) -> float:
        return math.pi * (pattern.count("A") % 2)

    return rule


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

def build_bc(n: int, eta: float, compensate_c1: bool = True) -> SchemeBuild:
    """Bell-pair scheme with a central heralding station.

    ``compensate_c1`` inserts the pi phase plate on path ``c1`` before the
    central splitters; it flips no measurable quantity and is exposed only
    so the invariance can be tested.
    """
    _check_params(n, eta)
    registry = ModeRegistry()
    b = _register_pairs(registry, "b", n, "retained")
    c = _register_pairs(registry, "c", n, "internal")
    f = _register_pairs(registry, "f", n, "environment")
    d = _register_pairs(registry, "d", n, "detector")

    stages: list[LinearMap] = []
    if compensate_c1:
        stages.append(
            merge_maps([phase_plate(c[0][0], math.pi), phase_plate(c[0][1], math.pi)])
        )
    stages.append(_loss_stage(c, f, eta))
    stages.append(_central_pbs_stage(c, d, n))

    spec = SchemeSpec(
        scheme="bc",
        n_parties=n,
        eta=eta,
        registry=registry,
        detector_stations=tuple(d),
        retained_pairs=tuple(b),
        environment_modes=_flatten(f),
        detection_basis="HV",
        ghz_pair=(_diagonal_string(b, +1.0), _diagonal_string(b, -1.0)),
        feedforward_rule=_central_feedforward(n),
    )
    return SchemeBuild(bell_initial_state(registry, n), Circuit(registry, tuple(stages)), spec)


def build_sc(n: int, eta: float, compensate_c1: bool = True) -> SchemeBuild:
    """Single-photon scheme with the same central station as ``bc``."""
    _check_params(n, eta)
    registry = ModeRegistry()
    a = _register_pairs(registry, "a", n, "internal")
    b = _register_pairs(registry, "b", n, "retained")
    c = _register_pairs(registry, "c", n, "internal")
    f = _register_pairs(registry, "f", n, "environment")
    d = _register_pairs(registry, "d", n, "detector")

    splitters = []
    for i in range(n):
        splitters.append(bs_5050(a[i][0], b[i][0], c[i][0]))
        splitters.append(bs_5050(a[i][1], b[i][1], c[i][1]))
    stages: list[LinearMap] = [merge_maps(splitters)]
    if compensate_c1:
        stages.append(
            merge_maps([phase_plate(c[0][0], math.pi), phase_plate(c[0][1], math.pi)])
        )
    stages.append(_loss_stage(c, f, eta))
    stages.append(_central_pbs_stage(c, d, n))

    spec = SchemeSpec(
        scheme="sc",
        n_parties=n,
        eta=eta,
        registry=registry,
        detector_stations=tuple(d),
        retained_pairs=tuple(b),
        environment_modes=_flatten(f),
        detection_basis="HV",
        ghz_pair=(_diagonal_string(b, +1.0), _diagonal_string(b, -1.0)),
        feedforward_rule=_central_feedforward(n),
    )
    return SchemeBuild(single_photon_initial_state(registry, n), Circuit(registry, tuple(stages)), spec)


def build_sd(n: int, eta: float) -> SchemeBuild:
    """Single-photon scheme with detection distributed around the ring."""
    _check_params(n, eta)
    registry = ModeRegistry()
    a = _register_pairs(registry, "a", n, "internal")
    b = _register_pairs(registry, "b", n, "internal")
    c = _register_pairs(registry, "c", n, "internal")
    f = _register_pairs(registry, "f", n, "environment")
    g = _register_pairs(registry, "g", n, "environment")
    e = _register_pairs(registry, "e", n, "retained")
    d = _register_pairs(registry, "d", n, "detector")

    input_pbs = [pbs_da(a[i], b[i], c[i]) for i in range(n)]
    loss = merge_maps([_loss_stage(b, f, eta), _loss_stage(c, g, eta)])
    shift = rewire(registry, {f"c{i}": f"c{_nxt(i, n)}" for i in range(1, n + 1)})
    combine = [pbs_hv(b[i], c[i], e[i], d[i]) for i in range(n)]

    stages = (merge_maps(input_pbs), loss, shift, merge_maps(combine))
    spec = SchemeSpec(
        scheme="sd",
        n_parties=n,
        eta=eta,
        registry=registry,
        detector_stations=tuple(d),
        retained_pairs=tuple(e),
        environment_modes=_flatten(f) + _flatten(g),
        detection_basis="DA",
        ghz_pair=(_canonical_string(e, "H"), _canonical_string(e, "V")),
        feedforward_rule=_decentral_feedforward(n),
    )
    return SchemeBuild(single_photon_initial_state(registry, n), Circuit(registry, stages), spec)


def build_scheme(scheme: str, n: int, eta: float) -> SchemeBuild:
    """Dispatch helper used by the experiment drivers."""
    _check_scheme(scheme)
    if scheme == "bc":
        return build_bc(n, eta)
    if scheme == "sc":
        return build_sc(n, eta)
    return build_sd(n, eta)


def _loss_stage(
    paths: list[tuple[Mode, Mode]], envs: list[tuple[Mode, Mode]], eta: float
) -> LinearMap:
    maps = []
    for (ph, pv), (eh, ev) in zip(paths, envs):
        maps.append(loss_channel(ph, eh, eta))
        maps.append(loss_channel(pv, ev, eta))
    return merge_maps(maps)


def _central_pbs_stage(
    c: list[tuple[Mode, Mode]], d: list[tuple[Mode, Mode]], n: int
) -> LinearMap:
    # Party i's D output feeds station i, its A output feeds station i+1.
    maps = [pbs_da(c[i], d[i], d[_nxt(i + 1, n) - 1]) for i in range(n)]
    return merge_maps(maps)


def _flatten(pairs: list[tuple[Mode, Mode]]) -> tuple[Mode, ...]:
    return tuple(m for pair in pairs for m in pair)
