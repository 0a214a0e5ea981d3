"""Network builders for the three heralded GHZ distribution schemes.

Each builder returns one initial photonic factor per party, the circuit
stages, and a :class:`SchemeSpec` describing where the detectors, retained
qubits and environment sit.  Party indices are 1-based and all "next party" wiring is
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
    basis: a half-wave plate on each ``d`` turns it into an H/V measurement.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .fock import (
    Mode,
    ModeRegistry,
    PhotonicState,
    product,
    state_from_creation_product,
    superpose,
)
from .optics import (
    LinearMap,
    bs_5050,
    compose_maps,
    half_wave_plate,
    loss_channel,
    merge_maps,
    pbs_da,
    pbs_hv,
    phase_plate,
)

SCHEMES = ("bc", "sc", "sd")

DEFAULT_ALPHA = 0.023  # fibre attenuation per km for the field amplitude


class GeometryError(ValueError):
    """Raised for inconsistent geometry parameters."""


def check_attenuation(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha >= 0):
        raise GeometryError(f"attenuation must be finite and non-negative, got {alpha}")


class _Geometry(NamedTuple):
    n_parties: int
    radius_km: float
    alpha: float = DEFAULT_ALPHA


class NetworkGeometry(_Geometry):
    """Parties on a circle of radius ``radius_km`` around the central node.
    Every construction is checked, ``_replace`` and ``_make`` included."""

    __slots__ = ()

    def __new__(cls, n_parties: int, radius_km: float, alpha: float = DEFAULT_ALPHA) -> NetworkGeometry:
        if n_parties < 2:
            raise GeometryError("a network needs at least two parties")
        if not (math.isfinite(radius_km) and radius_km >= 0):
            raise GeometryError(f"radius must be finite and non-negative, got {radius_km}")
        check_attenuation(alpha)
        return super().__new__(cls, n_parties, radius_km, alpha)

    @classmethod
    def _make(cls, fields: Iterable) -> NetworkGeometry:
        return cls(*fields)

    def link_length_km(self, scheme: str) -> float:
        """Fibre length per link: the radius for central schemes, the
        neighbour chord 2R sin(pi/N) for the decentralized one."""
        _check_scheme(scheme)
        if scheme == "sd":
            return chord_length(self.radius_km, self.n_parties)
        return self.radius_km


def chord_length(radius_km: float, n: int) -> float:
    """Distance 2 R sin(pi/N) between ring neighbours."""
    return 2.0 * radius_km * math.sin(math.pi / n)


def eta_for_geometry(scheme: str, geometry: NetworkGeometry) -> float:
    """Amplitude transmission e^(-alpha * link length) for one channel."""
    return math.exp(-geometry.alpha * geometry.link_length_km(scheme))


class SchemeSpec(NamedTuple):
    """Static description of a built network.

    ``detector_stations`` and ``retained_pairs`` are per-party (H, V) mode
    pairs; ``detection_basis`` (``"HV"`` or ``"DA"``) names the letters of
    each station's H and V slot, since the circuit itself ends in the
    measurement basis.  The target GHZ state is the balanced superposition
    of two orthonormal branches, each a product of one identical qubit per
    retained pair; ``ghz_qubits`` holds that qubit's (H, V) amplitudes in
    each branch.  ``feedforward_rule`` gives the phase that corrects a
    herald outcome: pi * ((count of the V-slot letter + ``feedforward_offset``) mod 2).
    """

    scheme: str
    n_parties: int
    eta: float
    registry: ModeRegistry
    detector_stations: tuple[tuple[Mode, Mode], ...]
    retained_pairs: tuple[tuple[Mode, Mode], ...]
    environment_modes: tuple[Mode, ...]
    detection_basis: str
    ghz_qubits: tuple[tuple[complex, complex], tuple[complex, complex]]
    feedforward_offset: int

    def feedforward_rule(self, pattern: tuple[str, ...]) -> float:
        return math.pi * ((pattern.count(self.detection_basis[1]) + self.feedforward_offset) % 2)


class SchemeBuild(NamedTuple):
    """One initial factor per party on disjoint modes, circuit stages in the
    order they apply, and spec.  The stages carry every optical element of
    the scheme, measurement basis changes included, so every scheme's
    detectors read H/V slots.  Substitution is multiplicative, so every
    stage may act on each party's factor alone."""

    parties: tuple[PhotonicState, ...]
    stages: tuple[LinearMap, ...]
    spec: SchemeSpec

    @property
    def state(self) -> PhotonicState:
        """The global initial state: the product of the parties' factors."""
        return product(self.parties)


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

def _bell_pairs(registry: ModeRegistry, n: int) -> tuple[PhotonicState, ...]:
    """Party i's polarization Bell pair (b_iH c_iV + b_iV c_iH)/sqrt(2), for each i."""
    r = 1.0 / math.sqrt(2.0)
    modes = [[registry.get(f"{p}{i}", pol) for p in "bc" for pol in "HV"] for i in range(1, n + 1)]
    return tuple(superpose([(r, state_from_creation_product(registry, [bh, cv])),
                            (r, state_from_creation_product(registry, [bv, ch]))])
                 for bh, bv, ch, cv in modes)


def _photon_pairs(registry: ModeRegistry, n: int) -> tuple[PhotonicState, ...]:
    """Party i's H and V photon on its source path, a_iH a_iV, for each i."""
    return tuple(state_from_creation_product(registry, [registry.get(f"a{i}", p) for p in "HV"])
                 for i in range(1, n + 1))


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

def build_bc(n: int, eta: float) -> SchemeBuild:
    """Bell-pair scheme with a central heralding station."""
    _check_params(n, eta)
    registry = ModeRegistry()
    b = _register_pairs(registry, "b", n, "retained")
    c = _register_pairs(registry, "c", n, "internal")
    return _central("bc", n, eta, _bell_pairs(registry, n), (), b, c)


def build_sc(n: int, eta: float) -> SchemeBuild:
    """Single-photon scheme with the same central station as ``bc``."""
    _check_params(n, eta)
    registry = ModeRegistry()
    a = _register_pairs(registry, "a", n, "internal")
    b = _register_pairs(registry, "b", n, "retained")
    c = _register_pairs(registry, "c", n, "internal")
    splitters = [bs_5050(a[i][k], b[i][k], c[i][k]) for i in range(n) for k in (0, 1)]
    return _central("sc", n, eta, _photon_pairs(registry, n), (merge_maps(splitters),), b, c)


def _central(scheme: str, n: int, eta: float, parties: tuple[PhotonicState, ...],
             source_stages: tuple[LinearMap, ...], b: list[tuple[Mode, Mode]],
             c: list[tuple[Mode, Mode]]) -> SchemeBuild:
    """The central station that ``bc`` and ``sc`` share: paths ``c`` cross
    a pi phase plate on ``c1`` (it flips no measurable quantity), lossy
    channels into environment ``f``, and a ring of diagonal-basis splitters
    onto detectors ``d``, measured in H/V; paths ``b`` are retained."""
    registry = b[0][0].registry
    f = _register_pairs(registry, "f", n, "environment")
    d = _register_pairs(registry, "d", n, "detector")
    c1_plate = merge_maps([phase_plate(c[0][0], math.pi), phase_plate(c[0][1], math.pi)])
    # Party i's D output feeds station i, its A output feeds station i+1.
    splitters = merge_maps([pbs_da(c[i], d[i], d[_nxt(i + 1, n) - 1]) for i in range(n)])
    r = 1.0 / math.sqrt(2.0)
    spec = SchemeSpec(
        scheme=scheme,
        n_parties=n,
        eta=eta,
        registry=registry,
        detector_stations=tuple(d),
        retained_pairs=tuple(b),
        environment_modes=_flatten(f),
        detection_basis="HV",
        # (H + V)/sqrt(2) and (H - V)/sqrt(2) on every pair
        ghz_qubits=((complex(r), complex(r)), (complex(r), complex(-r))),
        # fixed by the splitter sign conventions above (checked against the
        # simulated amplitudes in the tests, not assumed)
        feedforward_offset=n,
    )
    stages = (*source_stages, c1_plate, _loss_stage(c, f, eta), splitters)
    return SchemeBuild(parties, stages, spec)


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
    # Party i combines its own b with the c its predecessor sent (c[-1] is c_n).
    combine = merge_maps([pbs_hv(b[i], c[i - 1], e[i], d[i]) for i in range(n)])
    # A plate on each d sends D to d_H and A to d_V.  The plates' own columns
    # go: nothing feeds d before this stage, and they would break the isometry.
    fused = compose_maps(combine, merge_maps([half_wave_plate(pair) for pair in d]))
    measure = LinearMap(registry, {i: fused.columns[i] for i in combine.columns})

    stages = (merge_maps(input_pbs), loss, measure)
    spec = SchemeSpec(
        scheme="sd",
        n_parties=n,
        eta=eta,
        registry=registry,
        detector_stations=tuple(d),
        retained_pairs=tuple(e),
        environment_modes=_flatten(f) + _flatten(g),
        detection_basis="DA",
        ghz_qubits=((1 + 0j, 0j), (0j, 1 + 0j)),  # all H and all V
        feedforward_offset=0,  # the A-count parity alone fixes the phase for this wiring
    )
    return SchemeBuild(_photon_pairs(registry, n), stages, spec)


def build_scheme(scheme: str, n: int, eta: float) -> SchemeBuild:
    """Dispatch helper used by the experiment drivers."""
    _check_scheme(scheme)
    return {"bc": build_bc, "sc": build_sc, "sd": build_sd}[scheme](n, eta)


def _loss_stage(
    paths: list[tuple[Mode, Mode]], envs: list[tuple[Mode, Mode]], eta: float
) -> LinearMap:
    return merge_maps([loss_channel(p, e, eta) for pair, env in zip(paths, envs)
                       for p, e in zip(pair, env)])


def _flatten(pairs: list[tuple[Mode, Mode]]) -> tuple[Mode, ...]:
    return tuple(m for pair in pairs for m in pair)
