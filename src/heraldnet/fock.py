"""Sparse multimode Fock-state algebra over labelled optical modes.

States are kept as sparse maps from creation-operator monomials to complex
amplitudes.  A monomial is a product of creation operators acting on the
global vacuum, stored as a sorted tuple of ``(mode_index, occupation)``
pairs with every occupation strictly positive.  Nothing is ever represented
densely, so a network with dozens of modes but only a few thousand occupied
configurations stays cheap.

Conventions:

* Each mode is a ``(spatial label, polarization)`` pair with a bookkeeping
  role.  Diagonal polarizations D/A are *not* modes; they are expanded
  eagerly as (H +/- V)/sqrt(2) wherever they appear.
* Monomials are products of bare creation operators, so the squared norm of
  a single term with amplitude ``a`` and occupations ``k_1..k_m`` is
  ``|a|^2 * k_1! * ... * k_m!``.
* Amplitudes with magnitude below ``PRUNE_TOL`` are dropped on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

PRUNE_TOL = 1e-14

POLARIZATIONS = ("H", "V")
ROLES = ("retained", "detector", "environment", "internal")

# Monomial: sorted tuple of (mode index, occupation), occupation >= 1.
Monomial = tuple[tuple[int, int], ...]

class RegistryError(ValueError):
    """Raised for duplicate registrations or cross-registry mixups."""


class ModeCollisionError(ValueError):
    """Raised when an unmapped mode collides with a map output."""


@dataclass(frozen=True)
class Mode:
    """One bosonic mode of the network.

    Attributes:
        index: dense integer id assigned by the registry (registration order).
        spatial_label: path name such as ``"b1"`` or ``"c3"``.
        polarization: ``"H"`` or ``"V"``.
        role: one of ``retained``, ``detector``, ``environment``, ``internal``.
    """

    index: int
    spatial_label: str
    polarization: str
    role: str
    registry: "ModeRegistry" = field(compare=False, repr=False, default=None)  # type: ignore[assignment]


class ModeRegistry:
    """Assigns dense indices to modes and resolves (label, polarization) keys."""

    def __init__(self) -> None:
        self._modes: list[Mode] = []
        self._by_key: dict[tuple[str, str], Mode] = {}
        self._claimed_envs: set[int] = set()

    def register(self, spatial_label: str, polarization: str, role: str) -> Mode:
        if polarization not in POLARIZATIONS:
            raise RegistryError(f"polarization must be H or V, got {polarization!r}")
        if role not in ROLES:
            raise RegistryError(f"unknown mode role {role!r}")
        key = (spatial_label, polarization)
        if key in self._by_key:
            raise RegistryError(f"mode {key} registered twice")
        mode = Mode(len(self._modes), spatial_label, polarization, role, self)
        self._modes.append(mode)
        self._by_key[key] = mode
        return mode

    def get(self, spatial_label: str, polarization: str) -> Mode:
        try:
            return self._by_key[(spatial_label, polarization)]
        except KeyError:
            raise RegistryError(f"unregistered mode {(spatial_label, polarization)}") from None

    def mode(self, index: int) -> Mode:
        return self._modes[index]

    def claim_environment(self, mode: Mode) -> None:
        """Reserve an environment mode for a single loss element."""
        if mode.role != "environment":
            raise RegistryError(f"{mode.spatial_label}/{mode.polarization} is not an environment mode")
        if mode.index in self._claimed_envs:
            raise RegistryError(f"environment mode {mode.spatial_label}/{mode.polarization} reused")
        self._claimed_envs.add(mode.index)

    @property
    def modes(self) -> Sequence[Mode]:
        return tuple(self._modes)

    def __len__(self) -> int:
        return len(self._modes)


@dataclass
class PhotonicState:
    """Sparse superposition of creation-operator monomials on vacuum."""

    registry: ModeRegistry
    terms: dict[Monomial, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.terms = {m: complex(a) for m, a in self.terms.items() if abs(a) > PRUNE_TOL}

    def __len__(self) -> int:
        return len(self.terms)


def superpose(pairs: Iterable[tuple[complex, PhotonicState]]) -> PhotonicState:
    """Linear combination sum(c_i * s_i); all states must share a registry."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("superpose needs at least one state")
    registry = pairs[0][1].registry
    out: dict[Monomial, complex] = {}
    for coeff, state in pairs:
        if state.registry is not registry:
            raise RegistryError("cannot superpose states from different registries")
        for m, a in state.terms.items():
            out[m] = out.get(m, 0j) + coeff * a
    return PhotonicState(registry, out)


def monomial_from_counts(counts: Mapping[int, int]) -> Monomial:
    items = tuple(sorted((i, k) for i, k in counts.items() if k))
    for _, k in items:
        if k < 0:
            raise ValueError("negative occupation")
    return items


def state_from_creation_product(
    registry: ModeRegistry, modes: Sequence[Mode], amplitude: complex = 1.0
) -> PhotonicState:
    """State amplitude * prod a_dag(mode) |vac>; an empty list gives vacuum."""
    counts: dict[int, int] = {}
    for mode in modes:
        if registry.mode(mode.index) is not mode:
            raise RegistryError("mode does not belong to this registry")
        counts[mode.index] = counts.get(mode.index, 0) + 1
    return PhotonicState(registry, {monomial_from_counts(counts): complex(amplitude)})


def with_photons(state: PhotonicState, counts: Mapping[int, int]) -> PhotonicState:
    """Every monomial of ``state`` times ``counts[i]`` extra creation
    operators on mode ``i``; amplitudes are unchanged."""
    out: dict[Monomial, complex] = {}
    for monomial, amp in state.terms.items():
        merged = dict(monomial)
        for idx, k in counts.items():
            merged[idx] = merged.get(idx, 0) + k
        out[monomial_from_counts(merged)] = amp
    return PhotonicState(state.registry, out)


def _monomial_weight(monomial: Monomial) -> float:
    w = 1.0
    for _, k in monomial:
        if k > 1:
            w *= math.factorial(k)
    return w


def norm_squared(state: PhotonicState) -> float:
    """<s|s> with bosonic factorials: sum |a|^2 * prod(occupation!)."""
    return sum(abs(a) ** 2 * _monomial_weight(m) for m, a in state.terms.items())


def inner_product(left: PhotonicState, right: PhotonicState) -> complex:
    """Hermitian form <left|right>, conjugate-linear in ``left``."""
    if left.registry is not right.registry:
        raise RegistryError("inner product across different registries")
    if len(right.terms) < len(left.terms):
        return inner_product(right, left).conjugate()
    acc = 0j
    for m, a in left.terms.items():
        b = right.terms.get(m)
        if b is not None:
            acc += a.conjugate() * b * _monomial_weight(m)
    return acc
