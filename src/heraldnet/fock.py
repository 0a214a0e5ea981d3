"""Sparse multimode Fock-state algebra over labelled optical modes.

States are kept as sparse maps from creation-operator monomials to complex
amplitudes.  A monomial is a product of creation operators acting on the
global vacuum, packed into one int key with the occupation of mode ``i`` in
bits ``BITS*i`` to ``BITS*i + BITS-1``.  Nothing is ever represented
densely, so a network with dozens of modes but only a few thousand occupied
configurations stays cheap.

Conventions:

* Each mode is a ``(spatial label, polarization)`` pair with a bookkeeping
  role.  Diagonal polarizations D/A are *not* modes; they are expanded
  eagerly as (H +/- V)/sqrt(2) wherever they appear.
* Monomials are products of bare creation operators, so the squared norm of
  a single term with amplitude ``a`` and occupations ``k_1..k_m`` is
  ``|a|^2 * k_1! * ... * k_m!``.
* A sum whose magnitude is at most ``CANCEL_TOL`` = 2^-46 times the sum of
  its parts' magnitudes is rounding residue of a cancellation, stored as an
  exact zero (:func:`cancel_residue`, used by :func:`cancel_add` and
  :func:`inner_product`); states drop exact zeros on construction and
  nothing else, so an amplitude is never lost for being small.
* A monomial holds at most ``MAX_OCCUPATION`` photons, so no occupation
  carries into the next mode's bits: photons enter only by adding keys, in
  :func:`with_photons`, :func:`product` and :func:`join`.  The first two
  check the total with :func:`_check_photons`, whatever calls :func:`join`
  calls it first, and linear maps conserve it.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Iterable, Mapping, NamedTuple, Sequence

# A true zero, summed from parts of k < 128 roundings each, reads at most gamma_k = k u / (1 - k u)
# < 128 u of their magnitudes, u = 2^-53 (Higham 2002, sec. 3.1); so a larger sum is an amplitude.
CANCEL_TOL = 2.0 ** -46

# Bits per mode in a packed monomial key: one hex digit per mode, which
# occupations() reads directly.
BITS = 4
MAX_OCCUPATION = (1 << BITS) - 1

POLARIZATIONS = ("H", "V")
ROLES = ("retained", "detector", "environment", "internal")

class RegistryError(ValueError):
    """Raised for duplicate registrations or cross-registry mixups."""


class ModeCollisionError(ValueError):
    """Raised when an occupied unmapped mode collides with a map output."""


class Mode(NamedTuple):
    """One bosonic mode of the network.

    Attributes:
        index: dense integer id assigned by the registry (registration order).
        spatial_label: path name such as ``"b1"`` or ``"c3"``.
        polarization: ``"H"`` or ``"V"``.
        role: one of ``retained``, ``detector``, ``environment``, ``internal``.
        registry: the registry that assigned ``index``; ``==``, ``hash`` and
            ``repr`` leave it out.
    """

    index: int
    spatial_label: str
    polarization: str
    role: str
    registry: ModeRegistry | None = None

    def __eq__(self, other: object) -> bool:
        return self[:4] == other[:4] if other.__class__ is Mode else NotImplemented

    def __ne__(self, other: object) -> bool:
        return self[:4] != other[:4] if other.__class__ is Mode else NotImplemented

    def __hash__(self) -> int:
        return hash(self[:4])

    def __repr__(self) -> str:
        return (f"Mode(index={self.index!r}, spatial_label={self.spatial_label!r}, "
                f"polarization={self.polarization!r}, role={self.role!r})")


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


class PhotonicState:
    """Sparse superposition of creation-operator monomials on vacuum.  It
    owns the ``amplitudes`` dict it is given, which is cleaned, not copied."""

    def __init__(self, registry: ModeRegistry, amplitudes: dict[int, complex] | None = None) -> None:
        self.registry = registry
        self.amplitudes = amplitudes = {} if amplitudes is None else amplitudes
        # In place and in key order: a cleaned copy would double a large state's peak.
        for key in [k for k, a in amplitudes.items() if not a]:
            del amplitudes[key]
        amplitudes.update([(k, complex(a)) for k, a in amplitudes.items() if type(a) is not complex])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PhotonicState:
            return NotImplemented
        return (self.registry, self.amplitudes) == (other.registry, other.amplitudes)

    def __repr__(self) -> str:
        return f"PhotonicState(registry={self.registry!r}, amplitudes={self.amplitudes!r})"

    def __len__(self) -> int:
        return len(self.amplitudes)

    @property
    def terms(self) -> dict[tuple[tuple[int, int], ...], complex]:
        """Read-only view keyed by ascending ``(mode, occupation)`` pairs, for tests."""
        return {tuple(occupations(key)): a for key, a in self.amplitudes.items()}


def cancel_residue(total: complex, scale: float) -> complex:
    """``total``, or an exact zero where it is rounding residue: at most
    ``CANCEL_TOL`` times ``scale``, the sum of its parts' magnitudes."""
    return total if abs(total) > CANCEL_TOL * scale else 0j


def cancel_add(a: complex, b: complex) -> complex:
    """``a + b``, or an exact zero where the two cancel to rounding residue."""
    return cancel_residue(a + b, abs(a) + abs(b))


def superpose(pairs: Iterable[tuple[complex, PhotonicState]]) -> PhotonicState:
    """Linear combination sum(c_i * s_i); all states must share a registry."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("superpose needs at least one state")
    registry = pairs[0][1].registry
    out: dict[int, complex] = {}
    for coeff, state in pairs:
        if state.registry is not registry:
            raise RegistryError("cannot superpose states from different registries")
        join({0: coeff}, state.amplitudes, out)
    return PhotonicState(registry, out)


def pack(counts: Mapping[int, int]) -> int:
    """Monomial key with ``counts[i]`` photons in mode ``i``."""
    key = 0
    for idx, k in counts.items():
        if not 0 <= k <= MAX_OCCUPATION:
            raise ValueError(f"occupation must lie in [0, {MAX_OCCUPATION}], got {k}")
        key += k << (BITS * idx)
    return key


def occupations(key: int) -> list[tuple[int, int]]:
    """The ``(mode index, occupation)`` pairs of a key, ascending, occupation >= 1."""
    return [(i, int(digit, 16)) for i, digit in enumerate(reversed(f"{key:x}")) if digit != "0"]


@cache
def _ones(width: int) -> int:
    """0x11...1 with a one in the lowest bit of every nibble of a ``width``-bit key (cached)."""
    return (1 << (width + BITS - 1) // BITS * BITS) // MAX_OCCUPATION


def photons(key: int) -> int:
    """The total photon number of a key of any width: the sum of its
    nibbles, counted one bit plane at a time."""
    ones = _ones(key.bit_length())
    return ((key & ones).bit_count() + 2 * (key >> 1 & ones).bit_count()
            + 4 * (key >> 2 & ones).bit_count() + 8 * (key >> 3 & ones).bit_count())


def _check_photons(factors: Iterable[Iterable[int]], added: int = 0) -> None:
    """Raise ``ValueError`` where the most photons a key of each factor holds,
    plus ``added``, sum past ``MAX_OCCUPATION``: a sum of one key of each
    factor could then carry out of a mode's bits."""
    for keys in factors:
        added += max([photons(key) for key in keys] or [0])
    if added > MAX_OCCUPATION:
        raise ValueError(f"a monomial holds at most {MAX_OCCUPATION} photons")


def join(state: dict[int, complex], local: dict[int, complex],
         out: dict[int, complex] | None = None) -> dict[int, complex]:
    """Every sum of a key of ``state`` and a key of ``local``, with the product of their
    values, merged into ``out`` (a new dict by default) through :func:`cancel_add`.
    The caller keeps the total photon count within ``MAX_OCCUPATION``."""
    out = {} if out is None else out
    get = out.get
    for key, v in state.items():
        for step, u in local.items():
            cur = get(joined := key + step)
            out[joined] = v * u if cur is None else cancel_add(cur, v * u)
    return out


def product(factors: Sequence[PhotonicState]) -> PhotonicState:
    """The product of states, taken one factor at a time; factors may share
    modes.  Like terms merge through :func:`cancel_add`, and exact zeros are
    dropped after each factor.  Raises ``ValueError`` past ``MAX_OCCUPATION``
    photons before multiplying."""
    registry = factors[0].registry
    if any(factor.registry is not registry for factor in factors):
        raise RegistryError("cannot multiply states from different registries")
    _check_photons(factor.amplitudes for factor in factors)
    state = {0: 1 + 0j}
    for factor in factors:
        state = {k: a for k, a in join(factor.amplitudes, state).items() if a}
    return PhotonicState(registry, state)


def state_from_creation_product(
    registry: ModeRegistry, modes: Sequence[Mode], amplitude: complex = 1.0
) -> PhotonicState:
    """State amplitude * prod a_dag(mode) |vac>; an empty list gives vacuum."""
    counts: dict[int, int] = {}
    for mode in modes:
        if registry.mode(mode.index) is not mode:
            raise RegistryError("mode does not belong to this registry")
        counts[mode.index] = counts.get(mode.index, 0) + 1
    return with_photons(PhotonicState(registry, {0: amplitude}), counts)


def with_photons(state: PhotonicState, counts: Mapping[int, int]) -> PhotonicState:
    """Every monomial of ``state`` times ``counts[i]`` extra creation
    operators on mode ``i``; amplitudes are unchanged."""
    _check_photons([state.amplitudes], sum(counts.values()))
    extra = pack(counts)
    return PhotonicState(state.registry, {key + extra: a for key, a in state.amplitudes.items()})


def _monomial_weight(key: int) -> float:
    """prod(occupation!) of a monomial: its squared norm at unit amplitude,
    over the nibbles with a bit above the lowest plane (two or more photons)."""
    w = 1.0
    high = (key >> 1 | key >> 2 | key >> 3) & _ones(key.bit_length())
    while high:
        low = high & -high
        w *= math.factorial((key >> (low.bit_length() - 1)) & MAX_OCCUPATION)
        high ^= low
    return w


def norm_squared(state: PhotonicState) -> float:
    """<s|s> with bosonic factorials: sum |a|^2 * prod(occupation!)."""
    return sum(abs(a) ** 2 * _monomial_weight(key) for key, a in state.amplitudes.items())


def inner_product(left: PhotonicState, right: PhotonicState) -> complex:
    """Hermitian form <left|right>, conjugate-linear in ``left``: the sum of
    conj(left[k]) * right[k] * prod(occupation!) over the smaller state's
    keys in its order (``left``'s on a tie), settled by
    :func:`cancel_residue` against the sum of the terms' magnitudes."""
    if left.registry is not right.registry:
        raise RegistryError("inner product across different registries")
    if len(right) < len(left):
        return inner_product(right, left).conjugate()
    acc, scale = 0j, 0.0
    others = right.amplitudes
    for key, a in left.amplitudes.items():
        b = others.get(key)
        if b is not None:
            term = a.conjugate() * b * _monomial_weight(key)
            acc += term
            scale += abs(term)
    return cancel_residue(acc, scale)
