"""Linear-optical elements as isometric creation-operator substitutions.

Every element is a :class:`LinearMap`: a set of columns sending one input
mode's creation operator to a linear combination of output creation
operators.  Modes absent from the map pass through unchanged.  Applying a
map to a state substitutes each creation operator in each monomial and
recombines like terms, which is exact for any photon number.

Element conventions (fixed so intermediate states are directly comparable
term by term with the usual treatment of these networks):

* 50:50 splitter, single input port used: ``a -> (b + c)/sqrt(2)`` with no
  relative phase.
* Loss of transmission ``eta``: ``c -> eta*c + sqrt(1-eta^2)*f`` with a
  dedicated environment mode ``f``; each environment mode may serve exactly
  one loss element.
* D/A polarizing splitter: ``c_H -> (d_D + a_A)/sqrt(2)``,
  ``c_V -> (d_D - a_A)/sqrt(2)`` where ``d_D``/``a_A`` are the diagonal
  superpositions of the two output labels' H/V modes, expanded eagerly.
* H/V polarizing splitter: H of the first input goes straight through, V is
  reflected, and vice versa for the second input, all with unit coefficient
  in the canonical H/V basis.
* Half-wave plate: ``H -> (H + V)/sqrt(2)``, ``V -> (H - V)/sqrt(2)``, which
  turns a diagonal-basis measurement into an H/V one.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property
from typing import Iterable, Sequence

from .fock import (
    BITS,
    MAX_OCCUPATION,
    Mode,
    ModeCollisionError,
    ModeRegistry,
    PhotonicState,
    RegistryError,
    cancel_add,
    pack,
)

# An isometry's Gram entry of k products is off by at most gamma_(k+4) = (k+4)u / (1 - (k+4)u)
# times the sum of their magnitudes (Higham 2002, sec. 3.1): rounding each coefficient once adds
# gamma_2, the complex product sqrt(2) gamma_2 < gamma_3 (lemma 3.5), the k-1 additions gamma_(k-1).
UNIT_ROUNDOFF = 2.0 ** -53

Column = tuple[tuple[int, complex], ...]


class LinearMap:
    """Simultaneous substitution a_dag(in) -> sum coeff * a_dag(out).

    A map's columns must not change after construction: :func:`apply`
    caches its :attr:`plan` on first use."""

    def __init__(self, registry: ModeRegistry, columns: dict[int, Column] | None = None) -> None:
        self.registry = registry
        self.columns = {} if columns is None else columns

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not LinearMap:
            return NotImplemented
        return (self.registry, self.columns) == (other.registry, other.columns)

    @cached_property
    def plan(self) -> tuple[int, int, dict[int, tuple[tuple[int, complex], ...]]]:
        """The packed masks of the input and the output modes, and each
        input mode's column as (output key, coefficient) steps, keyed by
        the mode's bit offset in a packed key."""
        outputs = {i for col in self.columns.values() for i, _ in col}
        steps = {BITS * idx: tuple((1 << (BITS * out), coeff) for out, coeff in col)
                 for idx, col in self.columns.items()}
        return (pack(dict.fromkeys(self.columns, MAX_OCCUPATION)),
                pack(dict.fromkeys(outputs, MAX_OCCUPATION)), steps)

    def __repr__(self) -> str:  # keep debug output short
        return f"LinearMap({len(self.columns)} columns)"


def merge_maps(maps: Sequence[LinearMap]) -> LinearMap:
    """Combine disjoint-input maps into a single stage."""
    if not maps:
        raise ValueError("merge_maps needs at least one map")
    registry = maps[0].registry
    columns: dict[int, Column] = {}
    for m in maps:
        if m.registry is not registry:
            raise RegistryError("cannot merge maps from different registries")
        for idx, col in m.columns.items():
            if idx in columns:
                mode = registry.mode(idx)
                raise RegistryError(
                    f"input mode {mode.spatial_label}/{mode.polarization} mapped twice in one stage"
                )
            columns[idx] = col
    return LinearMap(registry, columns)


def compose_maps(first: LinearMap, second: LinearMap) -> LinearMap:
    """Map equivalent to applying ``first`` then ``second``.  Like outputs
    merge through :func:`heraldnet.fock.cancel_add`, and exact zeros are
    dropped, so a cancellation leaves no entry."""
    if first.registry is not second.registry:
        raise RegistryError("cannot compose maps from different registries")
    columns: dict[int, Column] = {}
    inputs = set(first.columns) | set(second.columns)
    for idx in inputs:
        col1 = first.columns.get(idx, ((idx, 1.0 + 0j),))
        acc: dict[int, complex] = {}
        for mid, c1 in col1:
            col2 = second.columns.get(mid, ((mid, 1.0 + 0j),))
            for out, c2 in col2:
                cur = acc.get(out)
                acc[out] = c1 * c2 if cur is None else cancel_add(cur, c1 * c2)
        columns[idx] = _prune_column(sorted(acc.items()))
    return LinearMap(first.registry, columns)


# ----------------------------------------------------------------------
# Element constructors
# ----------------------------------------------------------------------

def loss_channel(in_mode: Mode, env_mode: Mode, eta: float) -> LinearMap:
    """Beam-splitter loss model: in -> eta*in + sqrt(1-eta^2)*env."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmission eta must lie in [0, 1], got {eta}")
    registry = _shared_registry(in_mode, env_mode)
    registry.claim_environment(env_mode)
    col: Column = ((in_mode.index, complex(eta)), (env_mode.index, complex(math.sqrt(1.0 - eta * eta))))
    return LinearMap(registry, {in_mode.index: _prune_column(col)})


def bs_5050(in_mode: Mode, out_mode_1: Mode, out_mode_2: Mode) -> LinearMap:
    """Phase-free 50:50 splitter on a single input port."""
    registry = _shared_registry(in_mode, out_mode_1, out_mode_2)
    if not (in_mode.polarization == out_mode_1.polarization == out_mode_2.polarization):
        raise RegistryError("bs_5050 outputs must carry the input polarization")
    r = 1.0 / math.sqrt(2.0)
    return LinearMap(
        registry,
        {in_mode.index: ((out_mode_1.index, complex(r)), (out_mode_2.index, complex(r)))},
    )


def pbs_da(
    in_pair: tuple[Mode, Mode],
    out_d_pair: tuple[Mode, Mode],
    out_a_pair: tuple[Mode, Mode],
) -> LinearMap:
    """Polarizing splitter in the diagonal basis.

    The D component of the input path exits on the first output label, the A
    component on the second.  Written over canonical H/V modes this is the
    2-in/4-out isometry

        in_H -> (d_H + d_V)/2 + (a_H - a_V)/2
        in_V -> (d_H + d_V)/2 - (a_H - a_V)/2

    with ``d``/``a`` the H/V pairs of the two output labels.
    """
    in_h, in_v = _hv_pair(in_pair)
    d_h, d_v = _hv_pair(out_d_pair)
    a_h, a_v = _hv_pair(out_a_pair)
    registry = _shared_registry(in_h, in_v, d_h, d_v, a_h, a_v)
    half = 0.5 + 0j
    col_h: Column = ((d_h.index, half), (d_v.index, half), (a_h.index, half), (a_v.index, -half))
    col_v: Column = ((d_h.index, half), (d_v.index, half), (a_h.index, -half), (a_v.index, half))
    return LinearMap(registry, {in_h.index: col_h, in_v.index: col_v})


def pbs_hv(
    in_pair_1: tuple[Mode, Mode],
    in_pair_2: tuple[Mode, Mode],
    out_pair_through: tuple[Mode, Mode],
    out_pair_cross: tuple[Mode, Mode],
) -> LinearMap:
    """Polarizing splitter in the canonical basis.

    H of input 1 and V of input 2 leave on the "through" label; V of input 1
    and H of input 2 leave on the "cross" label.  In H/V terms this is a pure
    rewiring, so e.g. an A-polarized photon on input 2 becomes
    (cross_H - through_V)/sqrt(2).
    """
    b_h, b_v = _hv_pair(in_pair_1)
    c_h, c_v = _hv_pair(in_pair_2)
    e_h, e_v = _hv_pair(out_pair_through)
    d_h, d_v = _hv_pair(out_pair_cross)
    registry = _shared_registry(b_h, b_v, c_h, c_v, e_h, e_v, d_h, d_v)
    one = 1.0 + 0j
    return LinearMap(
        registry,
        {
            b_h.index: ((e_h.index, one),),
            b_v.index: ((d_v.index, one),),
            c_h.index: ((d_h.index, one),),
            c_v.index: ((e_v.index, one),),
        },
    )


def phase_plate(mode: Mode, phase: float) -> LinearMap:
    """Pure phase e^{i*phase} on one mode."""
    return LinearMap(_shared_registry(mode), {mode.index: ((mode.index, cmath.exp(1j * phase)),)})


def half_wave_plate(pair: tuple[Mode, Mode]) -> LinearMap:
    """Half-wave plate at 22.5 degrees: H -> (H + V)/sqrt(2), V -> (H - V)/sqrt(2).

    It moves D content into the H slot and A content into the V slot, and
    it is its own inverse.
    """
    h, v = _hv_pair(pair)
    r = 1.0 / math.sqrt(2.0)
    return LinearMap(_shared_registry(h, v), {h.index: ((h.index, r), (v.index, r)),
                                              v.index: ((h.index, r), (v.index, -r))})


# ----------------------------------------------------------------------
# Application and checks
# ----------------------------------------------------------------------

def apply(transform: LinearMap, state: PhotonicState) -> PhotonicState:
    """Apply one map to a state by exact monomial expansion.

    An input monomial splits into its mapped photons ``key & in_mask`` and
    its unmapped spectators ``rest``.  The mapped photons are substituted
    one at a time, starting from ``rest`` at the input's amplitude; only
    the modes the monomial occupies are visited, lowest mode first, so
    every sum runs in ascending mode order.  Like terms are merged with
    :func:`heraldnet.fock.cancel_add`, so a cancellation leaves an exact
    zero.  The masks and steps come from the map's cached
    :attr:`LinearMap.plan`.

    Raises :class:`ModeCollisionError` if an occupied unmapped mode collides
    with a map output.  The term count is not capped here: the drivers
    refuse networks past :data:`heraldnet.heralding.ORACLE_MAX_PARTIES`.
    """
    if transform.registry is not state.registry:
        raise RegistryError("map and state use different registries")
    in_mask, out_mask, steps = transform.plan
    new_terms: dict[int, complex] = {}
    for key, amp in state.amplitudes.items():
        mapped = key & in_mask
        rest = key ^ mapped
        clash = rest & out_mask
        if clash:
            mode = state.registry.mode(((clash & -clash).bit_length() - 1) // BITS)
            raise ModeCollisionError(
                f"occupied mode {mode.spatial_label}/{mode.polarization} is unmapped "
                "but appears among the map outputs"
            )
        poly = {rest: amp}
        while mapped:
            shift = ((mapped & -mapped).bit_length() - 1) // BITS * BITS
            count = (mapped >> shift) & MAX_OCCUPATION
            mapped ^= count << shift
            col = steps[shift]
            for _ in range(count):
                nxt: dict[int, complex] = {}
                for partial, pamp in poly.items():
                    for step, coeff in col:
                        out = partial + step
                        val = nxt.get(out)
                        nxt[out] = pamp * coeff if val is None else cancel_add(val, pamp * coeff)
                poly = nxt
        for out, value in poly.items():
            cur = new_terms.get(out)
            new_terms[out] = value if cur is None else cancel_add(cur, value)
    return PhotonicState(state.registry, new_terms)


def is_isometry(transform: LinearMap) -> bool:
    """True iff the Gram matrix of the map's columns is the identity, each
    entry of k products to within gamma_(k+4) times their magnitudes' sum."""
    items = sorted(transform.columns.items())
    vecs = [dict(col) for _, col in items]
    for i, vi in enumerate(vecs):
        for j, vj in enumerate(vecs[i:], i):
            acc, scale, k = 0j, 0.0, 0
            for idx, c in vi.items():
                other = vj.get(idx)
                if other is not None:
                    acc += c.conjugate() * other
                    scale += abs(c) * abs(other)
                    k += 1
            want = 1.0 if i == j else 0.0
            if abs(acc - want) > (k + 4) * UNIT_ROUNDOFF / (1 - (k + 4) * UNIT_ROUNDOFF) * scale:
                return False
    return True


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _prune_column(col: Iterable[tuple[int, complex]]) -> Column:
    return tuple((i, c) for i, c in col if abs(c) > 0.0)


def _hv_pair(pair: tuple[Mode, Mode]) -> tuple[Mode, Mode]:
    a, b = pair
    if {a.polarization, b.polarization} != {"H", "V"} or a.spatial_label != b.spatial_label:
        raise RegistryError("expected the (H, V) mode pair of a single spatial label")
    return (a, b) if a.polarization == "H" else (b, a)


def _shared_registry(*modes: Mode) -> ModeRegistry:
    registry = modes[0].registry
    for m in modes:
        if m.registry is not registry or registry is None:
            raise RegistryError("all modes of one element must come from one registry")
    return registry
