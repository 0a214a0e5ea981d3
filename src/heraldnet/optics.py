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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .fock import (
    Mode,
    ModeCollisionError,
    ModeRegistry,
    Monomial,
    PhotonicState,
    RegistryError,
)

ISOMETRY_TOL = 1e-12

Column = tuple[tuple[int, complex], ...]


class TermBudgetError(RuntimeError):
    """Raised when an exact expansion would exceed the configured term cap."""


@dataclass(frozen=True)
class LinearMap:
    """Simultaneous substitution a_dag(in) -> sum coeff * a_dag(out)."""

    registry: ModeRegistry
    columns: dict[int, Column] = field(default_factory=dict)

    def output_indices(self) -> frozenset[int]:
        return frozenset(i for col in self.columns.values() for i, _ in col)

    def __repr__(self) -> str:  # keep debug output short
        return f"LinearMap({len(self.columns)} columns)"


@dataclass(frozen=True)
class Circuit:
    """Ordered sequence of stages, applied left to right by
    :func:`heraldnet.heralding.detection_ready_state`."""

    registry: ModeRegistry
    stages: tuple[LinearMap, ...]


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
    """Map equivalent to applying ``first`` then ``second``."""
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
                acc[out] = acc.get(out, 0j) + c1 * c2
        columns[idx] = tuple(sorted(acc.items()))
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


def rewire(registry: ModeRegistry, label_map: Mapping[str, str]) -> LinearMap:
    """Relabel spatial paths by a bijection, both polarizations at once."""
    if set(label_map.keys()) != set(label_map.values()):
        raise RegistryError("rewire must permute a fixed set of spatial labels")
    if len(set(label_map.values())) != len(label_map):
        raise RegistryError("rewire target labels must be distinct")
    columns: dict[int, Column] = {}
    for src, dst in label_map.items():
        for pol in ("H", "V"):
            src_mode = registry.get(src, pol)
            dst_mode = registry.get(dst, pol)
            columns[src_mode.index] = ((dst_mode.index, 1.0 + 0j),)
    return LinearMap(registry, columns)


# ----------------------------------------------------------------------
# Application and checks
# ----------------------------------------------------------------------

def apply(
    transform: LinearMap,
    state: PhotonicState,
    term_cap: int | None = None,
) -> PhotonicState:
    """Apply one map to a state by exact monomial expansion.

    Raises :class:`TermBudgetError` if the number of distinct monomials ever
    exceeds ``term_cap`` and :class:`ModeCollisionError` if an occupied
    unmapped mode collides with one of the map's outputs.
    """
    if transform.registry is not state.registry:
        raise RegistryError("map and state use different registries")
    columns = transform.columns
    outputs = transform.output_indices()
    new_terms: dict[Monomial, complex] = {}
    for monomial, amp in state.terms.items():
        # poly maps partial output monomials to amplitudes for this monomial.
        poly: dict[Monomial, complex] = {(): amp}
        for idx, count in monomial:
            col = columns.get(idx)
            if col is None:
                if idx in outputs:
                    mode = state.registry.mode(idx)
                    raise ModeCollisionError(
                        f"occupied mode {mode.spatial_label}/{mode.polarization} is unmapped "
                        "but appears among the map outputs"
                    )
                col = ((idx, 1.0 + 0j),)
            for _ in range(count):
                nxt: dict[Monomial, complex] = {}
                for partial, pamp in poly.items():
                    for out_idx, coeff in col:
                        # inline insertion of one photon at out_idx into the
                        # sorted tuple; this loop dominates total runtime
                        key = None
                        for pos, (i, c) in enumerate(partial):
                            if i == out_idx:
                                key = partial[:pos] + ((i, c + 1),) + partial[pos + 1 :]
                                break
                            if i > out_idx:
                                key = partial[:pos] + ((out_idx, 1),) + partial[pos:]
                                break
                        if key is None:
                            key = partial + ((out_idx, 1),)
                        val = nxt.get(key)
                        nxt[key] = pamp * coeff if val is None else val + pamp * coeff
                poly = nxt
        for key, value in poly.items():
            cur = new_terms.get(key)
            new_terms[key] = value if cur is None else cur + value
        if term_cap is not None and len(new_terms) > term_cap:
            raise TermBudgetError(f"expansion exceeded the term cap of {term_cap}")
    return PhotonicState(state.registry, new_terms)


def is_isometry(transform: LinearMap, tol: float = ISOMETRY_TOL) -> bool:
    """True iff the Gram matrix of the map's columns is the identity."""
    items = sorted(transform.columns.items())
    vecs = [dict(col) for _, col in items]
    for i, vi in enumerate(vecs):
        for j in range(i, len(vecs)):
            vj = vecs[j]
            acc = 0j
            for idx, c in vi.items():
                other = vj.get(idx)
                if other is not None:
                    acc += c.conjugate() * other
            want = 1.0 if i == j else 0.0
            if abs(acc - want) > tol:
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
