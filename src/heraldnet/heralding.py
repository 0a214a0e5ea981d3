"""Click-pattern analysis: heralding, success and efficiency metrics.

A herald is the event "every detector station saw exactly one photon".  Each
scheme's circuit ends in its measurement basis, so a station's photon sits
in its H or V slot, and a click pattern for an n-party network is a length-n
tuple of the letters the spec gives those slots ("H"/"V" for the central
schemes, "D"/"A" for the decentralized one).

All probabilities here are computed from the exact evolved amplitudes, never
from closed-form shortcuts; the closed forms live in :mod:`.analytic` and
the test-suite checks the two against each other.

One projection path serves every metric: :func:`compute_metrics` and
:func:`analyze_patterns` contract the evolved party factors around the
ring, a density sweep for the herald probability and one ket-only sweep
per GHZ branch for the amplitudes.  Both sweeps read one per-party closing
plan: each detector station, each other mode that several parties reach
and each retained pair closes right after the last party that reaches it.
A party reaches the modes of its light cone, read off the circuit
(:func:`_light_cones`): a superset only closes a unit later, still exactly.
The same walk pairs each party's circuit with its ring predecessor's, and
where the pairing also carries what the party's closing step reads, the
party is neither evolved nor contracted: its heralding terms and its
blocks in both sweeps are its predecessor's, relabelled by masked shifts
of the packed keys, to the bit.  So ``sd`` evolves one party per call, and
``bc`` and ``sc`` two, as the c1 plate sets their party 0 apart.
:func:`detection_ready_state` forms the heralded ket (about 8^N terms) from
the same per-party heralding terms and cones, with its own herald filter
on the keys' station slots and no closing plan; nothing here calls it, and
the tests use it as the independent reference.
"""

from __future__ import annotations

import itertools
import marshal
import math
import sys
from functools import reduce
from operator import or_
from typing import Iterable, NamedTuple

from .fock import (
    BITS,
    MAX_OCCUPATION,
    Mode,
    PhotonicState,
    _check_photons,
    _monomial_weight,
    _ones,
    cancel_add,
    inner_product,  # noqa: F401 - benchmarks/run.py --trace 1 times heralding.inner_product
    join,
    norm_squared,  # noqa: F401 - benchmarks/run.py --trace 1 times heralding.norm_squared
    pack,
    photons,
)
from .optics import apply
from .schemes import SchemeBuild, SchemeSpec

# The drivers refuse networks past this size.  Nothing here forms the heralded
# ket any more, and only one party (sd) or two (bc, sc) are evolved: on 2
# cores, Python 3.11, one fresh process per case, every scheme's
# compute_metrics at N=6 or 7 takes 1.5 to 5 ms and 16 MB (eta 0.9 and 0.5),
# and analyze_patterns at N=7 and eta 0.9 under 0.08 s and 20 MB.
# What refuses N=8 is fock's guard on 15 photons in all, which _contraction
# calls before the sweeps add packed keys: every scheme has 16 there,
# although a packed key holds 15 photons per mode (MAX_OCCUPATION), not 15
# in all.
ORACLE_MAX_PARTIES = 7


class UndefinedMetricError(ArithmeticError):
    """Raised when a ratio metric has a vanishing denominator, or a
    subnormal probability on either side."""


def _refuse_subnormal(metric: str, *probabilities: float) -> None:
    """Raise :class:`UndefinedMetricError` if a probability that ``metric``
    divides is nonzero but subnormal, where a quotient keeps too few
    significant bits to mean anything."""
    if any(0.0 < p < sys.float_info.min for p in probabilities):
        raise UndefinedMetricError(f"{metric} undefined: a probability is subnormal")


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
    return tuple(mask for mask, _, _ in _slots(spec.detector_stations))


# The masked shifts that move packed keys: the bits of the modes that map to
# themselves, and one (mask, up, down) per other mode offset.
Move = tuple[int, list[tuple[int, int, int]]]


def _light_cones(build: SchemeBuild) -> tuple[list[int], list[Move | None]]:
    """Each party's light cone, the packed mask of the modes it reaches, and
    for each party the map from its ring predecessor's modes onto its own
    that :func:`_predecessor_map` finds, or ``None``.

    One walk per party carries its initial modes through every stage, each
    occupied mapped mode swapped for its column's outputs in the stage's
    cached ``plan``, as :func:`apply` does, and keeps each stage's mapped
    modes.  Columns hold no zero, so a cone is the modes the evolved factor
    occupies, or a superset of them where amplitudes cancel.  A party with
    a cone mode that a stage leaves unmapped but among its outputs gets no
    map, so that :func:`apply` still raises on it."""
    cones, maps, walks, forms = [], [], [], {}

    def form(j: int) -> tuple:
        if j not in forms:
            forms[j] = _walk_form(*walks[j])
        return forms[j]

    for j, party in enumerate(build.parties):
        # A bit per occupied mode; OR keeps every nonzero nibble nonzero.
        key = reduce(or_, party.amplitudes, 0)
        cone = (key | key >> 1 | key >> 2 | key >> 3) & _ones(key.bit_length())
        modes, columns, blocked, bits = [], [], 0, cone
        while bits:
            bits ^= (low := bits & -bits)
            modes.append(low)
        counts = [len(modes)]
        for stage in build.stages:
            in_mask, out_mask, steps = stage.plan
            mapped = cone & in_mask
            cone ^= mapped
            blocked |= cone & out_mask
            while mapped:
                mapped ^= (low := mapped & -mapped)
                modes.append(low)
                columns.append(column := steps[low.bit_length() - 1])
                for step, _ in column:
                    cone |= step
            counts.append(len(modes))
        walks.append((party, modes, counts, columns))
        # Walks that map other numbers of modes never pair: no form is built.
        paired = j and not blocked and counts == walks[j - 1][2]
        maps.append(_predecessor_map(form(j - 1), form(j)) if paired else None)
        cones.append(cone * MAX_OCCUPATION)
    return cones, maps


def _walk_form(party: PhotonicState, modes: list[int], counts: list[int],
               columns: list[tuple]) -> tuple:
    """A cone walk's party, its distinct modes and its form.  ``modes`` are
    its initial modes, then each stage's mapped modes, lowest first, and
    ``counts`` their running number, before the first stage and after each;
    each mapped mode has its column.  The distinct modes, one bit each, are these and then each
    column's outputs, in order of first place.  The form numbers each mode
    by that place, and holds the counts, the length of each column and the
    bits of the initial amplitudes and of the coefficients, so two walks of
    one form pair their distinct modes one to one."""
    walked = modes + [u for column in columns for u, _ in column]
    index = {mode: place for place, mode in enumerate(dict.fromkeys(walked))}
    # marshal's format 2 writes no back-references, so equal bytes are
    # values equal to the bit and of one type (== takes -0.0 for 0.0).
    bits = marshal.dumps([list(party.amplitudes.values()),
                          [c for column in columns for _, c in column]], 2)
    return party, list(index), (counts, [index[mode] for mode in walked],
                                list(map(len, columns)), bits)


def _predecessor_map(prev: tuple, walk: tuple) -> Move | None:
    """The map from a party's ring predecessor's modes onto its own, as
    :func:`_mover`'s masked shifts, if the two walks of :func:`_walk_form`
    are one circuit on other modes; else ``None``.

    The walks pair their initial modes, then each stage's mapped modes in
    ascending order, then each column's outputs in column order, with equal
    coefficients; no mode may pair with two, and the initial factors must
    be equal once moved.  The mapped modes pair in ascending order, so
    :func:`apply` substitutes the party's photons in its predecessor's
    order: the evolved factor is the predecessor's, moved, key for key, in
    order and to the bit."""
    (party0, modes0, form0), (party1, modes1, form1) = prev, walk
    if form0 != form1:
        return None
    move = _mover(modes0, modes1)
    return move if _move(party0.amplitudes, move) == list(party1.amplitudes) else None


def _mover(modes0: list[int], modes1: list[int]) -> Move:
    """The masked shifts that move packed keys as each mode of ``modes0``
    maps to the one at its place in ``modes1`` (distinct modes, one bit
    each, as in a cone walk)."""
    masks: dict[int, int] = {}
    for x, y in zip(modes0, modes1):
        offset = y.bit_length() - x.bit_length()
        masks[offset] = masks.get(offset, 0) | x
    return (masks.pop(0, 0) * MAX_OCCUPATION,
            [(mask * MAX_OCCUPATION, max(d, 0), max(-d, 0)) for d, mask in masks.items()])


def _move(keys: Iterable[int], move: Move) -> list[int]:
    """``keys`` (re-iterable: a list or a dict) over the modes the move maps,
    moved."""
    keep, shifts = move
    (mask, up, down), *rest = shifts or [(0, 0, 0)]
    moved = [key & keep | (key & mask) << up >> down for key in keys]
    for mask, up, down in rest:
        moved = [m | (key & mask) << up >> down for m, key in zip(moved, keys)]
    return moved


def _evolved_parties(build: SchemeBuild, cones: list[int],
                     moves: list[Move | None]) -> list[list[tuple[int, complex]]]:
    """Each party's heralding terms: the ``(key, amplitude)`` pairs of its
    factor through every stage of ``build.stages`` on its own, which is
    exact for every scheme because substitution is multiplicative, with at
    most one photon in each station its cone reaches.  A party with a
    ``move`` is not evolved: its terms are its predecessor's, moved, in
    order.  Of ``sd`` N=4's four parties only party 0 calls :func:`apply`,
    3 calls in all where evolving each would take 12; of ``sc`` N=4's,
    parties 0 and 1, 8 calls where each would take 16."""
    stations = _slots(build.spec.detector_stations)
    terms: list[list[tuple[int, complex]]] = []
    for party, cone, move in zip(build.parties, cones, moves):
        if move:
            keys = _move([k for k, _ in terms[-1]], move)
            terms.append(list(zip(keys, (a for _, a in terms[-1]))))
            continue
        factor = reduce(lambda state, stage: apply(stage, state), build.stages, party)
        reached = [s for s in stations if cone & s[0]]
        reach, table = sum(mask for mask, _, _ in reached), _herald_keys(reached, vacant=True)
        terms.append([(k, a) for k, a in factor.amplitudes.items() if k & reach in table])
    return terms


def detection_ready_state(build: SchemeBuild) -> PhotonicState:
    """The heralded part of the evolved state, of squared norm P_hr: the
    tests' reference for the contraction, about 8^N terms.

    The heralding terms of the evolved party factors are multiplied one
    party at a time, as :func:`heraldnet.fock.product` multiplies states.
    A partial is kept while no station holds two photons and every station
    that no later party feeds holds exactly one.  Partials are grouped by
    their photons in the stations a later party feeds, and terms by theirs
    in every station, so that test runs once per pair of groups.
    """
    terms = [step[0] for step in _contraction(build)]
    cones, _ = _light_cones(build)
    stations = _slots(build.spec.detector_stations)
    station_modes = sum(mask for mask, _, _ in stations)
    grown, opened = {0: {0: 1 + 0j}}, stations  # before party 0 every station is open
    for j, own in enumerate(terms):
        later = reduce(or_, cones[j + 1:], 0)
        checks = [(m, (0, h, v) if m & later else (h, v)) for m, h, v in opened]
        opened = [s for s in opened if s[0] & later]
        open_modes = sum(mask for mask, _, _ in opened)
        groups: dict[int, dict[int, complex]] = {}
        for key, b in own:
            groups.setdefault(key & station_modes, {})[key] = b
        partials, grown = {t: {k: a for k, a in out.items() if a} for t, out in grown.items()}, {}
        for p in list(partials):
            olds = partials.pop(p)  # freed once used, which keeps the peak low
            for g, news in groups.items():
                if all((p + g) & m in ok for m, ok in checks):
                    join(news, olds, grown.setdefault((p + g) & open_modes, {}))
    return PhotonicState(build.spec.registry, reduce(or_, grown.values(), {}))


class PatternOutcome(NamedTuple):
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

    @property
    def success_probability(self) -> float:
        x, y = self.ghz_amplitudes
        return 0.5 * (abs(x) + abs(y)) ** 2

    @property
    def fidelity(self) -> float:
        """Overlap with the best phase-corrected GHZ state, given the click;
        0 for a pattern that never happens."""
        if self.probability <= 0.0:
            return 0.0
        _refuse_subnormal("fidelity", self.probability, self.success_probability)
        return self.success_probability / self.probability

    def feedforward_phase(self) -> float:
        """Relative phase between the two GHZ branches, in [0, 2 pi).

        A branch is absent only when its amplitude is an exact zero, which
        is what :func:`heraldnet.fock.cancel_add` gives for a
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


class _Metrics(NamedTuple):
    scheme: str
    n_parties: int
    eta: float
    p_suc: float
    p_hr: float


class Metrics(_Metrics):
    """Every construction is checked, ``_replace`` and ``_make`` included."""

    __slots__ = ()

    def __new__(cls, scheme: str, n_parties: int, eta: float, p_suc: float, p_hr: float) -> Metrics:
        slack = 1e-12
        # p_suc is a sum of squares, so it is never negative.
        if not 0.0 <= p_suc <= p_hr * (1.0 + slack):
            raise ValueError(f"inconsistent metrics: p_suc={p_suc} p_hr={p_hr}")
        if p_hr > 1.0 + slack:
            raise ValueError(f"herald probability {p_hr} exceeds 1")
        return super().__new__(cls, scheme, n_parties, eta, p_suc, p_hr)

    @classmethod
    def _make(cls, fields: Iterable) -> Metrics:
        return cls(*fields)

    @property
    def h_eff(self) -> float:
        if self.p_hr <= 0.0:
            raise UndefinedMetricError("heralding efficiency undefined: herald probability is zero")
        _refuse_subnormal("heralding efficiency", self.p_hr, self.p_suc)
        return self.p_suc / self.p_hr


def _merge(out: dict[int, complex], key: int, value: complex) -> None:
    cur = out.get(key)
    out[key] = value if cur is None else cancel_add(cur, value)


def _slots(pairs: tuple[tuple[Mode, Mode], ...]) -> list[tuple[int, int, int]]:
    """Each (H, V) mode pair's packed mask, and the keys of one photon in its
    H mode and in its V mode."""
    return [((h | v) * MAX_OCCUPATION, h, v)
            for h, v in ((1 << BITS * h.index, 1 << BITS * v.index) for h, v in pairs)]


def _herald_keys(stations: list[tuple[int, int, int]], vacant: bool = False) -> set[int]:
    """Every key that puts one photon in each of the ``stations`` (slots as
    :func:`_slots` gives them), or, if ``vacant``, one or none in each."""
    return {sum(keys) for keys in itertools.product(*((0, h, v) if vacant else (h, v)
                                                      for _, h, v in stations))}


def _contraction(build: SchemeBuild) -> list[tuple]:
    """The closing plan both sweeps read, one step per party: its heralding
    terms; its ``move`` or ``None``; its private modes, which no other
    party and no station reaches; the packed mask of the stations it closes
    and every key that puts one photon in each; the other modes it settles
    as the last of several parties to reach them; the retained pairs only
    it feeds; and those with several feeders that it closes.  A unit no
    party reaches closes after party 0, where its condition fails.

    A party whose predecessor maps onto it (:func:`_light_cones`) gets the
    masked shifts of that map as its ``move`` where they also carry what
    its blocks read: its private modes, its reached station slots and its
    lone pairs, H to H and V to V, and its stray and environment modes.
    Its terms and its blocks in both sweeps are then its predecessor's,
    moved.  The sweeps add packed keys, so, as
    :func:`heraldnet.fock.product` does, this raises ``ValueError`` past
    ``MAX_OCCUPATION`` photons in all."""
    _check_photons(party.amplitudes for party in build.parties)
    cones, maps = _light_cones(build)
    spec = build.spec
    stations, pairs = _slots(spec.detector_stations), _slots(spec.retained_pairs)
    station_modes = sum(mask for mask, _, _ in stations)
    plan = []
    for j, cone in enumerate(cones):
        earlier, later = reduce(or_, cones[:j], 0), reduce(or_, cones[j + 1:], 0)
        # A station or pair closes here if no later party reaches it, and this one does.
        closing, closed = ([s for s in slots if not s[0] & later and (s[0] & cone or not j)]
                           for slots in (stations, pairs))
        lone = [p for p in closed if p[0] & cone and not p[0] & earlier]
        plan.append((cone & ~(earlier | later | station_modes),
                     sum(mask for mask, _, _ in closing), _herald_keys(closing),
                     cone & earlier & ~later & ~station_modes,
                     lone, [p for p in closed if p not in lone]))
    moves = maps
    if any(maps):
        settled = station_modes | sum(mask for mask, _, _ in pairs)  # every other mode is stray
        env = pack(dict.fromkeys((m.index for m in spec.environment_modes), MAX_OCCUPATION))
        # What each party's blocks read within its cone: its private, settled
        # and environment modes and its lone pairs' slots, in order (the
        # branch sweeps project on them in turn); and its stations' slots.
        reads = [([private, cone & settled, cone & env,
                   *(x & cone for _, h, v in lone for x in (h, v))],
                  {(h & cone, v & cone) for mask, h, v in stations if mask & cone})
                 for cone, (private, _, _, _, lone, _) in zip(cones, plan)]
        moves = [move if move and _move(reads[j - 1][0], move) == reads[j][0]
                 and {(*_move(slot, move),) for slot in reads[j - 1][1]} == reads[j][1]
                 else None for j, move in enumerate(maps)]
    terms = _evolved_parties(build, cones, moves)
    return [(own, move, *step) for own, move, step in zip(terms, moves, plan)]


def _density(steps: list[tuple], width: int, signature: int = 0,
             counted: int = 0) -> dict[int, complex]:
    """The herald density by a sweep over the steps of :func:`_contraction`:
    with no ``signature`` and no ``counted`` modes, one entry at key 0 whose
    real part is P_hr.

    ``rho`` packs a ket key and a bra key over the open modes into one int,
    the bra above ``width`` bits and, above ``2 * width`` bits, the number of
    photons traced out of the ``counted`` modes, so packed keys add.
    Private modes are traced, with their k! weight, before the join.  A
    station closes with one photon, the same in ket and bra, its slots in
    ``signature`` kept in the ket key; a settled mode closes with equal
    occupations in ket and bra, and their k! weight.  A step with a
    ``move`` moves its predecessor's block, ket and bra alike; the photon
    count above them stays put."""
    low = (1 << width) - 1
    rho = {0: 1 + 0j}
    local: dict[int, complex] = {}
    for terms, move, private, stations, clicks, settle, _, _ in steps:
        if move:
            keep, shifts = move
            # The photon count above the ket and the bra stays put.
            wide = (keep << width | keep | -1 << 2 * width,
                    [(m << width | m, up, down) for m, up, down in shifts])
            local = dict(zip(_move(local, wide), local.values()))
        else:
            groups: dict[int, list[tuple[int, complex]]] = {}
            for key, a in terms:
                groups.setdefault(key & private, []).append((key & ~private, a))
            local = {}
            for part, group in groups.items():
                w = _monomial_weight(part)
                lost = photons(part & counted) << 2 * width if counted else 0
                bras = [(bra << width | lost, b.conjugate()) for bra, b in group]
                for ket, a in group:
                    a *= w
                    for bra, b in bras:
                        cur = local.get(key := ket | bra)
                        local[key] = a * b if cur is None else cancel_add(cur, a * b)
            local = {k: v for k, v in local.items() if v}
        shut = stations | settle
        rest = ~(shut & ~signature | shut << width)
        losing = settle & counted
        grown, rho = join(rho, local), {}
        for key, v in grown.items():
            ket, bra = key & low, key >> width
            if v and ket & stations in clicks and not (ket ^ bra) & shut:
                if losing:
                    key += photons(ket & losing) << 2 * width
                _merge(rho, key & rest, v * _monomial_weight(ket & settle))
    return rho


def _branch_overlaps(steps: list[tuple], spec: SchemeSpec) -> list[dict[int, complex]]:
    """Per GHZ branch, each click signature's overlap with that branch
    (its qubit on every retained pair, the environment in vacuum), by one
    ket-only sweep per branch over the steps of :func:`_contraction`.  A
    term with a photon off the stations and retained pairs is dropped, and
    station slots stay in the key as the click signature.  A step with a
    ``move`` moves its predecessor's block."""
    stray = ~sum(stations + sum(mask for mask, _, _ in own + shut)
                 for _, _, _, stations, _, _, own, shut in steps)

    def project(key: int, a: complex, on: list[tuple[int, int, int]]) -> complex:
        for mask, h, v in on:
            part = key & mask
            a *= qh if part == h else qv if part == v else 0
        return a

    overlaps = []
    for qh, qv in ((h.conjugate(), v.conjugate()) for h, v in spec.ghz_qubits):
        state = {0: 1 + 0j}
        local: dict[int, complex] = {}
        for terms, move, _, stations, clicks, _, own, shut in steps:
            kept, rest = ~sum(mask for mask, _, _ in own), ~sum(mask for mask, _, _ in shut)
            if move:
                local = dict(zip(_move(local, move), local.values()))
            else:
                local = {}
                for key, a in terms:
                    if not key & stray and (a := project(key, a, own)):
                        _merge(local, key & kept, a)
            grown, state = join(state, local), {}
            for key, v in grown.items():
                if key & stations in clicks and (v := project(key, v, shut)):
                    _merge(state, key & rest, v)
        overlaps.append(state)
    return overlaps


def compute_metrics(build: SchemeBuild) -> Metrics:
    """P_hr and P_suc by a ring contraction over the evolved party factors,
    without the heralded ket.  P_suc takes each click signature's best
    phase, 1/2 sum_p (|x_p| + |y_p|)^2, as :class:`PatternOutcome` does."""
    spec = build.spec
    steps = _contraction(build)
    x, y = _branch_overlaps(steps, spec)
    return Metrics(
        scheme=spec.scheme,
        n_parties=spec.n_parties,
        eta=spec.eta,
        p_suc=0.5 * sum((abs(x.get(c, 0j)) + abs(y.get(c, 0j))) ** 2 for c in x.keys() | y.keys()),
        p_hr=_density(steps, BITS * len(spec.registry)).get(0, 0j).real,
    )


def analyze_patterns(build: SchemeBuild) -> list[PatternOutcome]:
    """Every click pattern's outcome from the same contraction as
    :func:`compute_metrics`.  The GHZ amplitudes are the branch sweeps'
    overlaps at the pattern's click signature; the probability and the
    environment histogram come from the herald density with the station
    slots kept in the ket key as the signature and the environment photons
    counted.  An entry that cancels to an exact zero is no histogram key."""
    spec = build.spec
    steps = _contraction(build)
    x, y = _branch_overlaps(steps, spec)
    width = BITS * len(spec.registry)
    env = pack(dict.fromkeys((m.index for m in spec.environment_modes), MAX_OCCUPATION))
    histograms: dict[int, dict[int, float]] = {}
    for key, v in _density(steps, width, sum(station_masks(spec)), env).items():
        if v:
            histograms.setdefault(key & (1 << width) - 1, {})[key >> 2 * width] = v.real
    outcomes = []
    for pattern in enumerate_patterns(spec.n_parties, spec.detection_basis):
        clicks = pack({station[spec.detection_basis.index(c)].index: 1
                       for station, c in zip(spec.detector_stations, pattern)})
        histogram = histograms.get(clicks, {})
        outcomes.append(PatternOutcome(pattern, math.fsum(histogram.values()),
                                       (x.get(clicks, 0j), y.get(clicks, 0j)),
                                       tuple(sorted(histogram.items()))))
    return outcomes
