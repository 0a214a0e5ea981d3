"""Shared fixtures: a session-wide oracle cache and the acceptance report.

The oracle cache computes brute-force metrics for the standard comparison
grid once per session; acceptance tests record per-criterion outcomes into
a collector that is printed as one line per criterion at the end of the
run, independently of how many tests back each criterion.  A criterion may
also note documented differences (a value that is known to disagree with a
quoted or design figure); each is listed under its criterion line with both
numbers and the relative gap, and never turns the line FAIL: only a failed
check does.
"""

from __future__ import annotations

import pytest

from heraldnet.fock import (
    BITS,
    MAX_OCCUPATION,
    ModeCollisionError,
    PhotonicState,
    RegistryError,
    _monomial_weight,
    cancel_add,
    inner_product,
    pack,
    photons,
    product,
    with_photons,
)
from heraldnet.heralding import (
    Metrics,
    PatternOutcome,
    compute_metrics,
    detection_ready_state,
    enumerate_patterns,
    station_masks,
)
from heraldnet.optics import apply
from heraldnet.schemes import build_scheme

GRID_PARTIES = (2, 3, 4)
GRID_ETAS = (1.0, 0.9, 0.7, 0.5)
GRID_SCHEMES = ("bc", "sc", "sd")

_oracle_cache: dict[tuple[str, int, float], Metrics] = {}

# criterion number -> (title, [(label, passed, detail), ...], [difference line, ...])
_acceptance: dict[int, tuple[str, list[tuple[str, bool, str]], list[str]]] = {}


def explicit_evolution(build):
    """The full output state: every circuit stage applied to the global
    initial state on its own, unheralded."""
    state = build.state
    for stage in build.stages:
        state = apply(stage, state)
    return state


def reference_apply(transform, state):
    """The all-columns form of :func:`heraldnet.optics.apply`, the
    differential test's reference: it packs the masks and the step list over
    every column on each call, and walks every mapped mode of every term in
    ascending order, occupied or not."""
    if transform.registry is not state.registry:
        raise RegistryError("map and state use different registries")
    outputs = {i for col in transform.columns.values() for i, _ in col}
    in_mask = pack(dict.fromkeys(transform.columns, MAX_OCCUPATION))
    out_mask = pack(dict.fromkeys(outputs, MAX_OCCUPATION))
    steps = [
        (BITS * idx, tuple((1 << (BITS * out), coeff) for out, coeff in col))
        for idx, col in sorted(transform.columns.items())
    ]
    new_terms = {}
    for key, amp in state.amplitudes.items():
        rest = key & ~in_mask
        clash = rest & out_mask
        if clash:
            mode = state.registry.mode(((clash & -clash).bit_length() - 1) // BITS)
            raise ModeCollisionError(
                f"occupied mode {mode.spatial_label}/{mode.polarization} is unmapped "
                "but appears among the map outputs"
            )
        poly = {rest: amp}
        for shift, col in steps:
            for _ in range((key >> shift) & MAX_OCCUPATION):
                nxt = {}
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


def without_c1_plate(build):
    """``build`` with the stage that acts on path c1 alone, the central
    schemes' pi phase plate, dropped from its circuit."""
    c1 = {build.spec.registry.get("c1", p).index for p in ("H", "V")}
    stages = tuple(s for s in build.stages if set(s.columns) != c1)
    return build._replace(stages=stages)


def ket_metrics(build):
    """(P_hr, P_suc) from the heralded ket: the sums of every click
    pattern's probability and best-phase success probability in
    :func:`reference_outcomes`, which shares no projection code with the
    contraction behind ``compute_metrics`` and ``analyze_patterns``."""
    outcomes = reference_outcomes(build)
    return sum(o.probability for o in outcomes), sum(o.success_probability for o in outcomes)


def heralded_part(build, state):
    """The amplitudes of ``state`` with exactly one photon at every station."""
    shifts = [(BITS * h.index, BITS * v.index) for h, v in build.spec.detector_stations]
    return {
        key: amp
        for key, amp in state.amplitudes.items()
        if all(((key >> h) & MAX_OCCUPATION) + ((key >> v) & MAX_OCCUPATION) == 1 for h, v in shifts)
    }


def ghz_strings(spec):
    """The two GHZ branches as states: a product over the retained pairs of
    each branch's qubit, ``spec.ghz_qubits``."""
    def qubit(pair, amplitudes):
        return PhotonicState(spec.registry, {pack({m.index: 1}): a for m, a in zip(pair, amplitudes)})

    return tuple(product([qubit(pair, branch) for pair in spec.retained_pairs])
                 for branch in spec.ghz_qubits)


def reference_outcomes(build):
    """Every click pattern's outcome from the heralded ket
    (``detection_ready_state``), the straightforward way: each pattern's
    keys as a ``PhotonicState``, overlaps with the GHZ strings plus the
    clicks by ``inner_product``, and the probability and the histogram in
    key order.  Each string is taken on the pattern's keys only, in their
    order, so that ``inner_product`` walks them in the ket's order."""
    spec = build.spec
    detector_mask = sum(station_masks(spec))
    env_mask = pack(dict.fromkeys((m.index for m in spec.environment_modes), MAX_OCCUPATION))
    buckets = {}
    for key, amp in detection_ready_state(build).amplitudes.items():
        buckets.setdefault(key & detector_mask, {})[key] = amp
    letters = spec.detection_basis
    strings = ghz_strings(spec)
    outcomes = []
    for pattern in enumerate_patterns(spec.n_parties, letters):
        clicks = {station[letters.index(c)].index: 1
                  for station, c in zip(spec.detector_stations, pattern)}
        conditional = PhotonicState(spec.registry, buckets.get(pack(clicks), {}))
        amplitudes = []
        for string in strings:
            shifted = with_photons(string, clicks).amplitudes
            on_keys = {k: shifted[k] for k in conditional.amplitudes if k in shifted}
            amplitudes.append(inner_product(PhotonicState(spec.registry, on_keys), conditional))
        probability, histogram = 0.0, {}
        for key, amp in conditional.amplitudes.items():
            weight = abs(amp) ** 2 * _monomial_weight(key)
            probability += weight
            env = photons(key & env_mask)
            histogram[env] = histogram.get(env, 0.0) + weight
        outcomes.append(PatternOutcome(pattern, probability, tuple(amplitudes),
                                       tuple(sorted(histogram.items()))))
    return outcomes


@pytest.fixture(scope="session")
def oracle():
    """Callable (scheme, n, eta) -> Metrics, cached across the session."""

    def run(scheme: str, n: int, eta: float) -> Metrics:
        key = (scheme, n, eta)
        if key not in _oracle_cache:
            _oracle_cache[key] = compute_metrics(build_scheme(scheme, n, eta))
        return _oracle_cache[key]

    return run


@pytest.fixture(scope="session")
def record_acceptance():
    """Record one sub-check of an acceptance criterion for the summary."""

    def record(criterion: int, title: str, label: str, passed: bool, detail: str = "") -> None:
        entry = _acceptance.setdefault(criterion, (title, [], []))
        entry[1].append((label, passed, detail))

    return record


@pytest.fixture(scope="session")
def record_difference():
    """Note a documented difference for the summary; it is not a check.

    ``value`` is the simulated figure and ``other`` the figure it is known
    to differ from, named by ``other_name``; the gap is relative to
    ``value``.
    """

    def record(
        criterion: int, title: str, label: str, value: float, other_name: str, other: float
    ) -> None:
        entry = _acceptance.setdefault(criterion, (title, [], []))
        gap = abs(other - value) / abs(value)
        entry[2].append(
            f"{label}: sim {value:.10g} vs {other_name} {other:.10g} (rel gap {gap:.2e})"
        )

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for criterion in sorted(_acceptance):
        title, checks, differences = _acceptance[criterion]
        ok = sum(1 for _, passed, _ in checks if passed)
        status = "PASS" if ok == len(checks) else "FAIL"
        line = f"criterion {criterion} [{title}]: {status} ({ok}/{len(checks)} checks"
        if differences:
            line += f"; {len(differences)} documented differences listed below"
        line += ")"
        failures = [f"{label}: {detail}" if detail else label
                    for label, passed, detail in checks if not passed]
        if failures:
            shown = "; ".join(failures[:4])
            if len(failures) > 4:
                shown += f"; and {len(failures) - 4} more"
            line += f" -- {shown}"
        tr.write_line(line)
        for difference in differences:
            tr.write_line(f"    differs: {difference}")
