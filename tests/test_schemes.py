"""Tests for the three network builders and the ring geometry helpers."""

import cmath
import math

import pytest

from conftest import ghz_strings, without_c1_plate
from heraldnet.fock import (
    inner_product,
    norm_squared,
    state_from_creation_product,
    superpose,
    with_photons,
)
from heraldnet.optics import apply, is_isometry
from heraldnet.schemes import (
    DEFAULT_ALPHA,
    SCHEMES,
    GeometryError,
    NetworkGeometry,
    build_bc,
    build_sc,
    build_scheme,
    build_sd,
    eta_for_geometry,
)

MODES_PER_PARTY = {"bc": 8, "sc": 10, "sd": 14}

INVALID_GEOMETRIES = [
    {"n_parties": 1, "radius_km": 5.0},
    {"n_parties": 3, "radius_km": -1.0},
    {"n_parties": 3, "radius_km": 5.0, "alpha": -0.01},
    {"n_parties": 3, "radius_km": 5.0, "alpha": math.nan},
    {"n_parties": 3, "radius_km": math.inf},
]


def evolve(build):
    state = build.state
    for stage in build.stages:
        state = apply(stage, state)
    return state


def total_photons(monomial):
    return sum(k for _, k in monomial)


class TestGeometry:
    def test_scheme_tuple(self):
        assert SCHEMES == ("bc", "sc", "sd")

    def test_central_link_is_radius(self):
        geo = NetworkGeometry(5, 12.5)
        assert geo.link_length_km("bc") == 12.5
        assert geo.link_length_km("sc") == 12.5

    @pytest.mark.parametrize("n", [2, 3, 4, 12])
    def test_ring_link_is_neighbour_chord(self, n):
        geo = NetworkGeometry(n, 10.0)
        assert geo.link_length_km("sd") == pytest.approx(
            20.0 * math.sin(math.pi / n), abs=1e-12
        )

    def test_square_ring_chord(self):
        # chord of a square inscribed in radius 10 is 10*sqrt(2)
        geo = NetworkGeometry(4, 10.0)
        assert geo.link_length_km("sd") == pytest.approx(10.0 * math.sqrt(2.0), abs=1e-12)

    def test_eta_decays_exponentially(self):
        geo = NetworkGeometry(4, 10.0, alpha=0.023)
        assert eta_for_geometry("bc", geo) == pytest.approx(math.exp(-0.23), abs=1e-15)
        expected = math.exp(-0.023 * 20.0 * math.sin(math.pi / 4.0))
        assert eta_for_geometry("sd", geo) == pytest.approx(expected, abs=1e-15)

    def test_zero_radius_is_lossless(self):
        geo = NetworkGeometry(3, 0.0)
        for scheme in SCHEMES:
            assert eta_for_geometry(scheme, geo) == 1.0

    def test_zero_alpha_is_lossless(self):
        geo = NetworkGeometry(3, 40.0, alpha=0.0)
        assert eta_for_geometry("sd", geo) == 1.0

    def test_default_attenuation(self):
        assert NetworkGeometry(3, 1.0).alpha == DEFAULT_ALPHA

    @pytest.mark.parametrize("kwargs", INVALID_GEOMETRIES)
    def test_invalid_geometry(self, kwargs):
        with pytest.raises(GeometryError):
            NetworkGeometry(**kwargs)

    @pytest.mark.parametrize("kwargs", INVALID_GEOMETRIES)
    def test_replace_and_make_are_checked(self, kwargs):
        # a named tuple's _replace and _make skip __new__ unless routed through it
        valid = NetworkGeometry(3, 5.0)
        with pytest.raises(GeometryError):
            valid._replace(**kwargs)
        with pytest.raises(GeometryError):
            NetworkGeometry._make({**valid._asdict(), **kwargs}.values())

    def test_unknown_scheme_name(self):
        with pytest.raises(ValueError):
            NetworkGeometry(3, 5.0).link_length_km("qq")


class TestBuilderValidation:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_rejects_single_party(self, scheme):
        with pytest.raises(ValueError):
            build_scheme(scheme, 1, 0.9)

    @pytest.mark.parametrize("eta", [-0.1, 1.2])
    def test_rejects_eta_outside_unit_interval(self, eta):
        with pytest.raises(ValueError):
            build_scheme("bc", 2, eta)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            build_scheme("qq", 2, 0.9)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_dispatch_tags_spec(self, scheme):
        assert build_scheme(scheme, 2, 0.9).spec.scheme == scheme


class TestInitialStates:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bell_state_support(self, n):
        state = build_bc(n, 1.0).state
        # one term per H/V word across the n pairs, uniform weight
        assert len(state.terms) == 2**n
        for amplitude in state.terms.values():
            assert abs(amplitude) == pytest.approx(2.0 ** (-n / 2.0), abs=1e-14)
        assert norm_squared(state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("builder", [build_sc, build_sd])
    @pytest.mark.parametrize("n", [2, 3])
    def test_product_state_is_single_term(self, builder, n):
        build = builder(n, 1.0)
        assert len(build.state.terms) == 1
        ((monomial, amplitude),) = build.state.terms.items()
        assert amplitude == pytest.approx(1.0)
        assert total_photons(monomial) == 2 * n
        assert all(k == 1 for _, k in monomial)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_party_product_is_the_global_initial_state(self, scheme, n):
        # the global state built eagerly, one Bell pair or photon pair per
        # party, new party outermost, as the builders did before they kept
        # one factor per party: same keys, same order, same bits
        build = build_scheme(scheme, n, 0.9)
        registry = build.spec.registry
        if scheme == "bc":
            reference = state_from_creation_product(registry, [])
            r = 1.0 / math.sqrt(2.0)
            for i in range(1, n + 1):
                bh, bv, ch, cv = (registry.get(f"{p}{i}", pol) for p in "bc" for pol in "HV")
                reference = superpose([
                    (r, with_photons(reference, {bh.index: 1, cv.index: 1})),
                    (r, with_photons(reference, {bv.index: 1, ch.index: 1})),
                ])
        else:
            modes = [registry.get(f"a{i}", p) for i in range(1, n + 1) for p in "HV"]
            reference = state_from_creation_product(registry, modes)
        assert len(build.parties) == n
        bits = [(k, a.real.hex(), a.imag.hex()) for k, a in build.state.amplitudes.items()]
        assert bits == [(k, a.real.hex(), a.imag.hex()) for k, a in reference.amplitudes.items()]


class TestStructure:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_mode_budget(self, scheme, n):
        build = build_scheme(scheme, n, 0.9)
        assert len(build.spec.registry) == MODES_PER_PARTY[scheme] * n

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_station_and_retained_layout(self, scheme):
        spec = build_scheme(scheme, 3, 0.9).spec
        assert len(spec.detector_stations) == 3
        assert len(spec.retained_pairs) == 3
        for h_mode, v_mode in spec.detector_stations:
            assert (h_mode.polarization, v_mode.polarization) == ("H", "V")
            assert h_mode.role == v_mode.role == "detector"
            assert h_mode.spatial_label == v_mode.spatial_label
        for h_mode, v_mode in spec.retained_pairs:
            assert (h_mode.polarization, v_mode.polarization) == ("H", "V")
            assert h_mode.role == v_mode.role == "retained"

    @pytest.mark.parametrize("scheme, count", [("bc", 2), ("sc", 2), ("sd", 4)])
    def test_environment_mode_count(self, scheme, count):
        spec = build_scheme(scheme, 3, 0.9).spec
        assert len(spec.environment_modes) == count * 3
        assert all(m.role == "environment" for m in spec.environment_modes)

    @pytest.mark.parametrize("scheme, basis", [("bc", "HV"), ("sc", "HV"), ("sd", "DA")])
    def test_detection_basis(self, scheme, basis):
        assert build_scheme(scheme, 2, 0.9).spec.detection_basis == basis

    @pytest.mark.parametrize("builder", [build_bc, build_sc])
    def test_compensation_stage_toggle(self, builder):
        with_plates = builder(2, 0.9)
        without = without_c1_plate(with_plates)
        assert len(with_plates.stages) == len(without.stages) + 1
        (plate,) = [s for s in with_plates.stages if s not in without.stages]
        assert plate.columns == {idx: ((idx, cmath.exp(1j * math.pi)),) for idx in plate.columns}


class TestGhzPair:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [2, 3])
    def test_normalized_orthogonal_pair(self, scheme, n):
        plus, minus = ghz_strings(build_scheme(scheme, n, 0.9).spec)
        assert norm_squared(plus) == pytest.approx(1.0, abs=1e-12)
        assert norm_squared(minus) == pytest.approx(1.0, abs=1e-12)
        assert abs(inner_product(plus, minus)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_central_pair_spans_diagonal_words(self, n):
        spec = build_bc(n, 0.9).spec
        r = 1.0 / math.sqrt(2.0)
        assert spec.ghz_qubits == ((r, r), (r, -r))
        plus, minus = ghz_strings(spec)
        assert len(plus.terms) == 2**n
        assert len(minus.terms) == 2**n

    @pytest.mark.parametrize("n", [2, 3])
    def test_ring_pair_is_polarization_strings(self, n):
        spec = build_sd(n, 0.9).spec
        assert spec.ghz_qubits == ((1, 0), (0, 1))
        plus, minus = ghz_strings(spec)
        assert len(plus.terms) == 1
        assert len(minus.terms) == 1
        all_h = state_from_creation_product(
            spec.registry, [h for h, _ in spec.retained_pairs]
        )
        all_v = state_from_creation_product(
            spec.registry, [v for _, v in spec.retained_pairs]
        )
        assert inner_product(all_h, plus) == pytest.approx(1.0, abs=1e-12)
        assert inner_product(all_v, minus) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [16, 50])
    def test_builders_reach_past_a_packed_string(self, scheme, n):
        # the GHZ target is one qubit per retained pair, never an n-photon
        # state, so a build has no photon cap of its own
        build = build_scheme(scheme, n, 0.9)
        assert len(build.parties) == len(build.spec.retained_pairs) == n
        assert len(build.spec.detector_stations) == n


class TestFeedforwardRules:
    @pytest.mark.parametrize("builder", [build_bc, build_sc])
    def test_central_rule_counts_v_and_parties(self, builder):
        rule2 = builder(2, 0.9).spec.feedforward_rule
        assert rule2(("H", "H")) == pytest.approx(0.0)
        assert rule2(("H", "V")) == pytest.approx(math.pi)
        assert rule2(("V", "V")) == pytest.approx(0.0)
        rule3 = builder(3, 0.9).spec.feedforward_rule
        assert rule3(("H", "H", "H")) == pytest.approx(math.pi)
        assert rule3(("H", "V", "H")) == pytest.approx(0.0)

    def test_ring_rule_counts_rotated_outcomes(self):
        rule = build_sd(2, 0.9).spec.feedforward_rule
        assert rule(("D", "D")) == pytest.approx(0.0)
        assert rule(("D", "A")) == pytest.approx(math.pi)
        assert rule(("A", "A")) == pytest.approx(0.0)
        rule3 = build_sd(3, 0.9).spec.feedforward_rule
        assert rule3(("A", "A", "A")) == pytest.approx(math.pi)

    @pytest.mark.parametrize("n", [2, 3])
    def test_rule_counts_the_v_slot_letter_of_the_basis(self, n):
        # the offset is data: n for the central station, 0 for the ring
        for scheme, offset in (("bc", n), ("sc", n), ("sd", 0)):
            spec = build_scheme(scheme, n, 0.9).spec
            assert spec.feedforward_offset == offset
            relabelled = spec._replace(detection_basis="XY")
            for k in range(n + 1):
                pattern = ("Y",) * k + ("X",) * (n - k)
                assert relabelled.feedforward_rule(pattern) == math.pi * ((k + offset) % 2)


class TestCircuits:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("eta", [1.0, 0.8])
    def test_every_stage_is_an_isometry(self, scheme, n, eta):
        build = build_scheme(scheme, n, eta)
        for stage in build.stages:
            assert is_isometry(stage)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_norm_preserved_through_circuit(self, scheme):
        build = build_scheme(scheme, 2, 0.8)
        assert norm_squared(evolve(build)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_photon_number_conserved(self, scheme):
        # loss relocates photons into environment modes, never destroys them
        build = build_scheme(scheme, 2, 0.8)
        final = evolve(build)
        assert all(total_photons(m) == 4 for m in final.terms)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_lossless_run_leaves_environments_empty(self, scheme):
        build = build_scheme(scheme, 3, 1.0)
        env_indices = {m.index for m in build.spec.environment_modes}
        final = evolve(build)
        for monomial in final.terms:
            assert not any(idx in env_indices for idx, _ in monomial)

    def test_ring_splitter_amplitudes(self):
        # first stage of the decentralized build splits each photon pair
        # into (kept + kept)^2/4 - (ring - ring)^2/4 per party
        build = build_sd(2, 1.0)
        state = apply(build.stages[0], build.state)
        reg = build.spec.registry
        b1h, b1v = reg.get("b1", "H"), reg.get("b1", "V")
        b2h, b2v = reg.get("b2", "H"), reg.get("b2", "V")
        c1h, c1v = reg.get("c1", "H"), reg.get("c1", "V")

        def amp(modes):
            key = tuple(
                sorted((m.index, c) for m, c in modes)
            )
            return state.terms.get(key, 0.0)

        assert amp([(b1h, 1), (b1v, 1), (b2h, 1), (b2v, 1)]) == pytest.approx(0.25)
        assert amp([(b1h, 2), (b2h, 2)]) == pytest.approx(1.0 / 16.0)
        assert amp([(c1h, 1), (c1v, 1), (b2h, 1), (b2v, 1)]) == pytest.approx(0.25)
        assert amp([(c1h, 2), (b2h, 1), (b2v, 1)]) == pytest.approx(-1.0 / 8.0)
        assert norm_squared(state) == pytest.approx(1.0, abs=1e-12)
