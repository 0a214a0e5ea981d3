"""Tests for click-pattern analysis and the heralded metrics."""

import cmath
import math
import sys
import time
from functools import reduce

import pytest

from conftest import (explicit_evolution, heralded_part, ket_metrics, reference_heralding_terms,
                      reference_outcomes, to_the_bit, without_c1_plate)
from heraldnet import fock, heralding, schemes
from heraldnet.analytic import closed_p_hr, closed_p_suc, exact_h_eff, exact_p_hr
from heraldnet.fock import (MAX_OCCUPATION, ModeCollisionError, norm_squared, occupations, pack,
                            photons, state_from_creation_product, superpose, with_photons)
from heraldnet.heralding import (
    ORACLE_MAX_PARTIES,
    Metrics,
    NoGhzComponentError,
    OracleSizeError,
    PatternOutcome,
    UndefinedMetricError,
    analyze_patterns,
    check_oracle_size,
    compute_metrics,
    detection_ready_state,
    enumerate_patterns,
    station_masks,
)
from heraldnet.optics import LinearMap, apply, compose_maps, half_wave_plate, merge_maps, pbs_hv
from heraldnet.schemes import SCHEMES, SchemeBuild, build_bc, build_sc, build_scheme, build_sd


def coupled_parties(build, times=1):
    """``build`` (``bc`` or ``sc``) with a splitter between c1_H and c2_H
    ahead of its loss stage, ``times`` times over.  Once, it puts both
    parties' photons in both modes, so their factors share modes,
    environment modes included.  Twice, it is the identity, since the
    splitter is an involution: the cross amplitudes cancel, and the
    parties' light cones reach modes their evolved factors do not."""
    registry = build.spec.registry
    c1, c2 = (registry.get(f"c{i}", "H").index for i in (1, 2))
    r = 1 / math.sqrt(2)
    mix = LinearMap(registry, {c1: ((c1, r), (c2, r)), c2: ((c1, r), (c2, -r))})
    return build._replace(stages=(*build.stages[:-2], *(mix,) * times, *build.stages[-2:]))


def phased_party(build, j=1, phase=0.5):
    """``build`` with a phase e^{i phase} ahead of its loss stage on party
    ``j``'s H channel (b for ``sd``, c for ``bc`` and ``sc``), so that the
    party's circuit differs from its neighbours' in one column's
    coefficients."""
    registry, loss = build.spec.registry, build.stages[-2]
    mode = registry.get(f"{'b' if build.spec.scheme == 'sd' else 'c'}{j + 1}", "H").index
    columns = {**loss.columns,
               mode: tuple((out, c * cmath.exp(1j * phase)) for out, c in loss.columns[mode])}
    return build._replace(stages=(*build.stages[:-2], LinearMap(registry, columns),
                                  build.stages[-1]))


def other_bell_pair(build):
    """``bc`` ``build`` whose last party holds (b_H c_H + b_V c_V)/sqrt(2):
    its predecessor's modes and amplitudes, on other keys."""
    registry, n = build.spec.registry, build.spec.n_parties
    bh, bv, ch, cv = (registry.get(f"{p}{n}", pol) for p in "bc" for pol in "HV")
    r = 1 / math.sqrt(2)
    pair = superpose([(r, state_from_creation_product(registry, [bh, ch])),
                      (r, state_from_creation_product(registry, [bv, cv]))])
    return build._replace(parties=(*build.parties[:-1], pair))


def regrouped_stations(build):
    """``build`` whose last two stations, on paths d_(N-1) and d_N, are
    regrouped as their two H modes and their two V modes: the same
    detector modes, heralded in other pairs."""
    spec = build.spec
    (h1, v1), (h2, v2) = spec.detector_stations[-2:]
    stations = (*spec.detector_stations[:-2], (h1, h2), (v1, v2))
    return build._replace(spec=spec._replace(detector_stations=stations))


def relabelled_parties(build):
    """The parties whose terms and blocks are their predecessor's, moved."""
    steps = heralding._contraction(build)
    return [j for j, step in enumerate(steps) if step[1] is not None]


def heralding_terms(build):
    """Each party's heralding terms, as both sweeps read them."""
    steps = heralding._contraction(build)
    return [step[0] for step in steps]


def evolved_factors(build):
    """Each party through every stage on its own, as the engine evolves it."""
    return [reduce(lambda state, stage: apply(stage, state), build.stages, party)
            for party in build.parties]


def footprint(factor):
    """The packed mask of every mode that a term of ``factor`` occupies."""
    return pack(dict.fromkeys({i for key in factor.amplitudes for i, _ in occupations(key)},
                              MAX_OCCUPATION))


class TestPatternEnumeration:
    def test_lexicographic_order_hv(self):
        assert enumerate_patterns(2, "HV") == [
            ("H", "H"),
            ("H", "V"),
            ("V", "H"),
            ("V", "V"),
        ]

    def test_lexicographic_order_da(self):
        assert enumerate_patterns(2, "DA") == [
            ("D", "D"),
            ("D", "A"),
            ("A", "D"),
            ("A", "A"),
        ]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pattern_count(self, n):
        assert len(enumerate_patterns(n, "HV")) == 2**n

    def test_unknown_basis(self):
        # a basis is its two slot letters, H slot first; anything else is refused
        assert enumerate_patterns(1, "XY") == [("X",), ("Y",)]
        for letters in ("HH", "H", "HVD", ""):
            with pytest.raises(ValueError, match="two distinct letters"):
                enumerate_patterns(2, letters)


class TestDetectionPipeline:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_ready_state_is_normalized(self, scheme):
        # every stage is an isometry, so the full (unheralded) evolution keeps the norm
        build = build_scheme(scheme, 2, 0.8)
        assert norm_squared(explicit_evolution(build)) == pytest.approx(
            1.0, abs=1e-10
        )

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("eta", [1.0, 0.8])
    def test_ready_state_norm_is_herald_probability(self, scheme, eta):
        build = build_scheme(scheme, 2, eta)
        assert norm_squared(detection_ready_state(build)) == pytest.approx(
            compute_metrics(build).p_hr, rel=1e-12
        )

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.5])
    def test_heralded_keys_hold_n_photons_off_the_detectors(self, scheme, n, eta):
        # the stages conserve the 2n photons and a herald puts one on each of
        # the n stations, so the analysis finds n photons on every part
        build = build_scheme(scheme, n, eta)
        detectors = sum(station_masks(build.spec))
        keys = detection_ready_state(build).amplitudes
        assert keys
        for key in keys:
            assert (photons(key & detectors), photons(key & ~detectors)) == (n, n)

    @staticmethod
    def _assert_heralded_part(build, ready, explicit, bitwise):
        # same keys; amplitudes are products taken party by party rather
        # than stage by stage, so they agree bit for bit only where that
        # order cannot round differently
        expected = heralded_part(build, explicit)
        assert ready.amplitudes.keys() == expected.keys()
        for key, amp in expected.items():
            assert abs(ready.amplitudes[key] - amp) <= 2e-15 * abs(amp)
        if bitwise:
            assert ready.amplitudes == expected

    def test_fused_rotation_matches_explicit_rotation(self):
        # sd's last stage fuses a half-wave plate per station into the
        # combining splitters and is heralded; the explicit path applies the
        # splitters and then the plates, each in full, and keeps one photon
        # per station
        for eta in (1.0, 0.9):
            build = build_sd(2, eta)
            pair = lambda p, i: tuple(build.spec.registry.get(f"{p}{i}", pol) for pol in "HV")
            combine = merge_maps([pbs_hv(pair("b", i), pair("c", 3 - i), pair("e", i), pair("d", i))
                                  for i in (1, 2)])
            plates = merge_maps([half_wave_plate(s) for s in build.spec.detector_stations])
            unfused = build._replace(stages=(*build.stages[:-1], combine, plates))
            self._assert_heralded_part(build, detection_ready_state(build),
                                       explicit_evolution(unfused), bitwise=eta == 1.0)

    @pytest.mark.parametrize("builder", [build_bc, build_sc])
    def test_canonical_basis_needs_no_rotation(self, builder):
        # lossless bc multiplies the same factors in either order; the
        # splitter coefficients of sc do not
        for eta in (1.0, 0.9):
            build = builder(2, eta)
            state = build.state
            for stage in build.stages:
                state = apply(stage, state)
            self._assert_heralded_part(build, detection_ready_state(build), state,
                                       bitwise=builder is build_bc and eta == 1.0)

    def test_rotation_is_self_inverse(self):
        # on each evolved party factor, which already holds the plates once;
        # the state is their product, so the factors carry the property
        build = build_sd(2, 0.9)
        rotation = merge_maps([half_wave_plate(s) for s in build.spec.detector_stations])
        for state in evolved_factors(build):
            twice = apply(rotation, apply(rotation, state))
            assert twice.amplitudes.keys() == state.amplitudes.keys()
            for key, amp in state.amplitudes.items():
                assert abs(twice.amplitudes[key] - amp) <= 1e-15 * abs(amp)

    @staticmethod
    def _trace(monkeypatch, build):
        """The (stage, state, output) of each ``apply`` call the evolution
        makes; the parties it evolves, each with its factor (its last
        output); every party's heralding terms, which the reference
        multiplies; the size of its product of each proper prefix of the
        parties; and the ready state."""
        calls, seen = [], {}
        evolve = heralding._evolved_parties

        def record(stage, state):
            calls.append((stage, state, apply(stage, state)))
            return calls[-1][2]

        def traced(build, cones, moves):
            seen["evolved"] = [j for j, move in enumerate(moves) if move is None]
            seen["terms"] = evolve(build, cones, moves)
            return seen["terms"]

        monkeypatch.setattr(heralding, "apply", record)
        monkeypatch.setattr(heralding, "_evolved_parties", traced)
        ready = detection_ready_state(build)
        size = len(build.stages)
        seen["factors"] = dict(zip(seen["evolved"], (out for *_, out in calls[size - 1::size])))
        # the first j parties' terms with every party's light cone: the
        # stations a later party feeds stay open, so the reference returns
        # its partial product after party j
        seen["sizes"] = []
        for j in range(1, len(build.parties)):
            monkeypatch.setattr(heralding, "_evolved_parties",
                                lambda build, cones, moves, j=j: seen["terms"][:j])
            seen["sizes"].append(len(detection_ready_state(build)))
        return calls, seen, ready

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.3])
    def test_every_stage_keeps_the_reachable_part(self, monkeypatch, scheme, n, eta):
        # each evolved party goes through every stage on its own, unfiltered,
        # and every other party's terms are its predecessor's, moved; either
        # way they are the per-party reference's to the bit, and the herald
        # product of the parties is exactly the heralded part of the
        # unfiltered global evolution
        build = build_scheme(scheme, n, eta)
        calls, seen, ready = self._trace(monkeypatch, build)
        stages = list(build.stages)
        assert seen["evolved"] == ([0] if scheme == "sd" else [0, 1][:n])
        assert [stage for stage, _, _ in calls] == stages * len(seen["evolved"])
        for k, j in enumerate(seen["evolved"]):
            steps = calls[k * len(stages):(k + 1) * len(stages)]
            assert ([state for _, state, _ in steps]
                    == [build.parties[j]] + [out for *_, out in steps[:-1]])
            assert set(seen["terms"][j]) <= steps[-1][2].amplitudes.items()
        assert to_the_bit(seen["terms"]) == to_the_bit(reference_heralding_terms(build))
        self._assert_heralded_part(build, ready, explicit_evolution(build), bitwise=False)

    def test_ring_product_counts(self, monkeypatch):
        # sd N=4: 30 terms per party, 24 with at most one photon per station;
        # only party 0 is evolved; the first 1, 2 and 3 parties keep 24, 216
        # and 1,728 (unfiltered, 682,871 after every stage)
        build = build_sd(4, 0.9)
        _, seen, ready = self._trace(monkeypatch, build)
        assert [len(f) for f in seen["factors"].values()] == [30]
        assert [len(f) for f in evolved_factors(build)] == [30] * 4
        assert [len(t) for t in reference_heralding_terms(build)] == [24] * 4
        assert [len(t) for t in seen["terms"]] == [24] * 4
        assert (seen["sizes"], len(ready)) == ([24, 216, 1728], 2592)

    def test_central_product_counts(self, monkeypatch):
        # sc N=4: 26 terms per party, 20 with at most one photon per station;
        # parties 0 and 1 are evolved, as the c1 plate sets party 0 apart;
        # the last party closes the ring at station 1, so its 8,192 products
        # meet on 4,096 keys and half of them cancel to exact zeros
        build = build_sc(4, 0.9)
        _, seen, ready = self._trace(monkeypatch, build)
        assert [len(f) for f in seen["factors"].values()] == [26] * 2
        assert [len(f) for f in evolved_factors(build)] == [26] * 4
        assert [len(t) for t in reference_heralding_terms(build)] == [20] * 4
        assert [len(t) for t in seen["terms"]] == [20] * 4
        assert (seen["sizes"], len(ready)) == ([20, 192, 1792], 2048)

    @pytest.mark.parametrize("scheme, size, heralding_size", [("bc", 10, 10), ("sc", 26, 20),
                                                              ("sd", 30, 24)])
    def test_parties_evolve_as_at_four_with_wide_keys(self, scheme, size, heralding_size):
        # keys 50 parties wide, which the 15-photon guard keeps from
        # compute_metrics: each factor holds its N=4 terms and heralding
        # terms, with norm 1
        build = build_scheme(scheme, 50, 0.9)
        factors = evolved_factors(build)
        terms = heralding._evolved_parties(build, *heralding._light_cones(build))
        assert [len(f) for f in factors] == [size] * 50
        assert [len(t) for t in terms] == [heralding_size] * 50
        assert to_the_bit(terms) == to_the_bit(reference_heralding_terms(build))
        for factor in factors:
            assert norm_squared(factor) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("builder, n, eta, size", [
        (build_bc, 2, 0.9, 8), (build_bc, 3, 1.0, 32), (build_bc, 3, 0.9, 32), (build_bc, 3, 0.3, 32),
        (build_sc, 3, 1.0, 64), (build_sc, 3, 0.9, 496), (build_sc, 3, 0.3, 496)])
    def test_parties_coupled_before_the_last_stage_share_modes(self, monkeypatch, builder, n, eta,
                                                               size):
        # the product of factors that share modes is still the evolved state;
        # at N=3 three parties feed stations d1 and d3
        coupled = coupled_parties(builder(n, eta))
        _, seen, ready = self._trace(monkeypatch, coupled)
        first, second = ({i for k in seen["factors"][j].amplitudes for i, _ in occupations(k)}
                         for j in (0, 1))
        assert first & second
        self._assert_heralded_part(coupled, ready, explicit_evolution(coupled), bitwise=False)
        assert len(ready) == size

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_pattern_probabilities_sum_to_herald(self, scheme):
        build = build_scheme(scheme, 2, 0.9)
        outcomes = analyze_patterns(build)
        metrics = compute_metrics(build)
        assert sum(o.probability for o in outcomes) == pytest.approx(
            metrics.p_hr, abs=1e-12
        )
        assert sum(o.success_probability for o in outcomes) == pytest.approx(
            metrics.p_suc, abs=1e-12
        )


class TestMetricValues:
    def test_bell_scheme_lossless_two_parties(self):
        metrics = compute_metrics(build_bc(2, 1.0))
        assert metrics.p_suc == pytest.approx(0.5, abs=1e-12)
        assert metrics.p_hr == pytest.approx(0.5, abs=1e-12)
        assert metrics.h_eff == pytest.approx(1.0, abs=1e-12)

    def test_bell_scheme_lossy_three_parties(self):
        metrics = compute_metrics(build_bc(3, 0.9))
        assert metrics.p_suc == pytest.approx(0.13286025, abs=1e-10)
        # every surviving click pattern still projects onto a GHZ state
        assert metrics.h_eff == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.6])
    def test_simulation_matches_reference_forms(self, scheme, eta):
        build = build_scheme(scheme, 2, eta)
        metrics = compute_metrics(build)
        assert metrics.p_suc == pytest.approx(closed_p_suc(scheme, 2, eta), abs=1e-10)
        assert metrics.p_hr == pytest.approx(exact_p_hr(scheme, 2, eta), abs=1e-10)
        assert metrics.h_eff == pytest.approx(exact_h_eff(scheme, 2, eta), abs=1e-10)

    def test_ring_scheme_two_party_values(self):
        metrics = compute_metrics(build_sd(2, 0.9))
        assert metrics.p_suc == pytest.approx(0.05380840125, abs=1e-10)
        assert metrics.p_hr == pytest.approx(0.11613790125, abs=1e-10)

    @pytest.mark.parametrize(("n", "eta"), [(3, 0.003), (2, 1e-4)])
    def test_small_transmission_keeps_every_amplitude(self, n, eta):
        # p_suc is about 1e-32 here; an absolute pruning threshold zeroed it
        metrics = compute_metrics(build_sd(n, eta))
        assert math.isclose(metrics.p_suc, closed_p_suc("sd", n, eta), rel_tol=1e-9)
        assert math.isclose(metrics.p_hr, exact_p_hr("sd", n, eta), rel_tol=1e-9)

    def test_five_party_central_scheme(self):
        metrics = compute_metrics(build_sc(5, 0.9))
        assert math.isclose(metrics.p_suc, closed_p_suc("sc", 5, 0.9), rel_tol=1e-9)
        assert math.isclose(metrics.p_hr, exact_p_hr("sc", 5, 0.9), rel_tol=1e-9)
        assert math.isclose(metrics.h_eff, exact_h_eff("sc", 5, 0.9), rel_tol=1e-9)

    def test_six_party_ring_scheme(self):
        metrics = compute_metrics(build_sd(6, 0.9))
        assert math.isclose(metrics.p_suc, closed_p_suc("sd", 6, 0.9), rel_tol=1e-9)
        assert math.isclose(metrics.p_hr, exact_p_hr("sd", 6, 0.9), rel_tol=1e-9)


class TestRingContraction:
    ETAS = (1.0, 0.9, 0.7, 0.5, 0.3, 0.1, 0.01, 0.003, 1e-4, 0.0)

    @staticmethod
    def _assert_matches_ket(build):
        metrics, (p_hr, p_suc) = compute_metrics(build), ket_metrics(build)
        assert math.isclose(metrics.p_hr, p_hr, rel_tol=1e-12), (metrics.p_hr, p_hr)
        assert math.isclose(metrics.p_suc, p_suc, rel_tol=1e-12), (metrics.p_suc, p_suc)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_heralded_ket(self, scheme, n):
        for eta in self.ETAS:
            self._assert_matches_ket(build_scheme(scheme, n, eta))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.3])
    def test_edited_builds_match_the_heralded_ket(self, n, eta):
        # P_suc is the best-phase sum, so a build without the c1 plate, sd
        # measured in H/V and sd with its letters relabelled keep their
        # meaning; coupled parties share environment modes, which close with
        # their k! weight; a phase on party 1's channel sets it and its
        # successor apart, and so do another Bell pair on the last party and
        # the last two stations regrouped by polarization: every party of
        # these is evolved
        sd = build_sd(n, eta)
        hv = sd._replace(spec=sd.spec._replace(detection_basis="HV"))
        apart = [phased_party(sd), phased_party(build_sc(n, eta)),
                 other_bell_pair(build_bc(n, eta)), regrouped_stations(sd)]
        assert [relabelled_parties(build) for build in apart] == [[]] * 4
        for build in (without_c1_plate(build_bc(n, eta)), without_c1_plate(build_sc(n, eta)),
                      TestBasisChange._canonical(sd), hv, *apart,
                      coupled_parties(build_bc(n, eta)), coupled_parties(build_sc(n, eta)),
                      coupled_parties(build_bc(n, eta), 2), coupled_parties(build_sc(n, eta), 2)):
            self._assert_matches_ket(build)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", range(2, ORACLE_MAX_PARTIES + 1))
    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.3, 0.0])
    def test_light_cones_are_the_evolved_footprints(self, scheme, n, eta):
        # no amplitude of a shipped scheme cancels a mode away, so the cones
        # read off the circuit are exactly the modes the evolved terms occupy
        build = build_scheme(scheme, n, eta)
        assert heralding._light_cones(build)[0] == [footprint(f) for f in evolved_factors(build)]

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", range(2, ORACLE_MAX_PARTIES + 1))
    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.3, 0.0])
    def test_relabelled_terms_are_the_reference_to_the_bit(self, scheme, n, eta):
        # each party's circuit is its predecessor's on other modes, but for
        # party 1 of bc and sc, whose predecessor the c1 plate sets apart; a
        # relabelled party's terms are the predecessor's, moved, and still
        # equal its own evolution key for key, in order and to the bit
        build = build_scheme(scheme, n, eta)
        assert relabelled_parties(build) == list(range(1 if scheme == "sd" else 2, n))
        assert to_the_bit(heralding_terms(build)) == to_the_bit(reference_heralding_terms(build))

    @pytest.mark.parametrize("n", range(2, ORACLE_MAX_PARTIES + 1))
    def test_edited_parties_are_evolved(self, n):
        # a phase on party 1's channel fails its match and party 2's, and
        # party 3 on match again; another Bell pair on the last bc party
        # fails its match; regrouping the last two sd stations fails the
        # matches of the three parties that reach them; every party's terms
        # stay the reference's to the bit
        edited = [(phased_party(build_scheme(scheme, n, 0.9)), range(3, n)) for scheme in SCHEMES]
        edited += [(other_bell_pair(build_bc(n, 0.9)), range(2, n - 1)),
                   (regrouped_stations(build_sd(n, 0.9)), range(1, n - 3))]
        for build, parties in edited:
            assert relabelled_parties(build) == list(parties)
            terms = heralding_terms(build)
            assert to_the_bit(terms) == to_the_bit(reference_heralding_terms(build))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_relabelling_changes_no_bit(self, monkeypatch, scheme, n):
        # with no predecessor match every party is evolved and contracted on
        # its own, and every output is the same to the bit
        builds = [build_scheme(scheme, n, eta) for eta in (1.0, 0.9, 0.3, 0.0)]

        def outputs():
            return [((m := compute_metrics(build)).p_suc.hex(), m.p_hr.hex(),
                     repr(analyze_patterns(build))) for build in builds]

        relabelling = outputs()
        monkeypatch.setattr(heralding, "_predecessor_map", lambda prev, walk: None)
        assert [relabelled_parties(build) for build in builds] == [[]] * 4
        assert outputs() == relabelling

    def test_a_collision_is_not_relabelled_away(self):
        # a last stage feeds party 1's occupied loss mode f2_H from a3_H,
        # which no cone holds by then; party 1's circuit is still party 0's
        # on other modes, so only its own evolution meets the collision
        build = build_sd(3, 0.9)
        registry = build.spec.registry
        feed = LinearMap(registry, {registry.get("a3", "H").index:
                                    ((registry.get("f2", "H").index, 1 + 0j),)})
        with pytest.raises(ModeCollisionError, match="f2/H"):
            compute_metrics(build._replace(stages=(*build.stages, feed)))

    @pytest.mark.parametrize("builder", [build_bc, build_sc])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.3])
    def test_light_cones_keep_what_cancels(self, builder, n, eta):
        # the doubled splitter's cross amplitudes cancel, so the cones of
        # parties 1 and 2, which feed it, reach modes their terms do not,
        # such as the other channel's environment mode; at N=2 without loss
        # there is none, and each party reaches both stations anyway; the
        # plan closes such units later, and still agrees with the ket above
        build = coupled_parties(builder(n, eta), 2)
        cones, _ = heralding._light_cones(build)
        footprints = [footprint(f) for f in evolved_factors(build)]
        assert all(cone & mask == mask for cone, mask in zip(cones, footprints))
        strict = [j for j, (cone, mask) in enumerate(zip(cones, footprints)) if cone != mask]
        assert strict == ([] if (n, eta) == (2, 1.0) else [0, 1])

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [2, 7, 50])
    def test_light_cones_bound_each_mode_at_four_photons(self, scheme, n):
        # a mode holds at most the photons of the parties whose cones reach
        # it: 4 for every scheme and N, where a key holds 15 per mode and
        # N=8 already has 16 photons in all
        build = build_scheme(scheme, n, 0.9)
        counts = [max(map(photons, party.amplitudes)) for party in build.parties]
        cones, _ = heralding._light_cones(build)
        bounds = [sum(c for c, cone in zip(counts, cones) if cone >> fock.BITS * i & MAX_OCCUPATION)
                  for i in range(len(build.spec.registry))]
        assert max(bounds) <= 4

    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.3])
    def test_private_modes_are_traced_with_their_weight(self, eta):
        # an extra photon on b1_H puts two photons in a mode only party 1
        # reaches, in heralded terms: the trace weighs them by 2!; with 5
        # photons no term holds one photon per retained pair, so P_suc is 0
        build = build_bc(2, eta)
        b1 = build.spec.registry.get("b1", "H").index
        extra = build._replace(parties=(with_photons(build.parties[0], {b1: 1}),
                                        *build.parties[1:]))
        metrics = compute_metrics(extra)
        assert math.isclose(metrics.p_hr, ket_metrics(extra)[0], rel_tol=1e-12)
        assert metrics.p_hr > compute_metrics(build).p_hr
        assert metrics.p_suc == 0.0
        # per pattern too: no GHZ amplitude survives, and the traced weight
        # is the herald's
        outcomes = analyze_patterns(extra)
        assert sum(o.success_probability for o in outcomes) == 0.0
        assert math.isclose(sum(o.probability for o in outcomes), metrics.p_hr, rel_tol=1e-12)

    @staticmethod
    def _assert_matches_closed_forms(metrics):
        scheme, n, eta = metrics.scheme, metrics.n_parties, metrics.eta
        p_hr = (closed_p_hr if scheme == "bc" else exact_p_hr)(scheme, n, eta)
        assert math.isclose(metrics.p_hr, p_hr, rel_tol=1e-12), (scheme, n, eta)
        assert math.isclose(metrics.p_suc, closed_p_suc(scheme, n, eta), rel_tol=1e-12), (
            scheme, n, eta)

    def test_six_and_seven_parties_match_the_closed_forms(self):
        # the heralded ket has about 8^N terms; the contraction never forms it
        start = time.perf_counter()
        for scheme in SCHEMES:
            for n in (6, 7):
                self._assert_matches_closed_forms(compute_metrics(build_scheme(scheme, n, 0.9)))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sixteen_photons_are_refused(self, scheme):
        # the sweeps add packed keys, and a guard refuses more than 15 photons in all
        for run in (compute_metrics, analyze_patterns):
            with pytest.raises(ValueError, match="at most 15 photons"):
                run(build_scheme(scheme, 8, 0.9))

    def test_no_heralded_ket_is_formed(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the heralded ket was formed")

        monkeypatch.setattr(heralding, "detection_ready_state", refuse)
        for module in (fock, schemes):
            monkeypatch.setattr(module, "product", refuse)
        build = build_scheme("sc", 7, 0.9)
        metrics = compute_metrics(build)
        self._assert_matches_closed_forms(metrics)
        outcomes = analyze_patterns(build)
        assert len(outcomes) == 2**7
        assert math.isclose(sum(o.probability for o in outcomes), metrics.p_hr, rel_tol=1e-12)
        assert math.isclose(sum(o.success_probability for o in outcomes), metrics.p_suc,
                            rel_tol=1e-12)
        monkeypatch.setattr(heralding, "analyze_patterns", refuse)
        self._assert_matches_closed_forms(compute_metrics(build))


class TestPatternOutcomes:
    @staticmethod
    def _assert_matches_reference(build):
        # close, not equal: the contraction sums the same products in another
        # order than the heralded ket; the patterns and their order, the exact
        # zeros and the histogram keys are the same
        outcomes, expected = analyze_patterns(build), reference_outcomes(build)
        assert [o.pattern for o in outcomes] == [e.pattern for e in expected]
        for got, want in zip(outcomes, expected):
            assert ([k for k, _ in got.environment_histogram]
                    == [k for k, _ in want.environment_histogram]), got.pattern
            pairs = [(got.probability, want.probability),
                     *zip(got.ghz_amplitudes, want.ghz_amplitudes),
                     *((a, b) for (_, a), (_, b) in zip(got.environment_histogram,
                                                        want.environment_histogram))]
            for a, b in pairs:
                assert (a == 0) == (b == 0) and cmath.isclose(a, b, rel_tol=1e-12), (
                    got.pattern, a, b)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.3, 0.0])
    def test_outcomes_equal_the_straightforward_analysis(self, scheme, n, eta):
        self._assert_matches_reference(build_scheme(scheme, n, eta))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.3])
    def test_edited_builds_equal_the_straightforward_analysis(self, n, eta):
        # coupled parties share environment modes, whose lost photons the
        # histogram counts where they settle; a phase on party 1's channel
        # sets it and its successor apart, and so do another Bell pair on the
        # last party and the last two stations regrouped by polarization, so
        # every party of these is evolved; so is a last party whose
        # loss mode f_N is no environment mode, which the histogram does not
        # count, though its circuit is its predecessor's (without loss, no
        # cone reaches f_N)
        sd = build_sd(n, eta)
        apart = [phased_party(sd), phased_party(build_sc(n, eta)),
                 other_bell_pair(build_bc(n, eta)), regrouped_stations(sd)]
        assert [relabelled_parties(build) for build in apart] == [[]] * 4
        kept = sd._replace(spec=sd.spec._replace(environment_modes=tuple(
            m for m in sd.spec.environment_modes if m.spatial_label != f"f{n}")))
        assert relabelled_parties(kept) == list(range(1, n - (eta < 1)))
        for build in (coupled_parties(build_bc(n, eta)), coupled_parties(build_sc(n, eta)),
                      coupled_parties(build_bc(n, eta), 2), coupled_parties(build_sc(n, eta), 2),
                      TestBasisChange._canonical(sd), without_c1_plate(build_bc(n, eta)),
                      without_c1_plate(build_sc(n, eta)), *apart, kept):
            self._assert_matches_reference(build)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [2, 3])
    def test_lossless_patterns_are_pure_ghz(self, scheme, n):
        for outcome in analyze_patterns(build_scheme(scheme, n, 1.0)):
            if outcome.probability > 0.0:
                assert outcome.fidelity == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [2, 3])
    def test_branch_amplitudes_balance(self, scheme, n):
        # both GHZ branches arrive with equal weight, so a phase shift alone
        # can correct any heralded state
        for outcome in analyze_patterns(build_scheme(scheme, n, 0.9)):
            x, y = outcome.ghz_amplitudes
            assert abs(x) == pytest.approx(abs(y), abs=1e-10)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", range(2, ORACLE_MAX_PARTIES + 1))
    def test_phases_follow_feedforward_rule(self, scheme, n):
        # the rule's correction reaches the best-phase P_suc,
        # 1/2 sum_p |x_p + e^(-i phi_rule(p)) y_p|^2; at eta = 1e-4 sd's GHZ
        # amplitudes lie below 1e-12 sqrt(probability), and are still no
        # rounding residue
        etas = (1.0, 0.9, 0.5, 0.1, 0.01) if n < 6 else (1.0, 0.5, 0.01)
        if n < 4:
            etas += (1e-4, 1e-7) if (scheme, n) == ("sd", 2) else (1e-4,)
        for eta in etas:
            build = build_scheme(scheme, n, eta)
            corrected = 0.0
            for outcome in analyze_patterns(build):
                x, y = outcome.ghz_amplitudes
                phase = build.spec.feedforward_rule(outcome.pattern)
                corrected += 0.5 * abs(x + cmath.exp(-1j * phase) * y) ** 2
                if outcome.probability > 0.0:
                    assert outcome.feedforward_phase() == pytest.approx(
                        phase % (2.0 * math.pi), abs=1e-9
                    ), (eta, outcome.pattern)
            assert math.isclose(corrected, compute_metrics(build).p_suc, rel_tol=1e-12), eta

    @pytest.mark.parametrize("builder", [build_bc, build_sc])
    def test_compensation_plates_do_not_change_outcomes(self, builder):
        plain = analyze_patterns(without_c1_plate(builder(3, 0.9)))
        compensated = analyze_patterns(builder(3, 0.9))
        for a, b in zip(plain, compensated):
            assert a.pattern == b.pattern
            assert a.probability == pytest.approx(b.probability, abs=1e-12)
            assert a.success_probability == pytest.approx(
                b.success_probability, abs=1e-12
            )

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_cyclic_relabeling_symmetry(self, scheme):
        # rotating every party label by one maps the network onto itself
        outcomes = {
            o.pattern: (o.probability, abs(o.ghz_amplitudes[0]))
            for o in analyze_patterns(build_scheme(scheme, 3, 0.9))
        }
        for pattern, (prob, amp) in outcomes.items():
            rotated = pattern[1:] + pattern[:1]
            assert outcomes[rotated][0] == pytest.approx(prob, abs=1e-12)
            assert outcomes[rotated][1] == pytest.approx(amp, abs=1e-12)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_station_order_is_free(self, scheme):
        # listing the stations in reverse reverses every pattern and changes no float
        build = build_scheme(scheme, 3, 0.9)
        spec = build.spec._replace(
            detector_stations=tuple(reversed(build.spec.detector_stations))
        )
        reference = {o.pattern: o for o in analyze_patterns(build)}
        for outcome in analyze_patterns(build._replace(spec=spec)):
            expected = reference[outcome.pattern[::-1]]
            assert outcome.probability == expected.probability
            assert outcome.ghz_amplitudes == expected.ghz_amplitudes
            assert outcome.environment_histogram == expected.environment_histogram

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_breakdown_sorted_and_consistent(self, scheme):
        build = build_scheme(scheme, 2, 0.8)
        rows = sorted(analyze_patterns(build), key=lambda o: (-o.probability, o.pattern))
        metrics = compute_metrics(build)
        probs = [r.probability for r in rows]
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) == pytest.approx(metrics.p_hr, abs=1e-12)
        for row in rows:
            hist_total = sum(weight for _, weight in row.environment_histogram)
            assert hist_total == pytest.approx(row.probability, abs=1e-12)

    def test_bell_heralds_never_lose_photons(self):
        # a lost photon always empties one detector station, so any herald
        # implies a clean transmission and the environment stays in vacuum
        for outcome in analyze_patterns(build_bc(3, 0.7)):
            for count, weight in outcome.environment_histogram:
                if weight > 1e-15:
                    assert count == 0
            assert outcome.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_ring_heralds_shed_photons_when_lossy(self):
        outcome = analyze_patterns(build_sd(2, 0.9))[0]
        lossy_weight = sum(w for c, w in outcome.environment_histogram if c > 0)
        assert lossy_weight > 1e-3


class TestBasisChange:
    @staticmethod
    def _canonical(build):
        """sd measured in H/V: its half-wave plates fused into the last stage
        once more, which undoes them, and the spec relabelled."""
        plates = merge_maps([half_wave_plate(s) for s in build.spec.detector_stations])
        stages = (*build.stages[:-1], compose_maps(build.stages[-1], plates))
        return SchemeBuild(build.parties, stages,
                           build.spec._replace(detection_basis="HV"))

    def test_canonical_detection_halves_ring_success(self):
        build = build_sd(2, 0.9)
        reference = compute_metrics(build)
        rotated = compute_metrics(self._canonical(build))
        assert rotated.p_hr == pytest.approx(reference.p_hr, abs=1e-10)
        assert rotated.p_suc == pytest.approx(0.5 * reference.p_suc, abs=1e-10)

    def test_canonical_detection_kills_mixed_patterns(self):
        outcomes = analyze_patterns(self._canonical(build_sd(2, 0.9)))
        by_pattern = {o.pattern: o.probability for o in outcomes}
        assert by_pattern[("H", "V")] == pytest.approx(0.0, abs=1e-12)
        assert by_pattern[("V", "H")] == pytest.approx(0.0, abs=1e-12)
        assert by_pattern[("H", "H")] > 0.05

    def test_relabelling_changes_only_the_letters(self):
        # the circuit fixes what each slot measures; the spec's basis only names it
        build = build_sd(3, 0.9)
        relabelled = build._replace(spec=build.spec._replace(detection_basis="HV"))
        for da, hv in zip(analyze_patterns(build), analyze_patterns(relabelled)):
            assert hv.pattern == tuple("HV"["DA".index(c)] for c in da.pattern)
            assert hv._replace(pattern=da.pattern) == da
        reference, metrics = compute_metrics(build), compute_metrics(relabelled)
        assert (metrics.p_hr, metrics.p_suc) == (reference.p_hr, reference.p_suc)


class TestErrors:
    def test_metrics_reject_success_above_herald(self):
        with pytest.raises(ValueError):
            Metrics("bc", 2, 0.9, p_suc=0.3, p_hr=0.2)

    def test_metrics_reject_negative_success(self):
        with pytest.raises(ValueError):
            Metrics("bc", 2, 0.9, p_suc=-0.1, p_hr=0.2)

    def test_metrics_success_bound_is_relative(self):
        # an absolute slack would let p_suc exceed a tiny p_hr by orders of magnitude
        with pytest.raises(ValueError):
            Metrics("sd", 4, 0.01, p_suc=1e-13, p_hr=1e-20)
        Metrics("sd", 4, 0.01, p_suc=1e-20 * (1 + 1e-13), p_hr=1e-20)

    def test_metrics_success_bound_below_is_zero(self):
        with pytest.raises(ValueError):
            Metrics("sd", 4, 0.01, p_suc=-1e-13, p_hr=1e-20)
        Metrics("sd", 4, 0.01, p_suc=0.0, p_hr=1e-20)

    def test_metrics_reject_herald_above_one(self):
        with pytest.raises(ValueError):
            Metrics("bc", 2, 0.9, p_suc=0.5, p_hr=1.5)

    def test_metrics_replace_and_make_are_checked(self):
        # a named tuple's _replace and _make skip __new__ unless routed through it
        metrics = Metrics("bc", 2, 0.9, p_suc=0.1, p_hr=0.2)
        with pytest.raises(ValueError, match="inconsistent"):
            metrics._replace(p_suc=0.3)
        with pytest.raises(ValueError, match="exceeds 1"):
            Metrics._make(("bc", 2, 0.9, 0.5, 1.5))
        assert metrics._replace(p_hr=0.3) == Metrics("bc", 2, 0.9, p_suc=0.1, p_hr=0.3)

    def test_efficiency_undefined_without_heralds(self):
        with pytest.raises(UndefinedMetricError):
            Metrics("bc", 2, 0.0, p_suc=0.0, p_hr=0.0).h_eff

    def test_efficiency_undefined_for_subnormal_probabilities(self):
        # at eta=1e-80 bc's P_hr and P_suc are subnormal; their ratio reads
        # 0.996 although bc's h_eff is exactly 1
        metrics = compute_metrics(build_bc(2, 1e-80))
        assert 0.0 < metrics.p_suc < metrics.p_hr < sys.float_info.min
        with pytest.raises(UndefinedMetricError, match="subnormal"):
            metrics.h_eff
        with pytest.raises(UndefinedMetricError, match="subnormal"):
            Metrics("sd", 2, 0.5, p_suc=5e-324, p_hr=0.5).h_eff
        tiny = sys.float_info.min
        assert Metrics("bc", 2, 0.5, p_suc=tiny, p_hr=tiny).h_eff == 1.0
        assert Metrics("sd", 2, 0.5, p_suc=0.0, p_hr=tiny).h_eff == 0.0

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_fidelity_undefined_for_subnormal_probabilities(self, scheme):
        # the quotient read 0.996 for bc (exactly 1) and 0.0 for sd, whose
        # GHZ amplitudes underflow while its pattern probability does not
        outcomes = analyze_patterns(build_scheme(scheme, 2, 1e-80))
        for outcome in outcomes:
            assert 0.0 < outcome.probability < sys.float_info.min
            with pytest.raises(UndefinedMetricError, match="fidelity undefined: .* subnormal"):
                outcome.fidelity
        tiny = sys.float_info.min
        root = complex(math.sqrt(tiny))
        assert PatternOutcome(("H", "H"), 2 * tiny, (root, root), ()).fidelity == 1.0
        assert PatternOutcome(("H", "H"), 0.0, (0j, 0j), ()).fidelity == 0.0

    def test_fully_lossy_build_has_no_heralds(self):
        metrics = compute_metrics(build_bc(2, 0.0))
        assert metrics.p_hr == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(UndefinedMetricError):
            metrics.h_eff

    def test_phase_needs_both_branches(self):
        outcome = PatternOutcome(
            pattern=("H", "V"),
            probability=0.0,
            ghz_amplitudes=(0.0 + 0.0j, 0.0 + 0.0j),
            environment_histogram=(),
        )
        with pytest.raises(NoGhzComponentError):
            outcome.feedforward_phase()

    def test_weak_pattern_keeps_its_ghz_component(self):
        # pattern DDD has probability 2.3e-17 and two equal GHZ amplitudes of
        # 3.2e-17, below any absolute threshold but not residue
        outcome = analyze_patterns(build_sd(3, 0.003))[0]
        assert outcome.pattern == ("D", "D", "D")
        assert outcome.ghz_amplitudes[0] == outcome.ghz_amplitudes[1] != 0
        assert outcome.feedforward_phase() == 0.0

    def test_phase_of_tiny_negative_angle_is_zero(self):
        # atan2 gives -1e-17, and -1e-17 % 2 pi rounds to 2 pi itself
        outcome = PatternOutcome(("H", "H"), 1.0, (1 + 0j, complex(1, -1e-17)), ((0, 1.0),))
        assert outcome.feedforward_phase() == 0.0

    def test_oracle_size_cap(self):
        assert ORACLE_MAX_PARTIES == 7
        for scheme in SCHEMES:
            check_oracle_size(scheme, 7)
            with pytest.raises(OracleSizeError) as exc:
                check_oracle_size(scheme, 8)
            assert "closed-form" in str(exc.value)
            assert f"{scheme} is capped at 7" in str(exc.value)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_photon_guard_fires_before_any_multiplication(self, monkeypatch, scheme):
        # N=8 holds 16 photons; the guard reads every factor before the first
        # product is taken: build.state joins no two states, and the
        # reference evolves no party, so it has no terms to multiply
        build = build_scheme(scheme, 8, 0.9)
        formed = []
        monkeypatch.setattr(fock, "join", lambda *args: formed.append(args))
        monkeypatch.setattr(heralding, "_evolved_parties", formed.append)
        with pytest.raises(ValueError, match="at most 15 photons"):
            build.state
        with pytest.raises(ValueError, match="at most 15 photons"):
            detection_ready_state(build)
        assert formed == []
