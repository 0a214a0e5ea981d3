"""Tests for click-pattern analysis and the heralded metrics."""

import dataclasses
import math

import pytest

from heraldnet.analytic import closed_p_suc, exact_h_eff, exact_p_hr
from heraldnet.fock import norm_squared
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
    detector_rotation,
    enumerate_patterns,
    false_herald_breakdown,
)
from heraldnet.optics import apply
from heraldnet.schemes import SCHEMES, SchemeBuild, build_bc, build_sc, build_scheme, build_sd


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
        with pytest.raises(KeyError):
            enumerate_patterns(2, "XY")


class TestDetectionPipeline:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_ready_state_is_normalized(self, scheme):
        build = build_scheme(scheme, 2, 0.8)
        assert norm_squared(detection_ready_state(build)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_fused_rotation_matches_explicit_rotation(self):
        # the production path folds the detector basis change into the last
        # circuit stage; the explicit two-step path must give the same state
        build = build_sd(2, 0.9)
        fused = detection_ready_state(build)
        state = build.state
        for stage in build.circuit.stages:
            state = apply(stage, state)
        explicit = apply(detector_rotation(build.spec), state)
        assert fused.terms.keys() == explicit.terms.keys()
        for monomial, amp in fused.terms.items():
            assert amp == pytest.approx(explicit.terms[monomial], abs=1e-12)

    @pytest.mark.parametrize("builder", [build_bc, build_sc])
    def test_canonical_basis_needs_no_rotation(self, builder):
        build = builder(2, 0.9)
        fused = detection_ready_state(build)
        state = build.state
        for stage in build.circuit.stages:
            state = apply(stage, state)
        assert fused.terms.keys() == state.terms.keys()
        for monomial, amp in fused.terms.items():
            assert amp == pytest.approx(state.terms[monomial], abs=1e-12)

    def test_rotation_is_self_inverse(self):
        build = build_sd(2, 0.9)
        rotation = detector_rotation(build.spec)
        state = build.state
        for stage in build.circuit.stages:
            state = apply(stage, state)
        twice = apply(rotation, apply(rotation, state))
        assert twice.terms.keys() == state.terms.keys()
        for monomial, amp in twice.terms.items():
            assert amp == pytest.approx(state.terms[monomial], abs=1e-12)

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


class TestPatternOutcomes:
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
    @pytest.mark.parametrize("n", [2, 3])
    def test_phases_follow_feedforward_rule(self, scheme, n):
        build = build_scheme(scheme, n, 0.9)
        for outcome in analyze_patterns(build):
            if outcome.probability <= 0.0:
                continue
            expected = build.spec.feedforward_rule(outcome.pattern) % (2.0 * math.pi)
            assert outcome.feedforward_phase() == pytest.approx(
                expected, abs=1e-9
            ), outcome.pattern

    @pytest.mark.parametrize("builder", [build_bc, build_sc])
    def test_compensation_plates_do_not_change_outcomes(self, builder):
        plain = analyze_patterns(builder(3, 0.9, compensate_c1=False))
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
    def test_breakdown_sorted_and_consistent(self, scheme):
        build = build_scheme(scheme, 2, 0.8)
        rows = false_herald_breakdown(build)
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
    def test_canonical_detection_halves_ring_success(self):
        build = build_sd(2, 0.9)
        reference = compute_metrics(build)
        spec = dataclasses.replace(build.spec, detection_basis="HV")
        rotated = compute_metrics(SchemeBuild(build.state, build.circuit, spec))
        assert rotated.p_hr == pytest.approx(reference.p_hr, abs=1e-10)
        assert rotated.p_suc == pytest.approx(0.5 * reference.p_suc, abs=1e-10)

    def test_canonical_detection_kills_mixed_patterns(self):
        build = build_sd(2, 0.9)
        spec = dataclasses.replace(build.spec, detection_basis="HV")
        outcomes = analyze_patterns(SchemeBuild(build.state, build.circuit, spec))
        by_pattern = {o.pattern: o.probability for o in outcomes}
        assert by_pattern[("H", "V")] == pytest.approx(0.0, abs=1e-12)
        assert by_pattern[("V", "H")] == pytest.approx(0.0, abs=1e-12)
        assert by_pattern[("H", "H")] > 0.05


class TestErrors:
    def test_detectors_must_be_the_last_registered_modes(self):
        build = build_sc(2, 0.9)
        spec = dataclasses.replace(
            build.spec, detector_stations=tuple(reversed(build.spec.detector_stations))
        )
        with pytest.raises(ValueError, match="last registered modes"):
            analyze_patterns(SchemeBuild(build.state, build.circuit, spec))

    def test_metrics_reject_success_above_herald(self):
        with pytest.raises(ValueError):
            Metrics("bc", 2, 0.9, p_suc=0.3, p_hr=0.2)

    def test_metrics_reject_negative_success(self):
        with pytest.raises(ValueError):
            Metrics("bc", 2, 0.9, p_suc=-0.1, p_hr=0.2)

    def test_metrics_reject_herald_above_one(self):
        with pytest.raises(ValueError):
            Metrics("bc", 2, 0.9, p_suc=0.5, p_hr=1.5)

    def test_efficiency_undefined_without_heralds(self):
        with pytest.raises(UndefinedMetricError):
            Metrics("bc", 2, 0.0, p_suc=0.0, p_hr=0.0).h_eff

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

    def test_oracle_size_cap(self):
        check_oracle_size(ORACLE_MAX_PARTIES)
        with pytest.raises(OracleSizeError) as exc:
            check_oracle_size(ORACLE_MAX_PARTIES + 1)
        assert "closed-form" in str(exc.value)
