"""Tests for the closed-form rates, thresholds, and crossover geometry."""

import decimal
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldnet.analytic import (
    QUOTED_CHORD_REFERENCE_KM,
    ChordAsymptote,
    RootBracketError,
    asymptotic_chord,
    chord_length,
    closed_h_eff,
    closed_p_hr,
    closed_p_suc,
    crossover_margin,
    crossover_radius,
    exact_h_eff,
    exact_p_hr,
    lhv_threshold,
    p_suc_crossing_party_count,
    sc_p_hr_uncorrected,
)
from heraldnet.heralding import UndefinedMetricError
from heraldnet.schemes import SCHEMES, NetworkGeometry, eta_for_geometry

ALPHA = 0.023
SUBNORMAL_STEP = decimal.Decimal(math.ldexp(1.0, -1074))  # 4.94e-324, the smallest float


class TestRateIdentities:
    def test_efficiency_times_herald_is_success(self):
        # dense deterministic sample over party count and transmission
        rng = random.Random(20260823)
        for _ in range(1000):
            n = rng.randint(2, 40)
            eta = rng.uniform(1e-3, 1.0)
            scheme = rng.choice(SCHEMES)
            design = closed_h_eff(scheme, n, eta) * closed_p_hr(scheme, n, eta)
            assert design == pytest.approx(closed_p_suc(scheme, n, eta), abs=1e-12)
            exact = exact_h_eff(scheme, n, eta) * exact_p_hr(scheme, n, eta)
            assert exact == pytest.approx(closed_p_suc(scheme, n, eta), abs=1e-12)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_lossless_forms_coincide(self, scheme, n):
        assert closed_p_hr(scheme, n, 1.0) == pytest.approx(
            closed_p_suc(scheme, n, 1.0), abs=1e-14
        )
        assert closed_h_eff(scheme, n, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert exact_p_hr(scheme, n, 1.0) == pytest.approx(
            closed_p_hr(scheme, n, 1.0), abs=1e-14
        )
        assert exact_h_eff(scheme, n, 1.0) == pytest.approx(1.0, abs=1e-14)

    @given(
        n=st.integers(min_value=2, max_value=30),
        eta=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_bell_scheme_never_false_heralds(self, n, eta):
        assert closed_h_eff("bc", n, eta) == pytest.approx(1.0, abs=1e-14)
        assert closed_p_hr("bc", n, eta) == pytest.approx(
            closed_p_suc("bc", n, eta), abs=1e-14
        )

    @given(
        n=st.integers(min_value=2, max_value=30),
        eta=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_single_photon_schemes_share_herald_rate(self, n, eta):
        assert exact_p_hr("sc", n, eta) == pytest.approx(
            exact_p_hr("sd", n, eta), rel=1e-12
        )

    def test_uncorrected_variant_scales_by_two_to_the_n(self):
        for n, eta in ((2, 0.9), (3, 0.7), (5, 0.95)):
            assert sc_p_hr_uncorrected(n, eta) == pytest.approx(
                2**n * closed_p_hr("sc", n, eta), rel=1e-12
            )


class TestSpotValues:
    def test_bell_two_party_lossless(self):
        assert closed_p_suc("bc", 2, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_bell_three_party_lossy(self):
        assert closed_p_suc("bc", 3, 0.9) == pytest.approx(0.13286025, abs=1e-12)

    def test_splitter_two_party_design_values(self):
        assert closed_p_suc("sc", 2, 0.9) == pytest.approx(0.0820125, abs=1e-12)
        assert closed_p_hr("sc", 2, 0.9) == pytest.approx(0.11909855250, abs=1e-11)
        assert closed_h_eff("sc", 2, 0.9) == pytest.approx(0.6886103842446, abs=1e-11)

    def test_ring_two_party_design_values(self):
        assert closed_p_suc("sd", 2, 0.9) == pytest.approx(0.05380840125, abs=1e-12)
        assert closed_p_hr("sd", 2, 0.9) == pytest.approx(0.08497315125, abs=1e-12)
        assert closed_h_eff("sd", 2, 0.9) == pytest.approx(0.63324003474, abs=1e-11)

    def test_two_party_exact_values(self):
        assert exact_p_hr("sc", 2, 0.9) == pytest.approx(0.11613790125, abs=1e-12)
        assert exact_h_eff("sc", 2, 0.9) == pytest.approx(1.0 / 1.4161, abs=1e-12)
        assert exact_h_eff("sd", 2, 0.9) == pytest.approx(0.6561 / 1.4161, abs=1e-12)


class TestValidation:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: closed_p_suc("zz", 2, 0.9), "unknown scheme 'zz'"),
            (lambda: closed_p_suc("sc", 1, 0.9), "need at least two parties"),
            (lambda: closed_p_suc("sc", 2, 1.5), r"eta must lie in \[0, 1\], got 1.5"),
            (lambda: closed_p_suc("sc", 2, -0.1), r"eta must lie in \[0, 1\], got -0.1"),
            (lambda: lhv_threshold(1), "need at least two parties"),
            (lambda: crossover_radius(1), "need at least two parties"),
            (lambda: crossover_radius(7, alpha=0.0), "attenuation must be positive"),
            (lambda: crossover_radius(7, alpha=math.nan), "attenuation must be finite, got nan"),
            (lambda: crossover_radius(7, alpha=math.inf), "attenuation must be finite, got inf"),
            (lambda: asymptotic_chord(math.nan), "attenuation must be finite, got nan"),
            (lambda: asymptotic_chord(math.inf), "attenuation must be finite, got inf"),
            (lambda: asymptotic_chord(0.0), "attenuation must be positive"),
            (lambda: asymptotic_chord(-1.0), "attenuation must be positive"),
        ],
    )
    def test_rejects_bad_arguments(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("fn", [closed_h_eff, exact_h_eff])
    def test_efficiency_undefined_at_zero_transmission(self, fn):
        with pytest.raises(UndefinedMetricError):
            fn("sc", 2, 0.0)

    def test_zero_transmission_rates_vanish(self):
        assert closed_p_suc("sd", 3, 0.0) == 0.0
        assert closed_p_hr("sd", 3, 0.0) == 0.0

    def test_bracket_error_is_arithmetic(self):
        assert issubclass(RootBracketError, ArithmeticError)


def decimal_forms(n, eta):
    """Every closed form at (n, eta), keyed by (function, scheme), in 40-digit
    decimal arithmetic with an exponent range no N here can leave."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 40, decimal.MAX_EMAX, decimal.MIN_EMIN
        e2 = decimal.Decimal(eta) ** 2
        two = decimal.Decimal(2)
        ring_home = (2 * e2 - e2 * e2) ** n  # (2 eta^2 - eta^4)^N
        sc_design = e2**n + (3 * e2 - 2 * e2 * e2) ** n
        forms = {
            ("closed_p_suc", "bc"): e2**n / two ** (n - 1),
            ("closed_p_suc", "sc"): e2**n / two ** (2 * n - 1),
            ("closed_p_suc", "sd"): e2 ** (2 * n) / two ** (2 * n - 1),
            ("closed_p_hr", "bc"): e2**n / two ** (n - 1),
            ("closed_p_hr", "sc"): sc_design / two ** (2 * n),
            ("closed_p_hr", "sd"): (ring_home + e2 ** (2 * n)) / two ** (2 * n),
            ("closed_h_eff", "bc"): decimal.Decimal(1),
            ("closed_h_eff", "sc"): 2 / (1 + (3 - 2 * e2) ** n),
            ("closed_h_eff", "sd"): 2 * e2**n / ((2 - e2) ** n + e2**n),
            ("sc_p_hr_uncorrected", "sc"): sc_design / two**n,
            ("exact_p_hr", "bc"): e2**n / two ** (n - 1),
            ("exact_p_hr", "sc"): ring_home / two ** (2 * n - 1),
            ("exact_p_hr", "sd"): ring_home / two ** (2 * n - 1),
            ("exact_h_eff", "bc"): decimal.Decimal(1),
            ("exact_h_eff", "sc"): 1 / (2 - e2) ** n,
            ("exact_h_eff", "sd"): e2**n / (2 - e2) ** n,
        }
        return {key: float(value) if value >= sys.float_info.min else value
                for key, value in forms.items()}


class TestAnyPartyCount:
    # where a form with a power above 1 would leave the float range: past
    # N = 511 the int 2^2N no longer converts to a float; sc's herald
    # numerators pass it from N = 6027 at eta^2 = 3/4, (3 - 2 eta^2)^N from
    # N = 647 at eta = 1e-3, (2 - eta^2)^N from N = 1025 at eta = 1e-3 and
    # at N = 2000, eta = 0.5
    @pytest.mark.parametrize("n", [2, 3, 7, 13, 50, 100, 511, 512, 520, 646, 647, 1024, 1025,
                                   2000, 6026, 6027, 10**6])
    def test_every_form_follows_its_decimal_value(self, n):
        forms = {"closed_p_suc": closed_p_suc, "closed_p_hr": closed_p_hr,
                 "closed_h_eff": closed_h_eff, "exact_p_hr": exact_p_hr,
                 "exact_h_eff": exact_h_eff,
                 "sc_p_hr_uncorrected": lambda scheme, n, eta: sc_p_hr_uncorrected(n, eta)}
        for eta in (1e-3, 0.1, 0.5, math.sqrt(0.75), 0.9, 1.0):
            for (name, scheme), reference in decimal_forms(n, eta).items():
                value = forms[name](scheme, n, eta)
                if isinstance(reference, float):
                    assert value == pytest.approx(reference, rel=1e-12), (name, scheme, eta)
                elif reference >= SUBNORMAL_STEP:
                    # a subnormal, to rel 1e-12 or to the last step where that is finer
                    gap = abs(decimal.Decimal(value) - reference)
                    assert value > 0.0 and gap <= max(reference * decimal.Decimal("1e-12"),
                                                      SUBNORMAL_STEP), (name, scheme, eta)
                else:
                    assert 0.0 <= value < sys.float_info.min, (name, scheme, eta)


class TestThresholds:
    def test_lhv_threshold_values(self):
        assert lhv_threshold(2) == pytest.approx(1.0, abs=1e-14)
        assert lhv_threshold(3) == pytest.approx(0.75, abs=1e-14)
        assert lhv_threshold(4) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_lhv_threshold_decreases_toward_half(self):
        values = [lhv_threshold(n) for n in range(2, 60)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.5
        assert lhv_threshold(10**6) == pytest.approx(0.5, abs=1e-5)


class TestGeometry:
    def test_transmission_of_length(self):
        def eta(length_km):
            # a central link is as long as the radius
            return eta_for_geometry("bc", NetworkGeometry(2, length_km, ALPHA))

        assert eta(0.0) == 1.0
        assert eta(100.0) == pytest.approx(math.exp(-2.3), abs=1e-15)
        # one kilometre of standard fibre keeps ~95.5% of the photons
        assert eta(1.0) ** 2 == pytest.approx(0.955, abs=1e-3)

    def test_chord_of_square(self):
        assert chord_length(10.0, 4) == pytest.approx(10.0 * math.sqrt(2.0), abs=1e-12)

    def test_margin_sign_structure(self):
        # wide ring angles favour the central schemes from the start
        assert crossover_margin(1.0, 4, ALPHA) > 0.0
        # narrow angles open a window where the ring wins before fibre loss
        # on the long central links takes over again
        assert crossover_margin(1.0, 7, ALPHA) < 0.0
        assert crossover_margin(10.0, 7, ALPHA) > 0.0
        assert crossover_margin(0.0, 7, ALPHA) == pytest.approx(0.0, abs=1e-14)


class TestCrossoverRadius:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_small_rings_have_no_positive_crossover(self, n):
        assert crossover_radius(n) == 0.0

    def test_seven_party_crossover(self):
        assert crossover_radius(7) == pytest.approx(3.3071233372, abs=1e-8)

    def test_eight_and_nine_party_crossovers(self):
        assert crossover_radius(8) == pytest.approx(6.6250781837, abs=1e-8)
        assert crossover_radius(9) == pytest.approx(9.9229785352, abs=1e-8)

    def test_crossover_radius_increases_with_parties(self):
        radii = [crossover_radius(n) for n in range(7, 41)]
        assert all(a < b for a, b in zip(radii, radii[1:]))

    @pytest.mark.parametrize("n", [7, 8, 11, 13, 30, 500])
    def test_root_residual_is_small(self, n):
        # bisected to adjacent floats, the margin at the root is rounding noise
        root = crossover_radius(n)
        assert abs(crossover_margin(root, n, ALPHA)) <= 1e-14

    @pytest.mark.parametrize("n", [7, 8, 500])
    def test_bisection_ends_at_adjacent_floats(self, n):
        # the root is one end of a bracket of two adjacent floats in alpha*R,
        # across which the margin changes sign
        x = crossover_radius(n, 1.0)
        if crossover_margin(x, n, 1.0) < 0.0:
            assert crossover_margin(math.nextafter(x, math.inf), n, 1.0) >= 0.0
        else:
            assert crossover_margin(math.nextafter(x, 0.0), n, 1.0) < 0.0

    @pytest.mark.parametrize("alpha", [1e-300, 1e-17, 1e-3, ALPHA, 1e3, 1e300, 1e308])
    def test_radius_scales_inversely_with_attenuation(self, alpha):
        # the margin depends on alpha*R alone and the root is bisected in
        # alpha*R, so alpha*R is the alpha = 1 root to the last digits; at
        # alpha = 1e308 the radius is subnormal and keeps fewer of them
        rel = 1e-14 if alpha == 1e308 else 4 * 2.0**-53
        reference = crossover_radius(7, 1.0)
        assert alpha * crossover_radius(7, alpha) == pytest.approx(reference, rel=rel, abs=0.0)


class TestChordAsymptote:
    def test_analytic_limit(self):
        report = asymptotic_chord()
        assert report.analytic_limit_km == pytest.approx(
            math.log(2.0) / (2.0 * ALPHA), abs=1e-12
        )
        assert report.analytic_limit_km == pytest.approx(15.0684169687, abs=1e-9)

    def test_numeric_chord_converges_to_limit(self):
        report = asymptotic_chord()
        assert report.reference_n == 500
        assert report.numeric_at_reference_n_km == pytest.approx(
            report.analytic_limit_km, abs=1e-6
        )

    def test_quoted_reference_is_reported_not_reproduced(self):
        report = asymptotic_chord()
        assert report.quoted_reference_km == QUOTED_CHORD_REFERENCE_KM == 15.71
        assert abs(report.analytic_limit_km - report.quoted_reference_km) > 0.5

    def test_report_is_a_plain_record(self):
        report = asymptotic_chord(alpha=0.046, reference_n=200)
        assert isinstance(report, ChordAsymptote)
        assert report.alpha == 0.046
        assert report.analytic_limit_km == pytest.approx(
            math.log(2.0) / 0.092, abs=1e-12
        )


class TestSchemeCrossing:
    def test_crossing_party_count(self):
        assert p_suc_crossing_party_count() == 13

    def test_success_rate_ordering_straddles_the_count(self):
        radius = 10.0
        for n, ring_wins in ((12, False), (13, True)):
            geometry = NetworkGeometry(n, radius, ALPHA)
            eta_central = eta_for_geometry("sc", geometry)
            eta_ring = eta_for_geometry("sd", geometry)
            ring = closed_p_suc("sd", n, eta_ring)
            central = closed_p_suc("sc", n, eta_central)
            assert (ring > central) == ring_wins

    def test_crossing_matches_quarter_sine_rule(self):
        count = p_suc_crossing_party_count()
        assert math.sin(math.pi / count) < 0.25
        assert math.sin(math.pi / (count - 1)) >= 0.25
