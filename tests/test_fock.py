"""Sparse state algebra: registry, norms, inner products, photon appends."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from heraldnet.fock import (
    MAX_OCCUPATION,
    ModeRegistry,
    PhotonicState,
    RegistryError,
    _monomial_weight,
    cancel_residue,
    inner_product,
    norm_squared,
    occupations,
    pack,
    photons,
    product,
    state_from_creation_product,
    superpose,
    with_photons,
)
from heraldnet.optics import LinearMap, apply


@pytest.fixture
def registry():
    r = ModeRegistry()
    for label in ("b1", "b2", "c1"):
        r.register(label, "H", "retained")
        r.register(label, "V", "retained")
    r.register("f1", "H", "environment")
    return r


def test_registration_assigns_dense_indices(registry):
    assert [m.index for m in registry.modes] == list(range(7))
    assert registry.get("b2", "V").index == 3


def test_modes_compare_hash_and_print_without_their_registry(registry):
    twin = ModeRegistry().register("b1", "H", "retained")
    mode = registry.get("b1", "H")
    assert twin.registry is not mode.registry
    assert mode == twin and not mode != twin and hash(mode) == hash(twin)
    assert mode != registry.get("b1", "V")
    assert repr(twin) == "Mode(index=0, spatial_label='b1', polarization='H', role='retained')"


def test_duplicate_registration_rejected(registry):
    with pytest.raises(RegistryError):
        registry.register("b1", "H", "retained")


def test_invalid_polarization_and_role_rejected():
    r = ModeRegistry()
    with pytest.raises(RegistryError):
        r.register("a1", "D", "retained")
    with pytest.raises(RegistryError):
        r.register("a1", "H", "spectator")


def test_environment_claim_is_single_use(registry):
    env = registry.get("f1", "H")
    registry.claim_environment(env)
    with pytest.raises(RegistryError):
        registry.claim_environment(env)
    with pytest.raises(RegistryError):
        registry.claim_environment(registry.get("b1", "H"))


def test_vacuum_state_has_unit_norm(registry):
    vac = state_from_creation_product(registry, [])
    assert norm_squared(vac) == 1.0
    assert len(vac) == 1


def test_single_photon_norm(registry):
    s = state_from_creation_product(registry, [registry.get("b1", "H")])
    assert norm_squared(s) == pytest.approx(1.0)


def test_doubly_occupied_mode_carries_factorial_weight(registry):
    m = registry.get("b1", "H")
    s = state_from_creation_product(registry, [m, m])
    # (a_dag)^2 |0> has squared norm 2!
    assert norm_squared(s) == pytest.approx(2.0)


def test_foreign_mode_rejected(registry):
    other = ModeRegistry()
    alien = other.register("b1", "H", "retained")
    with pytest.raises(RegistryError):
        state_from_creation_product(registry, [alien])


def test_superpose_combines_like_terms(registry):
    m = registry.get("b1", "H")
    s = state_from_creation_product(registry, [m])
    combined = superpose([(0.5, s), (0.5, s)])
    assert len(combined) == 1
    assert norm_squared(combined) == pytest.approx(1.0)


def test_superpose_prunes_cancellations(registry):
    m = registry.get("b1", "H")
    s = state_from_creation_product(registry, [m])
    cancelled = superpose([(1.0, s), (-1.0, s)])
    assert len(cancelled) == 0
    assert norm_squared(cancelled) == 0.0


def test_inner_product_is_conjugate_linear_in_left(registry):
    m = registry.get("b1", "H")
    s = state_from_creation_product(registry, [m], amplitude=1j)
    t = state_from_creation_product(registry, [m], amplitude=2.0)
    assert inner_product(s, t) == pytest.approx(-2j)
    assert inner_product(t, s) == pytest.approx(2j)


def test_inner_product_of_orthogonal_monomials_vanishes(registry):
    s = state_from_creation_product(registry, [registry.get("b1", "H")])
    t = state_from_creation_product(registry, [registry.get("b1", "V")])
    assert inner_product(s, t) == 0


def test_state_cleans_its_dict_in_place(registry):
    # exact zeros go, every other amplitude becomes complex, and the keys keep
    # their order in the same dict: no second copy of a large state is made
    a, b, c, d = (pack({i: 1}) for i in range(4))
    amplitudes = {d: 2, a: 0j, c: 0.5, b: 1j, pack({4: 1}): 0.0}
    state = PhotonicState(registry, amplitudes)
    assert state.amplitudes is amplitudes
    assert list(amplitudes.items()) == [(d, 2 + 0j), (c, 0.5 + 0j), (b, 1j)]
    assert all(type(v) is complex for v in amplitudes.values())


def test_inner_product_runs_over_the_smaller_state(registry):
    # the shared keys are summed in the smaller state's order (the left one's
    # on a tie), and a right-side walk is conjugated back: 0.3 + 0.2 + 0.1 is
    # 0.6, while 0.1 + 0.2 + 0.3 rounds to 0.6000000000000001
    a, b, c, d = (pack({i: 1}) for i in range(4))
    left = PhotonicState(registry, {a: 0.1, b: 0.2, c: 0.3, d: 7.0})
    right = PhotonicState(registry, {c: 1j, b: 1j, a: 1j})
    assert inner_product(left, right) == 0.6j
    assert inner_product(right, left) == -0.6j
    tie = PhotonicState(registry, {a: 0.1, b: 0.2, c: 0.3})
    assert inner_product(tie, right) == 0.6000000000000001j
    # each shared key carries its factorial weight
    doubled = pack({0: 2})
    assert inner_product(PhotonicState(registry, {doubled: 1.0}),
                         PhotonicState(registry, {doubled: 3j, d: 1.0})) == 6j


def test_inner_product_that_cancels_to_residue_is_an_exact_zero(registry):
    # 3 * 0.1 rounds to 0.30000000000000004, so the two terms leave 5.6e-17;
    # a sum that small against terms of 0.3 is residue, not an amplitude
    assert 3 * 0.1 - 0.3 != 0
    a, b = pack({0: 1}), pack({1: 1})
    state = lambda amplitudes: PhotonicState(registry, amplitudes)
    assert inner_product(state({a: 3.0, b: 1.0}), state({a: 0.1, b: -0.3})) == 0j
    assert cancel_residue(3 * 0.1 - 0.3, 0.6) == 0j
    # a tiny sum of terms that do not cancel is kept
    assert inner_product(state({a: 1.0, b: 1.0}), state({a: 1e-30, b: 1e-30})) == 2e-30


def test_pack_and_occupations_round_trip():
    key = pack({3: 1, 1: 2, 5: 0})
    assert key == (2 << 4) + (1 << 12)
    assert occupations(key) == [(1, 2), (3, 1)]
    assert pack({}) == 0 and occupations(0) == []


@given(st.dictionaries(st.integers(0, 200), st.integers(0, MAX_OCCUPATION)))
@example({64: 1, 100: MAX_OCCUPATION, 3: 2})
@example({i: MAX_OCCUPATION for i in range(70)})
def test_photons_is_the_occupation_sum(counts):
    # exact for keys of any width, not only the first 64 modes
    key = pack(counts)
    assert photons(key) == sum(k for _, k in occupations(key)) == sum(counts.values())


@given(st.lists(st.integers(0, 200), max_size=MAX_OCCUPATION))
@example([64, 64, 100, 100, 100, 3])
@example([0] * MAX_OCCUPATION)
def test_monomial_weight_is_the_factorial_product(modes):
    # read by bit planes, for keys of any width holding at most MAX_OCCUPATION photons
    key = pack(Counter(modes))
    assert _monomial_weight(key) == math.prod(math.factorial(k) for _, k in occupations(key))


@pytest.mark.parametrize("count", [-1, MAX_OCCUPATION + 1])
def test_pack_rejects_occupations_outside_one_nibble(count):
    with pytest.raises(ValueError):
        pack({2: count})


def test_photon_entry_points_stop_before_a_nibble_overflows(registry):
    m = registry.get("b1", "H")
    full = state_from_creation_product(registry, [m] * MAX_OCCUPATION)
    assert full.terms == {((m.index, MAX_OCCUPATION),): 1.0}
    with pytest.raises(ValueError):
        state_from_creation_product(registry, [m] * (MAX_OCCUPATION + 1))
    with pytest.raises(ValueError):
        with_photons(full, {registry.get("c1", "H").index: 1})


def test_with_photons_appends_to_every_term(registry):
    bh, bv, ch = registry.get("b1", "H"), registry.get("b1", "V"), registry.get("c1", "H")
    s = superpose(
        [
            (0.6, state_from_creation_product(registry, [bh])),
            (0.8j, state_from_creation_product(registry, [bv])),
        ]
    )
    out = with_photons(s, {bh.index: 1, ch.index: 2})
    assert out.terms == {
        ((bh.index, 2), (ch.index, 2)): 0.6,
        ((bh.index, 1), (bv.index, 1), (ch.index, 2)): 0.8j,
    }


@given(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False), min_size=1, max_size=6))
def test_norm_squared_matches_direct_sum(amps):
    r = ModeRegistry()
    modes = [r.register(f"m{i}", "H", "internal") for i in range(len(amps))]
    state = superpose(
        [(a, state_from_creation_product(r, [m])) for a, m in zip(amps, modes)]
    )
    assert norm_squared(state) == pytest.approx(sum(abs(a) ** 2 for a in amps), abs=1e-12)


def test_tiny_amplitudes_are_kept(registry):
    m = registry.get("b1", "H")
    s = state_from_creation_product(registry, [m], amplitude=1e-16)
    assert s.terms == {((m.index, 1),): 1e-16}


@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_cancellation_inside_apply_leaves_no_key(registry, scale):
    # Two-photon interference: the b2_H c1_H amplitudes cos^2 and -sin^2 of
    # pi/4 cancel up to rounding, whatever the state's scale.
    bh, bv = registry.get("b1", "H"), registry.get("b1", "V")
    x, y = registry.get("b2", "H"), registry.get("c1", "H")
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    assert c * c - s * s != 0.0
    mixer = LinearMap(registry, {bh.index: ((x.index, c), (y.index, s)),
                                 bv.index: ((x.index, -s), (y.index, c))})
    out = apply(mixer, state_from_creation_product(registry, [bh, bv], amplitude=scale))
    assert sorted(out.amplitudes) == sorted([pack({x.index: 2}), pack({y.index: 2})])


@pytest.mark.parametrize("eps", [3e-13, 1e-13, 1e-14])
def test_near_balanced_splitter_keeps_its_small_amplitude(registry, eps):
    # t^2 = 1/2 + eps: the b2_H c1_H amplitude r^2 - t^2 is about -2 eps, a
    # true amplitude, far above the rounding of its two parts of about 1/2
    x, y = registry.get("b2", "H"), registry.get("c1", "H")
    t, r = math.sqrt(0.5 + eps), math.sqrt(0.5 - eps)
    splitter = LinearMap(registry, {x.index: ((x.index, t), (y.index, r)),
                                    y.index: ((x.index, r), (y.index, -t))})
    out = apply(splitter, state_from_creation_product(registry, [x, y]))
    amplitude = out.amplitudes.get(pack({x.index: 1, y.index: 1}), 0j)
    assert abs(amplitude - float(Fraction(r) ** 2 - Fraction(t) ** 2)) <= 2**-53
    assert math.isclose(amplitude.real, -2 * eps, rel_tol=0.05)


def test_product_on_a_shared_mode_raises_its_occupation(registry):
    m = registry.get("b1", "H")
    first = state_from_creation_product(registry, [m], amplitude=0.6)
    second = state_from_creation_product(registry, [m], amplitude=0.8j)
    assert product([first, second]).terms == {((m.index, 2),): 0.6 * 0.8j}


def test_product_routes_that_cancel_leave_no_key(registry):
    # (c x + s y)(s x - c y): the two x y routes carry s^2 and -c^2 at pi/4,
    # which cancel up to rounding.
    x, y = registry.get("b2", "H"), registry.get("c1", "H")
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    assert c * c - s * s != 0.0

    def pair(u, v):
        return superpose([(u, state_from_creation_product(registry, [x])),
                          (v, state_from_creation_product(registry, [y]))])

    out = product([pair(c, s), pair(s, -c)])
    assert sorted(out.amplitudes) == sorted([pack({x.index: 2}), pack({y.index: 2})])


def test_states_from_different_registries_do_not_mix(registry):
    other = ModeRegistry()
    m = other.register("b1", "H", "retained")
    s1 = state_from_creation_product(registry, [registry.get("b1", "H")])
    s2 = state_from_creation_product(other, [m])
    with pytest.raises(RegistryError):
        inner_product(s1, s2)
