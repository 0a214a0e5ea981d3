"""Sparse state algebra: registry, norms, inner products, photon appends."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heraldnet.fock import (
    ModeRegistry,
    RegistryError,
    inner_product,
    monomial_from_counts,
    norm_squared,
    state_from_creation_product,
    superpose,
    with_photons,
)


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


def test_monomial_from_counts_sorts_and_drops_zeros():
    assert monomial_from_counts({3: 1, 1: 2, 5: 0}) == ((1, 2), (3, 1))


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


def test_pruning_drops_tiny_amplitudes(registry):
    m = registry.get("b1", "H")
    s = state_from_creation_product(registry, [m], amplitude=1e-16)
    assert len(s) == 0


def test_states_from_different_registries_do_not_mix(registry):
    other = ModeRegistry()
    m = other.register("b1", "H", "retained")
    s1 = state_from_creation_product(registry, [registry.get("b1", "H")])
    s2 = state_from_creation_product(other, [m])
    with pytest.raises(RegistryError):
        inner_product(s1, s2)
