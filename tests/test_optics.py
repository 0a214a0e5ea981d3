"""Element conventions, isometry checks, and exact map application."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldnet.fock import (
    ModeCollisionError,
    ModeRegistry,
    RegistryError,
    norm_squared,
    state_from_creation_product,
    superpose,
)
from heraldnet.optics import (
    LinearMap,
    TermBudgetError,
    apply,
    bs_5050,
    compose_maps,
    is_isometry,
    loss_channel,
    merge_maps,
    pbs_da,
    pbs_hv,
    phase_plate,
    rewire,
)

R = 1.0 / math.sqrt(2.0)


def make_registry():
    r = ModeRegistry()
    pairs = {}
    for label in ("a1", "b1", "c1", "d1", "e1"):
        pairs[label] = (
            r.register(label, "H", "internal"),
            r.register(label, "V", "internal"),
        )
    env = (r.register("f1", "H", "environment"), r.register("f1", "V", "environment"))
    return r, pairs, env


def amplitudes(state):
    return {m: a for m, a in state.terms.items()}


def test_bs_5050_splits_evenly():
    r, pairs, _ = make_registry()
    a, b, c = pairs["a1"][0], pairs["b1"][0], pairs["c1"][0]
    split = bs_5050(a, b, c)
    out = apply(split, state_from_creation_product(r, [a]))
    amps = amplitudes(out)
    assert amps[((b.index, 1),)] == pytest.approx(R)
    assert amps[((c.index, 1),)] == pytest.approx(R)
    assert is_isometry(split)


def test_bs_5050_requires_matching_polarizations():
    r, pairs, _ = make_registry()
    with pytest.raises(RegistryError):
        bs_5050(pairs["a1"][0], pairs["b1"][1], pairs["c1"][0])


def test_loss_channel_splits_into_environment():
    r, pairs, env = make_registry()
    c = pairs["c1"][0]
    lossy = loss_channel(c, env[0], 0.6)
    out = apply(lossy, state_from_creation_product(r, [c]))
    amps = amplitudes(out)
    assert amps[((c.index, 1),)] == pytest.approx(0.6)
    assert amps[((env[0].index, 1),)] == pytest.approx(0.8)
    assert is_isometry(lossy)


def test_loss_channel_validates_inputs():
    r, pairs, env = make_registry()
    with pytest.raises(ValueError):
        loss_channel(pairs["c1"][0], env[0], 1.5)
    with pytest.raises(RegistryError):
        loss_channel(pairs["c1"][0], pairs["b1"][0], 0.5)


def test_environment_mode_serves_exactly_one_loss_element():
    r, pairs, env = make_registry()
    loss_channel(pairs["c1"][0], env[0], 0.5)
    with pytest.raises(RegistryError):
        loss_channel(pairs["b1"][0], env[0], 0.5)


def test_lossless_channel_has_no_environment_column():
    r, pairs, env = make_registry()
    lossy = loss_channel(pairs["c1"][0], env[0], 1.0)
    (col,) = lossy.columns.values()
    assert col == ((pairs["c1"][0].index, 1.0),)


def test_pbs_da_two_photon_interference():
    # one H and one V photon into the same input port: the diagonal output
    # pair bunches, giving (D_out^2 - A_out^2)/2 with no cross D*A term
    r, pairs, _ = make_registry()
    a, d, keep = pairs["a1"], pairs["d1"], pairs["e1"]
    element = pbs_da(a, d, keep)
    assert is_isometry(element)
    out = apply(element, state_from_creation_product(r, [a[0], a[1]]))
    amps = amplitudes(out)
    dh, dv = d[0].index, d[1].index
    kh, kv = keep[0].index, keep[1].index
    assert amps[((dh, 2),)] == pytest.approx(0.25)
    assert amps[((dh, 1), (dv, 1))] == pytest.approx(0.5)
    assert amps[((dv, 2),)] == pytest.approx(0.25)
    assert amps[((kh, 2),)] == pytest.approx(-0.25)
    assert amps[((kh, 1), (kv, 1))] == pytest.approx(0.5)
    assert amps[((kv, 2),)] == pytest.approx(-0.25)
    assert norm_squared(out) == pytest.approx(1.0)


def test_pbs_hv_routes_by_polarization():
    r, pairs, _ = make_registry()
    b, c, e, d = pairs["b1"], pairs["c1"], pairs["e1"], pairs["d1"]
    element = pbs_hv(b, c, e, d)
    assert is_isometry(element)
    # a diagonal-basis A photon on the second input splits into
    # (d_H - e_V)/sqrt(2)
    c_a = superpose(
        [
            (R, state_from_creation_product(r, [c[0]])),
            (-R, state_from_creation_product(r, [c[1]])),
        ]
    )
    out = apply(element, c_a)
    amps = amplitudes(out)
    assert amps[((d[0].index, 1),)] == pytest.approx(R)
    assert amps[((e[1].index, 1),)] == pytest.approx(-R)


def test_phase_plate_multiplies_amplitude():
    r, pairs, _ = make_registry()
    c = pairs["c1"][0]
    plate = phase_plate(c, math.pi / 3)
    out = apply(plate, state_from_creation_product(r, [c]))
    assert amplitudes(out)[((c.index, 1),)] == pytest.approx(cmath.exp(1j * math.pi / 3))


def test_phase_plate_pi_flips_sign():
    r, pairs, _ = make_registry()
    c = pairs["c1"][0]
    out = apply(phase_plate(c, math.pi), state_from_creation_product(r, [c]))
    assert amplitudes(out)[((c.index, 1),)] == pytest.approx(-1.0)


def test_rewire_swaps_labels_on_both_polarizations():
    r, pairs, _ = make_registry()
    swap = rewire(r, {"b1": "c1", "c1": "b1"})
    state = state_from_creation_product(r, [pairs["b1"][0], pairs["c1"][1]])
    out = apply(swap, state)
    amps = amplitudes(out)
    key = tuple(sorted(((pairs["c1"][0].index, 1), (pairs["b1"][1].index, 1))))
    assert amps[key] == pytest.approx(1.0)


def test_rewire_requires_bijection():
    r, pairs, _ = make_registry()
    with pytest.raises(RegistryError):
        rewire(r, {"b1": "c1", "a1": "c1"})


def test_merge_maps_rejects_overlapping_inputs():
    r, pairs, _ = make_registry()
    p1 = phase_plate(pairs["c1"][0], 0.1)
    p2 = phase_plate(pairs["c1"][0], 0.2)
    with pytest.raises(RegistryError):
        merge_maps([p1, p2])


def test_compose_matches_sequential_application():
    r, pairs, env = make_registry()
    a, b, c = pairs["a1"][0], pairs["b1"][0], pairs["c1"][0]
    first = bs_5050(a, b, c)
    second = loss_channel(c, env[0], 0.7)
    fused = compose_maps(first, second)
    state = state_from_creation_product(r, [a])
    sequential = apply(second, apply(first, state))
    assert amplitudes(apply(fused, state)) == pytest.approx(amplitudes(sequential))


def test_collision_with_occupied_unmapped_output():
    r, pairs, _ = make_registry()
    a, b = pairs["a1"][0], pairs["b1"][0]
    shift = LinearMap(r, {a.index: ((b.index, 1.0),)})
    occupied = state_from_creation_product(r, [a, b])
    with pytest.raises(ModeCollisionError):
        apply(shift, occupied)


def test_term_budget_enforced():
    r, pairs, _ = make_registry()
    a, b, c = pairs["a1"], pairs["b1"], pairs["c1"]
    stage = merge_maps([bs_5050(a[0], b[0], c[0]), bs_5050(a[1], b[1], c[1])])
    state = state_from_creation_product(r, [a[0], a[1]])
    with pytest.raises(TermBudgetError):
        apply(stage, state, term_cap=2)
    assert len(apply(stage, state, term_cap=4)) == 4


def test_is_isometry_rejects_scaled_column():
    r, pairs, _ = make_registry()
    bad = LinearMap(r, {pairs["a1"][0].index: ((pairs["b1"][0].index, 2.0),)})
    assert not is_isometry(bad)


def test_gram_matrix_of_elements_is_identity():
    r, pairs, env = make_registry()
    elements = [
        bs_5050(pairs["a1"][0], pairs["b1"][0], pairs["c1"][0]),
        loss_channel(pairs["c1"][1], env[1], 0.4),
        pbs_da(pairs["a1"], pairs["d1"], pairs["e1"]),
    ]
    dim = len(r)
    for element in elements:
        # column matrix restricted to the mapped inputs; unmapped modes are
        # identity passthrough and are checked by apply at runtime instead
        mapped = sorted(element.columns)
        matrix = np.zeros((dim, len(mapped)), dtype=complex)
        for k, idx in enumerate(mapped):
            for out, coeff in element.columns[idx]:
                matrix[out, k] = coeff
        gram = matrix.conj().T @ matrix
        eigen = np.linalg.eigvalsh(gram)
        assert np.all(eigen > -1e-12)
        assert np.allclose(gram, np.eye(len(mapped)), atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    amps=st.lists(
        st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=5,
    ),
    eta=st.floats(min_value=0.0, max_value=1.0),
)
def test_unitary_pipeline_preserves_norm(amps, eta):
    r, pairs, env = make_registry()
    a, b, c = pairs["a1"], pairs["b1"], pairs["c1"]
    basis = [
        [a[0]],
        [a[1]],
        [a[0], a[1]],
        [a[0], a[0]],
        [a[1], a[1], a[0]],
    ]
    state = superpose(
        [
            (amp, state_from_creation_product(r, modes))
            for amp, modes in zip(amps, basis[: len(amps)])
        ]
    )
    before = norm_squared(state)
    stage1 = merge_maps([bs_5050(a[0], b[0], c[0]), bs_5050(a[1], b[1], c[1])])
    stage2 = merge_maps(
        [loss_channel(c[0], env[0], eta), loss_channel(c[1], env[1], eta)]
    )
    out = apply(stage2, apply(stage1, state))
    assert norm_squared(out) == pytest.approx(before, abs=1e-10)
