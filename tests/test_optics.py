"""Element conventions, isometry checks, and exact map application."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldnet.fock import (
    MAX_OCCUPATION,
    ModeCollisionError,
    ModeRegistry,
    RegistryError,
    cancel_add,
    norm_squared,
    pack,
    state_from_creation_product,
    superpose,
)
from heraldnet.optics import (
    LinearMap,
    apply,
    bs_5050,
    compose_maps,
    is_isometry,
    loss_channel,
    merge_maps,
    pbs_da,
    pbs_hv,
    phase_plate,
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


def _station(*modes):
    return pack({m.index: MAX_OCCUPATION for m in modes})


def _split_to_stations(pairs):
    # a1_H and b1_V each split evenly between stations d1 and e1.
    a, b, d, e = pairs["a1"], pairs["b1"], pairs["d1"], pairs["e1"]
    stage = merge_maps([bs_5050(a[0], d[0], e[0]), bs_5050(b[1], d[1], e[1])])
    return stage, (_station(*d), _station(*e))


def test_stations_keep_exactly_the_heralded_part():
    # Only the two-photon term can fill both stations; c1 is unmapped.
    r, pairs, _ = make_registry()
    a, b, c = pairs["a1"], pairs["b1"], pairs["c1"]
    stage, stations = _split_to_stations(pairs)
    state = superpose(
        [
            (0.6, state_from_creation_product(r, [a[0], b[1], c[0]])),
            (0.64, state_from_creation_product(r, [a[0]])),
            (0.48j, state_from_creation_product(r, [c[1]])),
        ]
    )
    heralded = apply(stage, state, stations=stations)
    full = apply(stage, state)
    expected = {k: v for k, v in full.amplitudes.items() if all(k & m for m in stations)}
    assert heralded.amplitudes == expected
    assert (len(heralded), len(full)) == (2, 7)
    assert norm_squared(heralded) == pytest.approx(0.36 * 0.5)


def test_stations_drop_doubly_occupied_stations():
    r, pairs, _ = make_registry()
    a, b = pairs["a1"], pairs["b1"]
    stage, stations = _split_to_stations(pairs)
    state = state_from_creation_product(r, [a[0], b[1]])
    heralded = apply(stage, state, stations=stations)
    # d1_H d1_V and e1_H e1_V put two photons in one station.
    assert len(apply(stage, state)) == 4 and len(heralded) == 2
    for key in heralded.amplitudes:
        assert all(bin(key & m).count("1") == 1 for m in stations)
    assert norm_squared(heralded) == pytest.approx(0.5)
    # Two photons cannot fill three stations.
    three = stations + (_station(*pairs["c1"]),)
    assert apply(stage, state, stations=three).amplitudes == {}


def test_station_held_by_a_spectator_takes_no_entry():
    # c1_H is unmapped and already fills station (c1_H, d1_H), so b1_V may
    # only go to e1_V: its d1_H entry would put a second photon there.
    r, pairs, _ = make_registry()
    a, b, c, d, e = (pairs[k] for k in ("a1", "b1", "c1", "d1", "e1"))
    stage = LinearMap(r, {
        a[0].index: ((e[0].index, 1 + 0j),),
        b[1].index: ((d[0].index, R + 0j), (e[1].index, R + 0j)),
    })
    state = state_from_creation_product(r, [a[0], b[1], c[0]])
    stations = (_station(c[0], d[0]), _station(e[0]))
    heralded = apply(stage, state, stations=stations)
    assert heralded.amplitudes == {pack({c[0].index: 1, e[0].index: 1, e[1].index: 1}): R}
    assert len(apply(stage, state)) == 2


class _Counted(complex):
    """A coefficient that counts the partial monomials it multiplies."""

    uses = 0

    def __rmul__(self, other):
        _Counted.uses += 1
        return complex.__rmul__(self, other)


def test_exact_zero_partials_are_not_expanded():
    # One D/A splitter sends c1 to stations d1 (D) and e1 (A); f1_H then goes
    # to station b1 or to a1.  c1_H c1_V -> (D^2 - A^2)/2, so every partial
    # with one photon in each of d1 and e1 is an exact zero, and none of them
    # is carried through f1_H.  c1_H^2 -> (D + A)^2/2 keeps its cross terms.
    r, pairs, env = make_registry()
    a, b, c, d, e = (pairs[k] for k in ("a1", "b1", "c1", "d1", "e1"))
    da = pbs_da(c, d, e)
    stage = LinearMap(r, {
        **{i: tuple((out, _Counted(k)) for out, k in col) for i, col in da.columns.items()},
        env[0].index: ((b[0].index, _Counted(R)), (a[0].index, _Counted(R))),
    })
    state = superpose([
        (0.6, state_from_creation_product(r, [c[0], c[1], env[0]])),
        (0.8, state_from_creation_product(r, [c[0], c[0], env[0]])),
    ])
    stations = (_station(*d), _station(*e), _station(*b))
    _Counted.uses = 0
    kept = apply(stage, state, stations=stations)
    # c1_H c1_V: 4, then 2 open-station entries for each of 4 partials;
    # c1_H^2: the same, then 2 entries of f1_H for each of 4 partials.
    assert _Counted.uses == (4 + 4 * 2) + (4 + 4 * 2 + 4 * 2)
    full = apply(stage, state)
    expected = [(k, v) for k, v in full.amplitudes.items()
                if all(bin(k & m).count("1") == 1 for m in stations)]
    assert list(kept.amplitudes.items()) == expected
    assert len(kept) == 4


def test_shared_mapped_part_is_expanded_once():
    # a1_H a1_V is expanded once for both inputs, which differ only in their
    # unmapped spectator (b1_H or e1_V): 2 + 2 * 2 column products, not twice that.
    r, pairs, _ = make_registry()
    a, b, c, d, e = (pairs[k] for k in ("a1", "b1", "c1", "d1", "e1"))
    stage = LinearMap(r, {
        a[0].index: ((c[0].index, _Counted(R)), (d[0].index, _Counted(R))),
        a[1].index: ((c[1].index, _Counted(R)), (d[1].index, _Counted(-R))),
    })
    inputs = [
        (0.6, state_from_creation_product(r, [a[0], a[1], b[0]])),
        (0.8j, state_from_creation_product(r, [a[0], a[1], e[1]])),
    ]
    _Counted.uses = 0
    out = apply(stage, superpose(inputs))
    assert _Counted.uses == 2 + 2 * 2
    merged = {}
    for coeff, state in inputs:
        for key, amp in apply(stage, superpose([(coeff, state)])).amplitudes.items():
            merged[key] = cancel_add(merged[key], amp) if key in merged else amp
    assert list(out.amplitudes.items()) == list(merged.items())
    assert len(out) == 8


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
