"""Element conventions, isometry checks, and exact map application."""

import cmath
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_apply
from heraldnet.fock import (
    ModeCollisionError,
    ModeRegistry,
    PhotonicState,
    RegistryError,
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
    half_wave_plate,
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


def test_half_wave_plate_turns_diagonal_into_canonical():
    r, pairs, _ = make_registry()
    h, v = pairs["d1"]
    plate = half_wave_plate((h, v))
    assert is_isometry(plate)
    for mode in (h, v):
        # its own inverse: twice through it, a photon comes back where it was
        once = apply(plate, state_from_creation_product(r, [mode]))
        assert amplitudes(apply(plate, once)) == pytest.approx({((mode.index, 1),): 1.0})
    for sign, slot in ((1.0, h), (-1.0, v)):
        # a D photon lands in the H slot, an A photon in the V slot
        diagonal = superpose([(R, state_from_creation_product(r, [h])),
                              (sign * R, state_from_creation_product(r, [v]))])
        assert amplitudes(apply(plate, diagonal)) == pytest.approx({((slot.index, 1),): 1.0})


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


def test_composed_cancellation_leaves_no_entry():
    # the plate twice is the identity: its cross terms cancel to exact zeros,
    # which would widen the map's outputs if they were kept
    _, pairs, _ = make_registry()
    h, v = pairs["d1"]
    plate = half_wave_plate((h, v))
    twice = compose_maps(plate, plate)
    assert twice.columns.keys() == {h.index, v.index}
    for i, col in twice.columns.items():
        ((out, c),) = col
        assert out == i and c == pytest.approx(1.0, abs=1e-15)


def test_collision_with_occupied_unmapped_output():
    r, pairs, _ = make_registry()
    a, b = pairs["a1"][0], pairs["b1"][0]
    shift = LinearMap(r, {a.index: ((b.index, 1.0),)})
    occupied = state_from_creation_product(r, [a, b])
    with pytest.raises(ModeCollisionError):
        apply(shift, occupied)


# a column's norm is off by 2e-13 at 1 + 1e-13, far beyond its rounding bound of 5.6e-16
@pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-13])
def test_is_isometry_rejects_scaled_column(scale):
    r, pairs, _ = make_registry()
    bad = LinearMap(r, {pairs["a1"][0].index: ((pairs["b1"][0].index, scale),)})
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


# Coefficients that cancel exactly in pairs, as the splitters' do, and arbitrary ones.
COEFFICIENTS = st.one_of(
    st.sampled_from([0.5, -0.5, R, -R, 1.0, -1.0, 0.5j, -0.5j]),
    st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)),
)


@st.composite
def maps_and_states(draw):
    """A random map over up to 8 modes and a state of up to 4 terms of up to
    5 photons each, their unmapped photons off the map's outputs.  Columns
    may map modes no term occupies and send a mode to itself, as a loss
    element does.  In about half the states that can collide, one term gets
    a photon in an unmapped output."""
    registry = ModeRegistry()
    n = draw(st.integers(1, 8))
    for i in range(n):
        registry.register(f"m{i // 2}", "HV"[i % 2], "internal")
    column = st.lists(st.tuples(st.integers(0, n - 1), COEFFICIENTS),
                      min_size=1, max_size=4, unique_by=lambda entry: entry[0])
    columns = draw(st.dictionaries(st.integers(0, n - 1), column.map(tuple), max_size=n))
    outputs = {out for col in columns.values() for out, _ in col}
    occupiable = sorted(set(range(n)) - (outputs - set(columns)))
    term = st.lists(st.sampled_from(occupiable), max_size=5) if occupiable else st.just([])
    terms = draw(st.lists(st.tuples(term.map(lambda modes: pack(Counter(modes))), COEFFICIENTS),
                          min_size=1, max_size=4))
    clashing = sorted(outputs - set(columns))
    if clashing and draw(st.booleans()):
        i = draw(st.integers(0, len(terms) - 1))
        key, a = terms[i]
        terms[i] = key + pack({draw(st.sampled_from(clashing)): 1}), a
    return LinearMap(registry, columns), PhotonicState(registry, dict(terms))


def _two_photon_pbs_da():
    """One H and one V photon into pbs_da, whose cross terms cancel, beside
    a spectator and a mapped, unoccupied loss column."""
    r, pairs, env = make_registry()
    transform = merge_maps([pbs_da(pairs["a1"], pairs["d1"], pairs["e1"]),
                            loss_channel(pairs["c1"][0], env[0], 0.6)])
    a_h, a_v = pairs["a1"]
    state = superpose([(1.0, state_from_creation_product(r, [a_h, a_v, pairs["b1"][0]])),
                       (-R, state_from_creation_product(r, [a_h, a_h]))])
    return transform, state


def _four_photons_through_loss():
    """Four photons in a mode that is both input and output of a loss element."""
    r, pairs, env = make_registry()
    c = pairs["c1"][0]
    return loss_channel(c, env[0], 0.3), state_from_creation_product(r, [c] * 4)


def _outcome(apply_map, transform, state):
    """The output's keys in order with the bits of each amplitude, or the
    collision message."""
    try:
        out = apply_map(transform, state)
    except ModeCollisionError as error:
        return str(error)
    return [(key, a.real.hex(), a.imag.hex()) for key, a in out.amplitudes.items()]


@settings(deadline=None, max_examples=100)
@given(case=maps_and_states())
@example(case=_two_photon_pbs_da())
@example(case=_four_photons_through_loss())
def test_apply_matches_the_all_columns_reference(case):
    # a second apply reads the plan the first one cached
    transform, state = case
    expected = _outcome(reference_apply, transform, state)
    assert _outcome(apply, transform, state) == expected
    assert _outcome(apply, transform, state) == expected


@st.composite
def isometries_and_photons(draw):
    """A complex isometry from the first k of m <= 6 modes into all m, the Q
    of a Gaussian matrix's QR, and up to 4 input photons by input mode."""
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k)))
    return q, sorted(draw(st.lists(st.integers(0, k - 1), max_size=4)))


def _near_balanced_splitter(eps):
    """t^2 = 0.5 + eps: one photon in each input leaves one in each output
    with amplitude r^2 - t^2 = -2 eps."""
    t, r = math.sqrt(0.5 + eps), math.sqrt(0.5 - eps)
    return np.array([[t, r], [r, -t]], dtype=complex), [0, 1]


def permanent(matrix):
    return sum(math.prod(matrix[i, j] for i, j in enumerate(cols))
               for cols in itertools.permutations(range(len(matrix))))


@settings(deadline=None, max_examples=100)
@given(case=isometries_and_photons())
# losing the -2e-12 amplitude would miss it by twice the bound
@example(case=_near_balanced_splitter(1e-12))
def test_apply_matches_the_permanents(case):
    # the image of a monomial holds prod_j a_dag(j)^m_j with coefficient
    # perm(U[rows(m), cols(n)]) / prod_j m_j!, rows and columns repeated by occupation
    u, photons = case
    m, k = u.shape
    registry = ModeRegistry()
    modes = [registry.register(f"m{i}", "H", "internal") for i in range(m)]
    transform = LinearMap(registry, {j: tuple((i, complex(u[i, j])) for i in range(m))
                                     for j in range(k)})
    out = apply(transform, state_from_creation_product(registry, [modes[j] for j in photons]))
    expected = {}
    for rows in itertools.combinations_with_replacement(range(m), len(photons)):
        counts = Counter(rows)
        expected[pack(counts)] = (permanent(u[np.ix_(rows, photons)])
                                  / math.prod(map(math.factorial, counts.values())))
    assert out.amplitudes.keys() <= expected.keys()
    for key, want in expected.items():
        assert abs(out.amplitudes.get(key, 0j) - want) <= 1e-12
