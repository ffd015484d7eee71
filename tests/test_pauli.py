"""Operator algebra unit tests, with dense 2x2/2^n matrices as the oracle."""
import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heisensim as hs
from heisensim import pauli
from heisensim.oracle import expand
from heisensim.pauli import (
    DEFAULT_TOLERANCE,
    DROP_TOLERANCE,
    DimensionMismatch,
    HermiticityError,
    PauliSum,
    pair_expectation,
    vacuum_expectation,
)

from conftest import LETTER_MATRICES, allclose, canonical_terms, random_circuit, term

C = -1.0 / 3.0
S = math.sqrt(8.0) / 3.0


def string(coeff, letters, n=1):
    """The one-term operator ``coeff`` times ``{qubit: letter}`` on ``n`` qubits."""
    return PauliSum(n, [term(coeff, letters)])


# -- letters: products of one-qubit, one-term operators ----------------------


def test_letter_mul_reproduces_matrix_products():
    for a in "IXYZ":
        for b in "IXYZ":
            (phase, letters), = canonical_terms(string(1, {0: a}) @ string(1, {0: b}))
            c = letters.get(0, "I")
            assert np.allclose(phase * LETTER_MATRICES[c], LETTER_MATRICES[a] @ LETTER_MATRICES[b])


def test_letter_mul_examples():
    assert canonical_terms(string(1, {0: "X"}) @ string(1, {0: "Y"})) == [(1j, {0: "Z"})]
    assert canonical_terms(string(1, {0: "X"}) @ string(1, {0: "X"})) == [(1, {})]
    assert canonical_terms(string(1, {0: "I"}) @ string(1, {0: "Z"})) == [(1, {0: "Z"})]


def test_letter_mul_rejects_garbage():
    for letter in ("Q", "I", "x"):
        with pytest.raises(ValueError, match="not a Pauli letter"):
            PauliSum.single(2, 0, letter)


@pytest.mark.parametrize("qubit", [-1, 2, 5])
def test_single_rejects_qubit_outside_register(qubit):
    with pytest.raises(DimensionMismatch, match=f"qubit {qubit} does not fit in 2 qubits"):
        PauliSum.single(2, qubit, "X")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PauliSum(True, [((1, 0), 1.0)]), "expected an integer, got True"),
        (lambda: PauliSum(2.5), "expected an integer, got 2.5"),
        (lambda: PauliSum("2"), "expected an integer, got '2'"),
        (lambda: PauliSum.single(2, True, "X"), "expected an integer, got True"),
        (lambda: PauliSum.single(2, 1.0, "X"), "expected an integer, got 1.0"),
        (lambda: PauliSum.single(True, 0, "X"), "expected an integer, got True"),
        (lambda: PauliSum.identity(np.True_), f"expected an integer, got {np.True_!r}"),
    ],
    ids=["bool-n", "float-n", "str-n", "bool-qubit", "float-qubit", "bool-n-single", "numpy-bool-n"],
)
def test_rejects_non_integer_register_or_qubit(build, message):
    # a bool would pass as 0 or 1 qubits, or as qubit 1
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_integer_register_and_qubit_stored_as_int():
    op = PauliSum.single(np.int64(3), np.int32(2), "Y")
    assert op == PauliSum.single(3, 2, "Y") and type(op.n_qubits) is int
    assert op._terms == {4 << 3 | 4: 1} and {type(key) for key in op._terms} == {int}
    # one key holds both masks: numpy masks shifted 40 bits would wrap in an int64
    wide = PauliSum(40, [((np.int64(1 << 39), np.int64(1)), 1)])
    assert {type(key) for key in wide._terms} == {int} and wide._terms == {1 << 39 << 40 | 1: 1}
    assert wide.to_json() == [{"coeff": [1.0, 0.0], "letters": {"0": "Z", "39": "X"}}]


@pytest.mark.parametrize("coeff", [1.0, 3, -1j, -0.0, complex(-0.0, -0.0), complex(2, -0.0), 5e-13])
def test_single_equals_its_one_constructor_term_bit_for_bit(coeff):
    # signed zeros come out as fsum leaves them, and a coefficient in the drop band leaves no term
    for n, q in ((1, 0), (40, 39)):
        for letter, masks in (("X", (1 << q, 0)), ("Y", (1 << q, 1 << q)), ("Z", (0, 1 << q))):
            assert _bits(PauliSum.single(n, q, letter, coeff)) == _bits(PauliSum(n, [(masks, coeff)]))


def test_rejects_register_of_no_qubits():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_qubits must be positive"):
            PauliSum(n)


# -- strings: products of one-term operators ---------------------------------


def test_string_mul_self_inverse():
    s = string(1.0, {0: "X"})
    assert s @ s == PauliSum.identity(1)


def test_string_mul_accumulates_phase():
    left = string(1.0, {0: "X", 1: "Z"}, n=2)
    right = string(1.0, {0: "Y"}, n=2)
    assert left @ right == string(1j, {0: "Z", 1: "Z"}, n=2)


def test_string_mul_scalar_identity():
    assert PauliSum.identity(6, 2.0) @ string(3.0, {5: "Z"}, n=6) == string(6.0, {5: "Z"}, n=6)


def test_string_normalisation_elides_identity_letters():
    s = string(1.0, {0: "I", 3: "X"}, n=4)
    assert canonical_terms(s) == [(1, {3: "X"})]
    assert s.support == frozenset({3})


@st.composite
def strings(draw, n_qubits=3):
    support = draw(st.lists(st.integers(0, n_qubits - 1), unique=True, max_size=n_qubits))
    letters = {q: draw(st.sampled_from("XYZ")) for q in support}
    coeff = complex(
        draw(st.floats(-2, 2, allow_nan=False)), draw(st.floats(-2, 2, allow_nan=False))
    )
    return string(coeff, letters, n=n_qubits)


@given(strings(), strings())
def test_string_mul_matches_dense_product(s1, s2):
    assert len(s1 @ s2) <= 1
    assert np.allclose(expand(s1 @ s2), expand(s1) @ expand(s2), atol=1e-12)


@pytest.mark.parametrize("q", [63, 64, 130])
def test_product_rule_on_multiword_masks(q):
    n = q + 2
    x, y, z = (PauliSum.single(n, q, letter) for letter in "XYZ")
    assert x @ y == PauliSum.single(n, q, "Z", 1j)
    assert y @ x == PauliSum.single(n, q, "Z", -1j)
    assert y @ y == PauliSum.identity(n)
    far = string(0.5, {0: "Y", q + 1: "X"}, n)
    assert x @ far == far @ x == string(0.5, {0: "Y", q: "X", q + 1: "X"}, n)
    left = string(1.0, {3: "X", q: "X"}, n)
    right = string(2.0, {3: "Z", q: "Y"}, n)
    assert left @ right == string(2.0, {3: "Y", q: "Z"}, n)


@st.composite
def sum_pairs_with_y(draw):
    n = draw(st.integers(1, 5))

    # as in sum_triples: a product coefficient inside the drop band is
    # truncated by construction, so keep the factors well above it
    def part():
        v = draw(st.floats(-2, 2, allow_nan=False))
        return 0.0 if abs(v) < 1e-5 else v

    def one():
        out = []
        for _ in range(draw(st.integers(1, 4))):
            letters = {q: draw(st.sampled_from("IXYZ")) for q in range(n)}
            letters[draw(st.integers(0, n - 1))] = "Y"
            out.append(term(complex(part(), part()), letters))
        return PauliSum(n, out)

    return one(), one()


@given(sum_pairs_with_y())
@settings(max_examples=80)
def test_sum_product_matches_dense_product(pair):
    a, b = pair
    assert np.allclose(expand(a @ b), expand(a) @ expand(b), rtol=0, atol=1e-12)


# -- the vector product: the loop's result, bit for bit ------------------------


def _loop_terms(a, b):
    """``(key, re.hex(), im.hex())`` per term of ``a @ b``, in dict order, computed by the loop alone."""
    with mock.patch.object(pauli, "_CROSSOVER", math.inf):
        return _bits(a @ b)


def _from_masks(n, terms):
    """The operator of distinct ``((x, z), coeff)`` terms, each coefficient's bits kept (the
    constructor's ``fsum`` turns -0.0 into 0.0), those below the drop tolerance left out."""
    keyed = PauliSum(n, [(masks, 1) for masks, _ in terms])._terms
    return PauliSum._from_dict(n, {key: c for key, (_, c) in zip(keyed, terms) if abs(c) >= DROP_TOLERANCE})


@st.composite
def product_operands(draw):
    """Operands on up to 32 qubits whose keys span a few XOR generators, so products merge and cancel."""
    n = draw(st.sampled_from((1, 4, 31, 32)))
    masks = st.integers(0, 2**n - 1) | st.sampled_from((1 << n - 1, 1 << min(n, 31) - 1))
    pool = {(0, 0)}
    for gx, gz in draw(st.lists(st.tuples(masks, masks), min_size=2, max_size=3)):
        pool |= {(x ^ gx, z ^ gz) for x, z in pool}
    pool = sorted(pool)
    # signed zeros, exact cancellations, sums inside the drop band and
    # subnormal products; values of about one binade round in every sum, so
    # the order of the sums shows.  No overflow: its nan differs by interpreter
    plain = st.floats(0.25, 4) | st.floats(-4, -0.25)
    real = plain | st.sampled_from((1.0, -1.0, 1e-13, 1e-160, 1e150))
    imag = plain | st.sampled_from((0.0, -0.0, 1.0, -1.0))

    def one():
        keys = draw(st.lists(st.sampled_from(pool), min_size=min(2, len(pool)), max_size=len(pool), unique=True))
        return _from_masks(n, [(key, complex(draw(real), draw(imag))) for key in keys])

    return one(), one()


def _kernel_product(a, b, rows=None):
    """``a @ b`` with the kernel taking every product, ``rows`` left terms per chunk if given."""
    chunk = rows * len(b) if rows else pauli._CHUNK
    with mock.patch.object(pauli, "_CROSSOVER", 0), mock.patch.object(pauli, "_CHUNK", chunk):
        return a @ b


def _bits(op):
    return [(key, c.real.hex(), c.imag.hex()) for key, c in op._terms.items()]


@given(product_operands(), st.integers(1, 3) | st.none())
@settings(max_examples=300)
def test_vector_product_equals_loop_bit_for_bit(pair, rows):
    # 32 qubits do not fit x << n | z in an int64 and stay in the loop
    a, b = pair
    with mock.patch.object(pauli, "_vector_product", wraps=pauli._vector_product) as kernel:
        product = _kernel_product(a, b, rows)
    assert kernel.called == (a.n_qubits <= 31)
    assert _bits(product) == _loop_terms(a, b)


@pytest.mark.parametrize("crossover", [math.inf, 0], ids=["loop", "kernel"])
def test_product_overflow_raises_like_abs(crossover):
    # both parts of the coefficient are finite but its modulus is not: Python's abs raises,
    # and the kernel's drop test must too, not keep an infinite coefficient
    a, b = PauliSum(1, [((0, 0), 1.5e308)]), PauliSum(1, [((0, 0), 1 + 1j)])
    with mock.patch.object(pauli, "_vector_product", wraps=pauli._vector_product) as kernel:
        with mock.patch.object(pauli, "_CROSSOVER", crossover):
            with pytest.raises(OverflowError, match="^absolute value too large$"):
                a @ b
    assert kernel.called == (crossover == 0)


@pytest.mark.parametrize("rows", [1, 5, None])
def test_vector_product_equals_loop_on_descriptors(rows):
    # engine operands of up to a few hundred terms, whose products merge hard
    final = hs.run_circuit(random_circuit(random.Random(5), 8, 40))[-1]
    components = [final.descriptor(q).component(c) for q in range(8) for c in "xyz"]
    big = sorted(components, key=len)[-6:]
    for a in big:
        for b in big:
            assert _bits(_kernel_product(a, b, rows)) == _loop_terms(a, b)


# -- sums --------------------------------------------------------------------


def rotated_z(n=1, qubit=0):
    return PauliSum(n, [term(C, {qubit: "Z"}), term(-S, {qubit: "X"})])


def test_sum_mul_rotated_component_squares_to_identity():
    a = PauliSum(1, [term(C, {0: "X"}), term(S, {0: "Z"})])
    assert allclose(a @ a, PauliSum.identity(1), 1e-12)


def test_sum_mul_identity_neutral():
    a = rotated_z()
    assert allclose(a @ PauliSum.identity(1), a, 1e-15)


def test_sum_mul_disjoint_supports():
    zi = PauliSum.single(2, 0, "Z")
    iz = PauliSum.single(2, 1, "Z")
    assert zi @ iz == string(1.0, {0: "Z", 1: "Z"}, n=2)


def test_sum_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        PauliSum.identity(2) @ PauliSum.identity(3)


@pytest.mark.parametrize("other", [3, 2.5, "Z", None, np.float64(3)], ids=["int", "float", "str", "none", "numpy"])
def test_algebra_refuses_foreign_operands(other):
    # Python's own TypeError, from either side, instead of an AttributeError from the dimension check
    z = PauliSum.single(1, 0, "Z")
    for build in (lambda: z + other, lambda: other + z, lambda: z @ other, lambda: other @ z):
        with pytest.raises(TypeError):
            build()
    for build in (lambda: z - other, lambda: other - z):  # the message names the operator written
        with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for -: "):
            build()
    assert (z == other) is False and (z != other) is True


def test_operator_product_needs_at():
    z = PauliSum.single(1, 0, "Z")
    with pytest.raises(TypeError, match="use @ for operator products, \\* for scalars"):
        z * z


@st.composite
def sum_triples(draw, n_qubits=4, real=False):
    # nonzero coefficients stay well above the drop tolerance: a coefficient
    # inside the drop band is truncated by construction, which legitimately
    # breaks exact identities at the 1e-12 scale
    def coeff_part():
        v = draw(st.floats(-2, 2, allow_nan=False))
        return 0.0 if abs(v) < 1e-5 else v

    def one():
        k = draw(st.integers(0, 3))
        out = []
        for _ in range(k):
            support = draw(
                st.lists(st.integers(0, n_qubits - 1), unique=True, max_size=n_qubits)
            )
            letters = {q: draw(st.sampled_from("XYZ")) for q in support}
            re = coeff_part()
            im = 0.0 if real else coeff_part()
            out.append(term(complex(re, im), letters))
        return PauliSum(n_qubits, out)

    return one(), one(), one()


@given(sum_triples())
@settings(max_examples=60)
def test_sum_mul_associative_and_distributive(triple):
    a, b, c = triple
    assert allclose((a @ b) @ c, a @ (b @ c), 1e-12)
    assert allclose(a @ (b + c), a @ b + a @ c, 1e-12)


def test_linear_combine_projector():
    p_plus = 0.5 * PauliSum.identity(1) + 0.5 * PauliSum.single(1, 0, "Z")
    assert vacuum_expectation(p_plus) == pytest.approx(1.0)


def test_linear_combine_cancellation():
    a = rotated_z()
    assert len(1.0 * a + -1.0 * a) == 0


def test_linear_combine_keeps_unlike_terms():
    zi = PauliSum.single(2, 0, "Z")
    xz = string(1.0, {0: "X", 1: "Z"}, n=2)
    out = (1 / 3) * zi + (2 / 3) * xz
    assert len(out) == 2
    assert canonical_terms(out)[1] == (pytest.approx(1 / 3), {0: "Z"})


def test_linear_combine_rejects_mismatched():
    with pytest.raises(DimensionMismatch):
        1.0 * PauliSum.identity(1) + 1.0 * PauliSum.identity(2)


# -- canonical form ----------------------------------------------------------


def test_canonicalize_merges_like_terms():
    a = PauliSum(1, [term(1.0, {0: "X"}), term(1.0, {0: "X"})])
    assert a == string(2.0, {0: "X"})


def test_canonicalize_drops_negligible_terms():
    a = string(1e-15, {0: "Z"})
    assert len(a) == 0
    assert a == PauliSum(1)


@given(sum_triples(), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_canonical_form_is_permutation_invariant(triple, rng):
    a, b, _ = triple
    terms = [term(c, letters) for c, letters in canonical_terms(a + b) + canonical_terms(a)]
    shuffled = terms[:]
    rng.shuffle(shuffled)
    assert PauliSum(4, terms) == PauliSum(4, shuffled)


def test_term_order_is_deterministic():
    # qubits 64 and up sit beyond one machine word of the masks
    a = PauliSum(
        70,
        [
            term(1.0, {65: "X"}),
            term(1.0, {1: "Z"}),
            term(1.0, {64: "Z"}),
            term(1.0, {1: "Z", 64: "Y"}),
            term(1.0, {0: "X", 1: "Z"}),
            term(1.0, {64: "Y"}),
            term(0.5, {}),
        ],
    )
    keys = [tuple(letters.items()) for _, letters in canonical_terms(a)]
    assert keys == [
        (),
        ((0, "X"), (1, "Z")),
        ((1, "Z"),),
        ((1, "Z"), (64, "Y")),
        ((64, "Y"),),
        ((64, "Z"),),
        ((65, "X"),),
    ]


def test_equal_operators_hash_alike():
    a = PauliSum(2, [term(0.5, {0: "X"}), term(1.0, {1: "Z"})])
    b = PauliSum(2, [term(1.0, {1: "Z"}), term(0.25, {0: "X"}), term(0.25, {0: "X"})])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, PauliSum(3, [term(1.0, {1: "Z"}), term(0.5, {0: "X"})])}) == 2


def test_repr_shows_at_most_six_terms_in_canonical_order():
    assert repr(PauliSum(2)) == "<PauliSum n=2: 0>"
    assert repr(PauliSum(2, [term(-0.25, {1: "Z"}), term(1j, {0: "Y"})])) == "<PauliSum n=2: (0+1j)*Y0 + (-0.25+0j)*Z1>"
    seven = PauliSum(3, [term(k + 1, {k // 3: "XYZ"[k % 3]}) for k in range(6)] + [term(0.5, {})])
    assert repr(seven) == (
        "<PauliSum n=3: (0.5+0j)*I + (1+0j)*X0 + (2+0j)*Y0 + (3+0j)*Z0 + (4+0j)*X1 + (5+0j)*Y1 + ...>"
    )


def test_to_json_canonical_order():
    a = PauliSum(
        101,
        [
            term(3.0, {100: "Y", 2: "X"}),
            term(1.0, {1: "Z"}),
            term(2.0, {0: "X"}),
        ],
    )
    assert a.to_json() == [
        {"coeff": [2.0, 0.0], "letters": {"0": "X"}},
        {"coeff": [1.0, 0.0], "letters": {"1": "Z"}},
        {"coeff": [3.0, 0.0], "letters": {"2": "X", "100": "Y"}},
    ]


def test_rejects_string_beyond_register():
    with pytest.raises(DimensionMismatch):
        PauliSum(2, [term(1.0, {2: "X"})])
    with pytest.raises(DimensionMismatch):
        PauliSum(2, [((0, 1 << 70), 1.0)])


def test_rejects_negative_mask():
    for key in ((-1, 0), (0, -4), (-2, -2)):
        with pytest.raises(ValueError, match="negative mask"):
            PauliSum(3, [(key, 1.0)])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0, math.nan), complex(1, -math.inf)])
def test_rejects_non_finite_coefficient_or_scalar(value):
    # NaN fails the drop test: unchecked, it would vanish into the zero operator
    x0 = PauliSum.single(2, 0, "X")
    builds = [
        lambda: PauliSum(2, [((1, 0), value)]),
        lambda: PauliSum(2, [((1, 0), 1.0), ((1, 0), value)]),
        lambda: PauliSum.single(2, 0, "X", coeff=value),
        lambda: PauliSum.identity(2, value),
        lambda: x0 * value,
        lambda: value * x0,
        lambda: x0 / value,
    ]
    for build in builds:
        with pytest.raises(ValueError, match="not finite"):
            build()


# -- vacuum expectation ------------------------------------------------------


def test_vacuum_expectation_all_z():
    zz = string(1.0, {0: "Z", 1: "Z"}, n=2)
    assert vacuum_expectation(zz) == pytest.approx(1.0)


def test_vacuum_expectation_transverse_vanishes():
    assert vacuum_expectation(PauliSum.single(3, 1, "X")) == 0.0


def test_vacuum_expectation_rotated_component():
    assert vacuum_expectation(rotated_z()) == pytest.approx(C, abs=1e-12)


def test_vacuum_expectation_hermiticity_guard():
    skew = string(1j, {0: "Z"})
    with pytest.raises(HermiticityError):
        vacuum_expectation(skew)


def test_hermiticity_guard_admits_a_residue_up_to_tol():
    # "within tol" is <= tol, as in every verdict and check comparison: a tolerance of
    # 0 admits exactly real operators, and a residue equal to the tolerance passes
    z = PauliSum.single(2, 1, "Z")
    assert vacuum_expectation(z, 0) == 1.0
    assert pair_expectation(z, z, 0) == 1.0
    tilted = string(complex(1, 1e-10), {0: "Z"})
    assert vacuum_expectation(tilted, 1e-10) == 1.0
    assert pair_expectation(tilted, PauliSum.identity(1), 1e-10) == 1.0
    with pytest.raises(HermiticityError, match="imaginary residue 1e-10"):
        vacuum_expectation(tilted, 0.5e-10)
    with pytest.raises(HermiticityError, match="imaginary residue 1e-10"):
        vacuum_expectation(tilted, 0)
    # no term contributes: the sum is 0.0, and only a negative tolerance refuses its residue of 0
    x = PauliSum.single(2, 0, "X")
    assert vacuum_expectation(x, 0) == 0.0 and pair_expectation(x, z, 0) == 0.0
    for empty in (lambda: vacuum_expectation(x, -1), lambda: pair_expectation(x, z, -1)):
        with pytest.raises(HermiticityError, match="^imaginary residue 0 in expectation value$"):
            empty()


@given(
    sum_triples(real=True),
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
)
@settings(max_examples=60)
def test_vacuum_expectation_linear(triple, alpha, beta):
    a, b, _ = triple
    lhs = vacuum_expectation(alpha * a + beta * b)
    rhs = alpha * vacuum_expectation(a) + beta * vacuum_expectation(b)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@given(sum_triples(real=True))
@settings(max_examples=60)
def test_vacuum_expectation_matches_dense(triple):
    a, _, _ = triple
    dense = expand(a)
    assert vacuum_expectation(a) == pytest.approx(dense[0, 0].real, abs=1e-9)


def _outcome(expectation, *args):
    """The value as exact float hex, or the error when the guard trips."""
    try:
        return expectation(*args).hex()
    except HermiticityError:
        return HermiticityError


def _product_route(a, b, tol):
    return vacuum_expectation(a @ b, tol)


@st.composite
def expectation_pairs(draw):
    """Y-heavy pairs, sometimes with real coefficients, some masks past bit 64."""
    pair = draw(sum_pairs_with_y())
    real = draw(st.booleans())
    shift = draw(st.sampled_from((0, 62, 130)))
    return tuple(
        PauliSum(
            op.n_qubits + shift,
            [
                term(c.real if real else c, {q + shift: letter for q, letter in letters.items()})
                for c, letters in canonical_terms(op)
            ],
        )
        for op in pair
    )


@given(expectation_pairs(), st.sampled_from((DEFAULT_TOLERANCE, 1e-3, 10.0)))
@settings(max_examples=150)
def test_pair_expectation_matches_product_route(pair, tol):
    a, b = pair
    assert _outcome(pair_expectation, a, b, tol) == _outcome(_product_route, a, b, tol)


def test_pair_expectation_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pair_expectation(PauliSum.single(2, 0, "Z"), PauliSum.single(3, 0, "Z"))


@pytest.mark.parametrize("seed", [0, 5, 6])
def test_pair_expectation_matches_product_route_on_descriptors(seed):
    final = hs.run_circuit(random_circuit(random.Random(seed), 8, 40))[-1]
    components = [final.descriptor(q).component(c) for q in range(8) for c in "xyz"]
    for a in components:
        for b in components:
            assert _outcome(pair_expectation, a, b, DEFAULT_TOLERANCE) == _outcome(_product_route, a, b, DEFAULT_TOLERANCE)


def test_drop_tolerance_below_comparison_tolerance():
    assert DROP_TOLERANCE < 1e-9
