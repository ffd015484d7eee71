"""Sparse algebra of Pauli operators on an n-qubit register.

Operators are linear combinations of Pauli strings, a complex coefficient
times one letter of {I, X, Y, Z} per qubit, stored as a dict from each
string's key, the integer ``x << n | z`` on n qubits, to its coefficient:
bit q of mask x is set for X or Y on qubit q, bit q of z for Z or Y, so the
string is i^{#Y} X^x Z^z with #Y = popcount(x & z) (Aaronson & Gottesman,
quant-ph/0406196).  Python integers have no width, so any n works alike.
A string with even #Y is a real symmetric matrix, one with odd #Y i times a
real antisymmetric one.  Every gate is real, so each descriptor component
U^T sigma U keeps its class exactly: x and z even, y odd, every coefficient
real and every y mean 0.0.  A complex gate (S, T or rz) would break this grading.
:func:`_graded_profile` reads a descriptor's three vacuum means, its supports
and whether it keeps the grading in one pass over its terms.

:func:`_loop_product` is the product rule: a product's key is the XOR of
its factors' keys.  A product of at least :data:`_CROSSOVER` term pairs on
at most 31 qubits, where a key fits in an int64, runs instead on the same
keys in the numpy kernel :func:`_vector_product`, imported only then.  The
kernel's contract is bit identity with the loop: the same terms in the same
dict order, with the same bits in every coefficient, signed zeros included.
It takes the pairs in the loop's order, forms each complex product as
CPython does, one ufunc per step, and sums each key in pair order.  Where
no two pairs can give one key, both routes skip the merge, by the one rule
of :func:`_merge_free`: products with a one-term operand, and products whose
operands act on disjoint qubits, as every update does outside the places
where descriptors meet.  Each term is then its key's one sum, written as
the merge writes it, so its bits are the merge's.
:func:`pair_expectation` specialises the loop to the term pairs with equal
x masks, the only pairs whose product has an expectation in the all-zeros
state.  :func:`_rotated_pair` gives the ``ry`` rule both rotated components,
``x * c + z * s`` and ``z * c - x * s``, in one pass over x and one over z,
bit for bit as those expressions give them.

An operator is built from ``((x, z), coeff)`` terms, or from
:meth:`PauliSum.single` and :meth:`PauliSum.identity` and the algebra:
``+``, ``-``, unary ``-``, scalar ``*`` and ``/``, and ``@`` for the
operator product.  Construction merges like keys with order-insensitive
``fsum`` and every result drops coefficients below
:data:`DROP_TOLERANCE`, so sums are always in canonical form.  Masks
``(x, z)`` are constructor input; terms are read back in dict order, as
masks (:func:`_term_masks`, for the dense oracle and the back-propagation
check) or as letters (:func:`_lettered`), so the key format stays known to
this module alone.  ``repr`` and ``to_json`` sort the
letters by (qubit index, letter), which ranks X < Y < Z, each time, so
equal operators serialise identically.

All values are immutable after construction and all operations are pure
functions, so they are safe to evaluate concurrently.
"""
from __future__ import annotations

import operator
from cmath import isfinite
from functools import reduce
from math import fsum
from typing import Iterable

__all__ = [
    "DROP_TOLERANCE",
    "DEFAULT_TOLERANCE",
    "DimensionMismatch",
    "HermiticityError",
    "PauliSum",
    "vacuum_expectation",
    "pair_expectation",
]

#: Coefficients with magnitude below this are treated as exact zeros.
DROP_TOLERANCE = 1e-12

#: Tolerance for every user-visible comparison (verdicts, cross-checks),
#: set two orders above the drop tolerance so that dropped terms should
#: not flip a comparison; no error bound checks this.
DEFAULT_TOLERANCE = 1e-9

# (x bit, z bit) of each non-identity letter, and the letter of each x + 2z.
_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTER_OF = ("I", "X", "Z", "Y")

# i^k for k mod 4; the phases are exact, so products stay bit-reproducible.
# All complex: since Python 3.14 complex * int follows C99 Annex G and can
# differ from complex * complex in the sign of a zero.
_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)

#: Products with at least this many term pairs, on at most 31 qubits, go to
#: :func:`_vector_product`; smaller ones cost less in :func:`_loop_product`.
_CROSSOVER = 500

# Term pairs per chunk of the vector product, to bound its memory.
_CHUNK = 1 << 16

Key = tuple[int, int]


class DimensionMismatch(ValueError):
    """Operands are defined on different qubit counts."""


class HermiticityError(ValueError):
    """An expectation value came out with a non-negligible imaginary part."""


def _integer(value) -> int:
    """``value`` as an int: numpy integers pass, bools and other types do not."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _merge_free(left: dict[int, complex], right: dict[int, complex], n: int) -> str | None:
    """Why no two term pairs of ``left @ right`` share a key, the rule of both routes: ``"one"``, an operand
    has one term (XOR with one key is a bijection); ``"disjoint"``, no qubit carries a letter of both operands,
    x and z masks both (k1 ^ k2 = k1 | k2); ``None``, keys may meet and the product takes the merge."""
    if len(left) == 1 or len(right) == 1:
        return "one"
    a, b = reduce(operator.or_, left, 0), reduce(operator.or_, right, 0)
    return None if (a >> n | a) & (b >> n | b) & ((1 << n) - 1) else "disjoint"


def _loop_product(left: dict[int, complex], right: dict[int, complex], n: int) -> dict[int, complex]:
    """The canonical terms of ``left @ right`` on ``n`` qubits, one term pair at a time.

    Strings k1 and k2 multiply to i^{#Y1 + #Y2 - #Y3 + 2 popcount(z1 & x2)} (k1 ^ k2):
    moving Z^z1 past X^x2 costs a sign per shared qubit.  As x2 < 2^n, z1 & x2
    is k1 & x2.  The x mask and #Y of each right term are read once.

    The two kinds of product that :func:`_merge_free` finds have no keys to merge, so
    they skip the merge: one with a one-term operand, and one whose operands both have
    several terms on disjoint supports (there z1 & x2 = 0 and #Y adds, so the phase
    is i^0 and no popcount is needed).  Each of their terms is the merge's first and
    only sum, ``0j + c1 * c2 * phase``, drop-tested in pair order, so its bits and dict
    position are the merge's.  The factor i^0 stays: the product with it differs from
    its absence when a part is infinite (inf * 0 is nan).
    """
    if (free := _merge_free(left, right, n)) == "disjoint":
        one = _I_POWERS[0]
        return {
            k1 | k2: c
            for k1, c1 in left.items()
            for k2, c2 in right.items()
            if abs(c := 0j + c1 * c2 * one) >= DROP_TOLERANCE
        }
    terms, pairs = {}, []
    for k2, c2 in right.items():  # not a comprehension: on CPython 3.11 its call costs more for a few terms
        pairs.append((k2, k2 >> n, (k2 >> n & k2).bit_count(), c2))
    if free:  # a one-term operand
        for k1, c1 in left.items():
            y1 = (k1 >> n & k1).bit_count()
            for k2, x2, y2, c2 in pairs:
                key = k1 ^ k2
                k = y1 + y2 - (key >> n & key).bit_count() + 2 * (k1 & x2).bit_count()
                if abs(c := 0j + c1 * c2 * _I_POWERS[k & 3]) >= DROP_TOLERANCE:
                    terms[key] = c
        return terms
    for k1, c1 in left.items():
        y1 = (k1 >> n & k1).bit_count()
        for k2, x2, y2, c2 in pairs:
            key = k1 ^ k2
            k = y1 + y2 - (key >> n & key).bit_count() + 2 * (k1 & x2).bit_count()
            terms[key] = terms.get(key, 0j) + c1 * c2 * _I_POWERS[k & 3]
    return {k: c for k, c in terms.items() if abs(c) >= DROP_TOLERANCE}


def _vector_product(left: dict[int, complex], right: dict[int, complex], n: int) -> dict[int, complex]:
    """The canonical terms of ``left @ right`` on ``n <= 31`` qubits, as numpy array operations.

    The result equals :func:`_loop_product`'s bit for bit, dict order
    included.  Each key is one int64.  Pairs are taken in the loop's
    order, left terms outer, a chunk of left rows at a time.  Every complex
    product is written component-wise as CPython computes it, one ufunc per
    step, so nothing can fuse into an FMA.  Each key is summed in pair order
    from 0.0, by a ``bincount`` whose weights start with the running totals
    (never ``-0.0``, so adding them to 0.0 is exact).  Keys are numbered in
    order of first occurrence.  The drop test is ``hypot``, as in ``abs``,
    and as ``abs`` it raises :class:`OverflowError` if a finite sum overflows.
    A product that :func:`_merge_free` finds merge-free has no key twice, so
    it skips the numbering: each total is its one term plus 0.0, as
    ``bincount`` gives it, in pair order.
    """
    import numpy as np

    if not (left and right):
        return {}

    def arrays(terms):
        keys = np.fromiter(terms, dtype=np.int64, count=len(terms))
        coeffs = np.fromiter(terms.values(), dtype=complex, count=len(terms))
        # bitwise_count gives uint8; as int64 the #Y counts make the phase sum k an int64 that never wraps
        return keys, coeffs.real, coeffs.imag, np.bitwise_count(keys >> n & keys).astype(np.int64)

    k1, re1, im1, y1 = arrays(left)
    k2, re2, im2, y2 = arrays(right)
    x2 = k2 >> n
    phases = np.array(_I_POWERS)
    free = _merge_free(left, right, n)
    parts = []  # (keys, totals) of each chunk of a product with no keys to merge
    known = np.empty(0, dtype=np.int64)  # keys met so far, numbered in order of first occurrence
    total_re = total_im = np.empty(0)  # running sums by key number
    rows = max(1, _CHUNK // len(right))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf or nan silently, as in Python
        for i in range(0, len(left), rows):
            part = slice(i, i + rows)
            keys = (k1[part, None] ^ k2).ravel()
            k = (y1[part, None] + y2 + 2 * np.bitwise_count(k1[part, None] & x2)).ravel()
            k = (k - np.bitwise_count(keys >> n & keys)) & 3
            re_a, im_a = re1[part, None], im1[part, None]
            re = (re_a * re2 - im_a * im2).ravel()
            im = (re_a * im2 + im_a * re2).ravel()
            p_re, p_im = phases.real[k], phases.imag[k]
            re, im = re * p_re - im * p_im, re * p_im + im * p_re
            if free:  # each key is met once: its total is its one term, as bincount gives it (0.0 + w)
                parts.append((keys, re + 0.0, im + 0.0))
                continue
            # number the keys met so far and this chunk's by first occurrence.  The known keys lead, so
            # each keeps its number; a key's first occurrence is the least index of its np.unique group
            every = np.concatenate((known, keys))
            unique, inverse = np.unique(every, return_inverse=True)
            first = np.full(len(unique), len(every))
            np.minimum.at(first, inverse, np.arange(len(every)))
            by_first = np.argsort(first)
            known, at = unique[by_first], np.argsort(by_first)[inverse]
            # the running totals lead the weights, so each key adds this chunk's terms to its total
            total_re = np.bincount(at, weights=np.concatenate((total_re, re)))
            total_im = np.bincount(at, weights=np.concatenate((total_im, im)))
        if free:
            known, total_re, total_im = map(np.concatenate, zip(*parts))
        keep = (size := np.hypot(total_re, total_im)) >= DROP_TOLERANCE
    if np.any(np.isinf(size) & np.isfinite(total_re) & np.isfinite(total_im)):
        raise OverflowError("absolute value too large")
    coeffs = np.empty(np.count_nonzero(keep), dtype=complex)
    coeffs.real, coeffs.imag = total_re[keep], total_im[keep]
    return dict(zip(known[keep].tolist(), coeffs.tolist()))


LetterMap = tuple[tuple[int, str], ...]


def _term_masks(op: "PauliSum") -> list[tuple[int, int, complex]]:
    """(x, z, coefficient) per term of ``op`` in dict order, bit q of both masks on qubit q."""
    n, low = op.n_qubits, (1 << op.n_qubits) - 1
    return [(key >> n, key & low, c) for key, c in op._terms.items()]


def _lettered(op: "PauliSum") -> list[tuple[LetterMap, complex]]:
    """(letters, coefficient) per term of ``op`` in dict order, each string's letters in qubit order."""
    terms = []
    for x, z, c in _term_masks(op):
        bits = enumerate(bin(x | z)[:1:-1])  # (qubit, "0" or "1"), lowest qubit first
        terms.append((tuple((q, _LETTER_OF[(x >> q & 1) + 2 * (z >> q & 1)]) for q, bit in bits if bit == "1"), c))
    return terms


class PauliSum:
    """Linear combination of Pauli strings on ``n_qubits``.

    ``terms`` are ``((x, z), coeff)`` pairs, kept as a dict from the key
    ``x << n_qubits | z`` to coefficient.  Like keys merge with ``fsum``, so
    any permutation of the input yields the same operator; ``repr`` and
    ``to_json`` put the terms in canonical order each time they are called.
    """

    __slots__ = ("n_qubits", "_terms")

    def __init__(self, n_qubits: int, terms: Iterable[tuple[Key, complex]] = ()):
        if (n_qubits := _integer(n_qubits)) < 1:
            raise ValueError("n_qubits must be positive")
        buckets: dict[int, list[complex]] = {}
        for (x, z), coeff in terms:
            if x < 0 or z < 0:
                raise ValueError(f"negative mask in key {(x, z)}")
            if (x | z) >> n_qubits:
                raise DimensionMismatch(
                    f"string on qubit {(x | z).bit_length() - 1} does not fit in {n_qubits} qubits"
                )
            if not isfinite(coeff := complex(coeff)):
                raise ValueError(f"coefficient {coeff!r} of key {(x, z)} is not finite")
            # as a Python int: a numpy mask would wrap when shifted past its width
            buckets.setdefault(operator.index(x) << n_qubits | operator.index(z), []).append(coeff)
        merged: dict[int, complex] = {}
        for key, coeffs in buckets.items():
            c = complex(fsum(v.real for v in coeffs), fsum(v.imag for v in coeffs))
            if abs(c) >= DROP_TOLERANCE:
                merged[key] = c
        self.n_qubits = n_qubits
        self._terms = merged

    @classmethod
    def _from_dict(cls, n_qubits: int, terms: dict[int, complex]) -> "PauliSum":
        """Internal fast path: ``terms`` already canonical, valid keys and no coefficient to drop."""
        self = object.__new__(cls)
        self.n_qubits = n_qubits
        self._terms = terms
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(n_qubits, [((0, 0), coeff)])

    @classmethod
    def single(cls, n_qubits: int, qubit: int, letter: str, coeff: complex = 1.0) -> "PauliSum":
        """A single-letter operator, e.g. ``single(4, 2, "Z")`` for Z on qubit 2."""
        if letter not in _BITS:
            raise ValueError(f"not a Pauli letter: {letter!r}")
        if (qubit := _integer(qubit)) < 0:
            raise DimensionMismatch(f"string on qubit {qubit} does not fit in {n_qubits} qubits")
        xb, zb = _BITS[letter]
        return cls(n_qubits, [((xb << qubit, zb << qubit), coeff)])

    @classmethod
    def _fresh_triples(cls, n_qubits: int) -> list[tuple["PauliSum", "PauliSum", "PauliSum"]]:
        """(X_q, Y_q, Z_q) for each qubit q, equal to :meth:`single`'s bit for bit, for an int ``n_qubits`` >= 1."""
        n, new, one = n_qubits, cls._from_dict, 1 + 0j
        x, y, z = (xb << n | zb for xb, zb in map(_BITS.get, "XYZ"))
        return [(new(n, {x << q: one}), new(n, {y << q: one}), new(n, {z << q: one})) for q in range(n)]

    # -- views -------------------------------------------------------------

    @property
    def support(self) -> frozenset[int]:
        """Qubits on which any stored term acts non-trivially."""
        keys = reduce(operator.or_, self._terms, 0)
        rest = (keys >> self.n_qubits | keys) & ((1 << self.n_qubits) - 1)
        return frozenset(q for q in range(rest.bit_length()) if rest >> q & 1)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self._terms == other._terms

    def __hash__(self):
        return hash((self.n_qubits, frozenset(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return f"<PauliSum n={self.n_qubits}: 0>"
        parts = []
        for letters, c in sorted(_lettered(self))[:6]:
            body = " ".join(f"{letter}{q}" for q, letter in letters) or "I"
            parts.append(f"({c:.4g})*{body}")
        tail = " + ..." if len(self._terms) > 6 else ""
        return f"<PauliSum n={self.n_qubits}: {' + '.join(parts)}{tail}>"

    # -- algebra -----------------------------------------------------------

    def _check_dim(self, other: "PauliSum"):
        if self.n_qubits != other.n_qubits:
            raise DimensionMismatch(
                f"operands on {self.n_qubits} and {other.n_qubits} qubits"
            )

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        self._check_dim(other)
        terms = dict(self._terms)  # canonical already: only the keys of other need the drop test
        for key, c in other._terms.items():
            c = terms.get(key, 0j) + c
            if abs(c) >= DROP_TOLERANCE:
                terms[key] = c
            else:
                terms.pop(key, None)
        return PauliSum._from_dict(self.n_qubits, terms)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-other) if isinstance(other, PauliSum) else NotImplemented

    def __neg__(self) -> "PauliSum":
        # abs(-c) == abs(c), so nothing new falls below the drop tolerance
        return PauliSum._from_dict(self.n_qubits, {k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar: complex) -> "PauliSum":
        if isinstance(scalar, PauliSum):
            raise TypeError("use @ for operator products, * for scalars")
        if not isfinite(scalar):
            raise ValueError(f"scalar {scalar!r} is not finite")
        return PauliSum._from_dict(
            self.n_qubits,
            {k: p for k, c in self._terms.items() if abs(p := c * scalar) >= DROP_TOLERANCE},
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "PauliSum":
        return self * (1 / scalar if isfinite(scalar) else scalar)  # 1 / inf would pass as 0

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        self._check_dim(other)
        vector = len(self) * len(other) >= _CROSSOVER and self.n_qubits <= 31  # x << n | z fits in an int64
        product = _vector_product if vector else _loop_product
        return PauliSum._from_dict(self.n_qubits, product(self._terms, other._terms, self.n_qubits))

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> list[dict]:
        """Terms in canonical order as JSON-ready dicts."""
        return [
            {"coeff": [c.real, c.imag], "letters": {str(q): letter for q, letter in letters}}
            for letters, c in sorted(_lettered(self))
        ]


def _rotated_pair(x: PauliSum, z: PauliSum, c: float, s: float) -> tuple[PauliSum, PauliSum]:
    """``(x * c + z * s, z * c - x * s)`` for finite c and s, in one pass over z and one over x.

    Each coefficient meets those expressions' steps in their order: product, drop test, negation
    of ``x * s``, sum onto the first operand's term, drop of a sum below the tolerance.  So every
    bit, signed zero and dict position is theirs, with no intermediate operator.
    """
    x._check_dim(z)
    new_x, new_z, z_sin = {}, {}, []
    for k, v in z._terms.items():
        if abs(p := v * c) >= DROP_TOLERANCE:
            new_z[k] = p
        if abs(p := v * s) >= DROP_TOLERANCE:
            z_sin.append((k, p))  # added once new_x holds every term of x * c
    for k, v in x._terms.items():
        if abs(p := v * c) >= DROP_TOLERANCE:
            new_x[k] = p
        if abs(p := v * s) >= DROP_TOLERANCE:
            if abs(q := new_z.get(k, 0j) + -p) >= DROP_TOLERANCE:
                new_z[k] = q
            else:
                new_z.pop(k, None)
    for k, p in z_sin:
        if abs(q := new_x.get(k, 0j) + p) >= DROP_TOLERANCE:
            new_x[k] = q
        else:
            new_x.pop(k, None)
    n = x.n_qubits
    return PauliSum._from_dict(n, new_x), PauliSum._from_dict(n, new_z)


def _real_expectation(vals: list[complex], tol: float) -> float:
    """Sum of ``vals``, which must be real up to ``tol``."""
    if len(vals) == 1:  # what fsum gives for one value: the value, with -0.0 turned into 0.0
        re, im = vals[0].real + 0.0, vals[0].imag + 0.0
    else:
        re, im = (fsum(v.real for v in vals), fsum(v.imag for v in vals)) if vals else (0.0, 0.0)  # most are empty
    if not abs(im) <= tol:  # one comparison on the hot path, which also catches a NaN tolerance
        if not tol >= 0:
            raise ValueError(f"tolerance must be a number >= 0, got {tol!r}")
        raise HermiticityError(f"imaginary residue {im:g} in expectation value")
    return re


def vacuum_expectation(a: PauliSum, tol: float = DEFAULT_TOLERANCE) -> float:
    """Expectation in the all-zeros product state.

    Only terms with no X or Y letter (x mask 0) contribute, each with
    weight equal to its coefficient.  The operator must be Hermitian up to
    ``tol``: a larger imaginary residue raises :class:`HermiticityError`, and
    a NaN or negative ``tol`` raises ValueError.
    """
    return _real_expectation([c for k, c in a._terms.items() if not k >> a.n_qubits], tol)


def _graded_profile(ops: Iterable[PauliSum], tol: float) -> tuple[list[float], list[int], bool]:
    """The vacuum means and support masks of a descriptor's (x, y, z), reading each term once.

    Each mean is :func:`vacuum_expectation`'s, errors included, in component order.  ``graded``
    holds when every coefficient is real and x and z hold only even-#Y strings, y only odd ones.
    """
    means, masks, graded = [], [], True
    for op, odd in zip(ops, (0, 1, 0)):
        n, keys, vals = op.n_qubits, 0, []
        for k, c in op._terms.items():
            keys |= k
            if not (x := k >> n):
                vals.append(c)
            if graded and (c.imag or (x & k).bit_count() & 1 != odd):
                graded = False
        means.append(_real_expectation(vals, tol))
        masks.append((keys >> n | keys) & ((1 << n) - 1))
    return means, masks, graded


def pair_expectation(a: PauliSum, b: PauliSum, tol: float = DEFAULT_TOLERANCE) -> float:
    """<0|ab|0>: the vacuum expectation of ``a @ b``, bit for bit, without the product.

    A product term has x mask 0 only when its two factors share their x
    mask, so only those pairs are multiplied, with :func:`_loop_product`'s phase
    at x = 0: i^{3 #Y1 + popcount(x & z2)}.  Each z key receives the same
    additions in the same order as in ``@``, so every sum rounds alike.  A
    right operand of one term gives each matching left term a z key of its
    own, and its value is the one product c1 * c2 * phase: the ``0j +`` of
    ``@`` only turns -0.0 into 0.0, which both sums do anyway.
    """
    a._check_dim(b)
    n = a.n_qubits
    if len(b._terms) == 1:
        [(k2, c2)] = b._terms.items()
        x2 = k2 >> n
        y2 = (x2 & k2).bit_count()
        vals = []
        for k1, c1 in a._terms.items():
            if k1 >> n == x2 and abs(c := c1 * c2 * _I_POWERS[(3 * (x2 & k1).bit_count() + y2) & 3]) >= DROP_TOLERANCE:
                vals.append(c)
        return _real_expectation(vals, tol)
    right: dict[int, list[tuple[int, complex]]] = {}
    for k2, c2 in b._terms.items():
        right.setdefault(k2 >> n, []).append((k2, c2))
    terms: dict[int, complex] = {}
    for k1, c1 in a._terms.items():
        x1 = k1 >> n
        y = 3 * (x1 & k1).bit_count()  # #Y1 + 2 popcount(z1 & x2), as x2 = x1
        for k2, c2 in right.get(x1, ()):
            z = k1 ^ k2  # the x masks cancel
            terms[z] = terms.get(z, 0j) + c1 * c2 * _I_POWERS[(y + (x1 & k2).bit_count()) & 3]
    return _real_expectation([c for c in terms.values() if abs(c) >= DROP_TOLERANCE], tol)
