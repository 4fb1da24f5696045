"""Integer linear forms and their structural predicates.

A linear form is a fixed vector of non-zero integer coefficients
(a_1, ..., a_h), read as the expression a_1*x_1 + ... + a_h*x_h.  This
module answers the structural questions the set constructions depend on:

* primitivity (gcd of the coefficients is 1),
* a deterministic Bezout witness expressing 1 in the form,
* partition regularity (no non-empty subset of coefficients sums to 0),
* a non-trivial substitution automorphism, built from a zero-sum subset,
* the equal-subset-sum obstruction to ordered unique bases,
* the spiral enumeration 0, 1, -1, 2, -2, ... of the integers.

``Frozen`` is the base of the package's read-only value types.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, NamedTuple, Optional

from .errors import FormParseError, NotPrimitiveError


class Frozen:
    """Base of the read-only value types.  ``__init__`` sets each field
    in ``__slots__`` once through ``_init``; equality, hashing, repr and
    pickling go by the fields whose names do not start with ``_``, and
    setting or deleting an attribute raises AttributeError."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = zip((n for n in self.__slots__ if n[0] != "_"), self._key())
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._key()


class LinearForm(Frozen):
    """Coefficient vector of a linear form; every entry is a non-zero int."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int]):
        coefficients = tuple(coefficients)
        if not coefficients:
            raise FormParseError("a form needs at least one coefficient")
        for pos, c in enumerate(coefficients, start=1):
            if not isinstance(c, int) or isinstance(c, bool):
                raise FormParseError(f"coefficient at position {pos} is not an integer: {c!r}")
            if c == 0:
                raise FormParseError(f"coefficient at position {pos} is zero")
        self._init(coefficients)

    @property
    def arity(self) -> int:
        """Number of variables."""
        return len(self.coefficients)

    @classmethod
    def parse(cls, text: str) -> "LinearForm":
        """Parse a comma-separated signed-decimal string such as "1,2,-3"."""
        parts = text.split(",")
        coeffs = []
        for pos, raw in enumerate(parts, start=1):
            token = raw.strip()
            try:
                value = int(token)
            except ValueError:
                raise FormParseError(
                    f"coefficient at position {pos} is not an integer: {token!r}"
                ) from None
            if value == 0:
                raise FormParseError(f"coefficient at position {pos} is zero")
            coeffs.append(value)
        return cls(tuple(coeffs))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coefficients)


class AutomorphismWitness(NamedTuple):
    """A pair of substitution maps witnessing a form automorphism.

    ``psi`` and ``chi`` map each variable position (0-based) either to a
    variable position or to ``None``, which stands for substituting the
    constant 0.  The witness is valid for a form when the collected
    coefficients of ``sum(a_i * psi(x_i)) - sum(a_i * chi(x_i))`` reproduce
    the form's coefficient vector; it is non-trivial when ``chi`` is not
    identically ``None``.  Witnesses built from a zero-sum certificate are
    admissible: every variable that ``chi`` substitutes, ``psi`` substitutes
    too.  That rule ties witness existence to partition irregularity.
    """

    psi: tuple[Optional[int], ...]
    chi: tuple[Optional[int], ...]

    def collected_coefficients(self, form: LinearForm) -> tuple[int, ...]:
        """Coefficient vector obtained by substituting and collecting terms."""
        plus = _collect(form.coefficients, self.psi)
        minus = _collect(form.coefficients, self.chi)
        return tuple(p - q for p, q in zip(plus, minus))

    def verifies(self, form: LinearForm) -> bool:
        """True when substitution reproduces the original form exactly."""
        return self.collected_coefficients(form) == form.coefficients


def _collect(coeffs: tuple[int, ...], mapping: tuple[Optional[int], ...]) -> list[int]:
    """Per-variable coefficient sums induced by one substitution map."""
    buckets = [0] * len(coeffs)
    for a, target in zip(coeffs, mapping):
        if target is not None:
            buckets[target] += a
    return buckets


def is_primitive(form: LinearForm) -> bool:
    """True iff the gcd of the absolute coefficients equals 1."""
    return math.gcd(*(abs(c) for c in form.coefficients)) == 1


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g = gcd >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def bezout_witness(form: LinearForm) -> tuple[int, ...]:
    """Deterministic integer vector s with sum(a_i * s_i) == 1.

    Folds a two-term extended gcd left over the coefficient list; once the
    running gcd reaches 1 the remaining entries are 0, so prefixes that
    already represent 1 are preserved.  Raises NotPrimitiveError otherwise.
    """
    coeffs = form.coefficients
    if not is_primitive(form):
        raise NotPrimitiveError(f"form {form} has gcd > 1")
    g = abs(coeffs[0])
    witness = [1 if coeffs[0] > 0 else -1]
    for a in coeffs[1:]:
        if g == 1:
            witness.append(0)
            continue
        g2, x, y = _egcd(g, a)
        witness = [x * w for w in witness]
        witness.append(y)
        g = g2
    assert sum(a * s for a, s in zip(coeffs, witness)) == g == 1
    return tuple(witness)


def zero_sum_certificate(form: LinearForm) -> Optional[tuple[int, ...]]:
    """A non-empty tuple of coefficient positions (0-based) summing to zero.

    Positions index the coefficient multiset, so repeated equal coefficients
    count as distinct members.  Returns None when no such subset exists.
    Exhaustive over all 2^h - 1 non-empty subsets.
    """
    coeffs = form.coefficients
    indices = range(len(coeffs))
    for size in range(1, len(coeffs) + 1):
        for subset in combinations(indices, size):
            if sum(coeffs[i] for i in subset) == 0:
                return subset
    return None


def is_partition_regular(form: LinearForm) -> bool:
    """True iff no non-empty subset of the coefficients sums to zero.

    The package uses "partition regular" in this sense throughout.  It is
    the complement of Rado's criterion for the single equation
    a_1*x_1 + ... + a_h*x_h = 0, which is partition regular in Rado's sense
    exactly when some non-empty coefficient subset sums to zero (Rado,
    Math. Z. 36, 1933).
    """
    return zero_sum_certificate(form) is None


def find_nontrivial_automorphism(form: LinearForm) -> Optional[AutomorphismWitness]:
    """A non-trivial witness built from the zero-sum certificate, or None.

    Let S be ``zero_sum_certificate(form)`` and s its least position: psi
    sends x_s to 0 and keeps every other variable, and chi sends each x_i
    with i in S - {s} to x_s and every other variable to 0.  The pair
    reproduces the form because the coefficients at S - {s} sum to -a_s.
    It is admissible because chi moves no variable that psi kills, and it
    is non-trivial because |S| >= 2 (no coefficient is 0).  Returns None
    exactly when the form is partition regular.
    """
    return _witness_from_certificate(form, zero_sum_certificate(form))


def _witness_from_certificate(
    form: LinearForm, certificate: Optional[tuple[int, ...]]
) -> Optional[AutomorphismWitness]:
    """find_nontrivial_automorphism's witness, from a certificate already found."""
    if certificate is None:
        return None
    s, *rest = certificate
    psi = tuple(None if i == s else i for i in range(form.arity))
    chi = tuple(s if i in rest else None for i in range(form.arity))
    return AutomorphismWitness(psi, chi)


def has_ordered_unique_basis_obstruction(form: LinearForm) -> bool:
    """True iff two distinct coefficient index subsets have equal sums.

    Equal subset sums obstruct unique ordered-representation bases.
    Exhaustive over all 2^h subsets (the empty set included).
    """
    coeffs = form.coefficients
    seen: set[int] = set()
    for size in range(len(coeffs) + 1):
        for subset in combinations(range(len(coeffs)), size):
            total = sum(coeffs[i] for i in subset)
            if total in seen:
                return True
            seen.add(total)
    return False


def spiral(index: int) -> int:
    """The integer at `index` in the enumeration 0, 1, -1, 2, -2, ..."""
    if index < 0:
        raise ValueError("spiral index must be non-negative")
    if index % 2:
        return (index + 1) // 2
    return -(index // 2)


def spiral_index(n: int) -> int:
    """Inverse of spiral(): the position of n in 0, 1, -1, 2, -2, ..."""
    if n > 0:
        return 2 * n - 1
    return -2 * n
