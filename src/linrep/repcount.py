"""Exhaustive unordered representation counting over finite integer sets.

Two solution tuples of a form represent the same class when, at every
integer value, the sums of the coefficients attached to that value agree.
The canonical datum of a class is therefore the finite map
value -> coefficient-sum with zero sums removed.  Counting classes per
represented integer accounts for all |A|^h ordered tuples; a finite set
represents finitely many integers, so the full support is always
available.

Most tuples have pairwise distinct values, and those need no class key.
The class of such a tuple has exactly h support points, each weighted by
its own non-zero coefficient.  Exactly sym = prod(m_j!) ordered tuples
realize it, where the m_j are the multiplicities of equal coefficients,
and no tuple with a repeated value does, since that has fewer than h
support points.  So the distinct-value classes at n number (distinct-value
tuples summing to n) / sym.  The general kernel counts every tuple by its
sum alone, as a convolution of the scaled value lists of the positions.
It then enumerates the tuples with a repeated value once each, as a set
partition of the positions into fewer than h parts plus an injective
assignment of values to the parts, subtracts them from those sums and
collects their class keys.

When a disjoint block B joins a set A, the only new classes are those
whose support meets B: a class whose B-positions cancel value by value
is also realized by sending each cancelling group of positions to one
element of A.  ``class_count_delta`` counts just those classes, walking
only the tuples with at least one entry in B.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from math import factorial, prod
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import ArityMismatchError, BudgetExceededError
from .forms import LinearForm

DEFAULT_TUPLE_BUDGET = 10**8


@dataclass(frozen=True)
class GroundSet:
    """A finite set of distinct integers, stored sorted ascending."""

    elements: tuple[int, ...]
    _members: frozenset[int] = field(init=False, repr=False, compare=False)

    @classmethod
    def of(cls, values: Iterable[int]) -> "GroundSet":
        return cls(tuple(sorted(set(int(v) for v in values))))

    def __post_init__(self):
        elems = tuple(self.elements)
        if len(set(elems)) != len(elems) or tuple(sorted(elems)) != elems:
            object.__setattr__(self, "elements", tuple(sorted(set(elems))))
        object.__setattr__(self, "_members", frozenset(self.elements))

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, value: int) -> bool:
        return value in self._members

    def max_abs(self) -> int:
        """Largest absolute value, or 0 for the empty set."""
        return max((abs(e) for e in self.elements), default=0)

    def union(self, values: Iterable[int]) -> "GroundSet":
        return GroundSet.of(self.elements + tuple(values))

    @classmethod
    def from_json(cls, text: str) -> "GroundSet":
        """Load from a JSON array of signed decimal strings."""
        raw = json.loads(text)
        if not isinstance(raw, list):
            raise ValueError("ground set file must be a JSON array")
        return cls.of(int(s) for s in raw)

    def to_json(self) -> str:
        """Serialize as a JSON array of decimal strings (exact for big values)."""
        return json.dumps([str(e) for e in self.elements])


@dataclass(frozen=True)
class RepClass:
    """Canonical representation class: sorted (value, weight) pairs.

    Weights are the per-value coefficient sums; zero weights are dropped
    during canonicalization, so the empty class represents 0.
    """

    items: tuple[tuple[int, int], ...]

    @classmethod
    def from_weights(cls, weights: dict[int, int]) -> "RepClass":
        return cls(_class_key(weights.items()))

    def represents(self) -> int:
        """The integer this class is a representation of."""
        return sum(v * w for v, w in self.items)


def _class_key(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Sorted (value, weight) pairs of distinct values, zero weights dropped."""
    return tuple(sorted((v, w) for v, w in pairs if w))


def canonicalize(form: LinearForm, solution: tuple[int, ...]) -> RepClass:
    """Canonical class of one solution tuple.

    Groups tuple positions by value and sums the attached coefficients;
    zero sums are removed.  Two tuples are equivalent representations iff
    their canonical classes are equal.
    """
    if len(solution) != form.arity:
        raise ArityMismatchError(
            f"tuple has {len(solution)} entries, form has {form.arity} variables"
        )
    weights: dict[int, int] = {}
    for a, x in zip(form.coefficients, solution):
        weights[x] = weights.get(x, 0) + a
    return RepClass.from_weights(weights)


@dataclass
class RepProfile:
    """Class counts of a ground set under a form.

    ``counts`` is exhaustive over the full support (every represented
    integer appears; anything absent has count 0); ``window`` records the
    interval the caller asked about.
    """

    counts: dict[int, int]
    window: tuple[int, int]

    def count(self, n: int) -> int:
        return self.counts.get(n, 0)

    @property
    def support_min(self) -> int | None:
        return min(self.counts) if self.counts else None

    @property
    def support_max(self) -> int | None:
        return max(self.counts) if self.counts else None

    def windowed_counts(self) -> dict[int, int]:
        lo, hi = self.window
        return {n: c for n, c in sorted(self.counts.items()) if lo <= n <= hi}

    def to_json(self) -> str:
        """Compact JSON: the windowed counts keyed by decimal strings, and
        the support bounds as decimal strings (``null`` when empty).

        The bytes are those of ``json.dumps(..., sort_keys=True,
        separators=(",", ":"))``, written without building a string-keyed
        dict.  One ``"n":c`` entry is made per windowed count and the
        entries are sorted as strings.  Every key is a decimal integer and
        ``"`` (0x22) sorts below ``-`` and every digit, so a comparison of
        two entries is decided inside their keys, and a key that is a
        prefix of another sorts first, as in ``str`` order: this is json's
        ``sort_keys`` order.  Keys need no escaping, and ``f"{c}"`` is
        ``int.__repr__``, which is what json writes for an integer.
        """
        lo, hi = self.window
        entries = sorted([f'"{n}":{c}' for n, c in self.counts.items() if lo <= n <= hi])
        smin, smax = self.support_min, self.support_max
        return (
            '{"counts":{' + ",".join(entries) + "}"
            + ',"support_max":' + ("null" if smax is None else f'"{smax}"')
            + ',"support_min":' + ("null" if smin is None else f'"{smin}"')
            + "}"
        )


def _check_budget(size: int, arity: int, budget: int) -> None:
    required = size**arity
    if required > budget:
        raise BudgetExceededError(required, budget)


def class_counts(
    form: LinearForm,
    ground_set: GroundSet,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> dict[int, int]:
    """Exhaustive map n -> number of distinct classes representing n.

    The whole set is one block joining the empty set, so this is
    ``class_count_delta`` from nothing: every ordered tuple is visited
    (sorted value multisets when all coefficients are equal).
    """
    return class_count_delta(form, GroundSet(()), ground_set.elements, budget)


def class_count_delta(
    form: LinearForm,
    base: GroundSet,
    block: Sequence[int],
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> dict[int, int]:
    """Map n -> number of new classes when ``block`` joins ``base``.

    ``block`` must be duplicate-free and disjoint from ``base``; then
    ``class_counts`` of the union is ``class_counts(base)`` plus this map,
    value by value.  Only tuples with at least one entry in the block are
    visited, split by the first block position:
    base^i x block x (base+block)^(h-1-i).  The budget rule is the one of
    ``class_counts`` on the union, |base + block|^h.
    """
    new = tuple(block)
    if len(set(new)) != len(new) or any(v in base for v in new):
        raise ValueError("block must be duplicate-free and disjoint from the base set")
    coeffs = form.coefficients
    _check_budget(len(base) + len(new), len(coeffs), budget)
    if not new:
        return {}
    if len(set(coeffs)) == 1:
        return _uniform_delta(coeffs[0], len(coeffs), base.elements, new)
    return _general_delta(coeffs, base.elements, new)


def merge_counts(counts: dict[int, int], delta: dict[int, int]) -> None:
    """Add a ``class_count_delta`` result into ``counts`` in place."""
    for n, d in delta.items():
        counts[n] = counts.get(n, 0) + d


def _uniform_delta(
    coeff: int, arity: int, old: tuple[int, ...], new: tuple[int, ...]
) -> dict[int, int]:
    # classes are value multisets; the new ones hold j >= 1 block values
    counts: dict[int, int] = defaultdict(int)
    for j in range(1, arity + 1):
        old_sums = [sum(c) for c in combinations_with_replacement(old, arity - j)]
        for combo in combinations_with_replacement(new, j):
            s = sum(combo)
            for o in old_sums:
                counts[coeff * (s + o)] += 1
    return dict(counts)


def _general_delta(
    coeffs: tuple[int, ...], old: tuple[int, ...], new: tuple[int, ...]
) -> dict[int, int]:
    """Two passes over the tuples with a block entry, split by the first
    block position; sums appear in the order of their first such tuple."""
    fresh = frozenset(new)
    both = old + new
    arity = len(coeffs)
    # pass 1: every tuple with a block entry, counted by its sum only
    tuples: Counter[int] = Counter()
    for i in range(arity):
        factors = [old] * i + [new] + [both] * (arity - 1 - i)
        scaled = [[a * x for x in values] for a, values in zip(coeffs, factors)]
        prefix: Counter[int] = Counter({0: 1})
        for values in scaled[:-1]:
            prefix = _convolve(prefix, values, Counter())
        _convolve(prefix, scaled[-1], tuples)
    # pass 2: the tuples with a repeated value, each once, get class keys
    classes: dict[int, set] = defaultdict(set)
    for parts in _set_partitions(arity):
        if len(parts) == arity:
            continue
        weights = [sum(coeffs[p] for p in part) for part in parts]
        for values in _injective_assignments(len(parts), old, new):
            total = sum(map(mul, weights, values))
            tuples[total] -= 1
            key = _class_key(zip(values, weights))
            keys = classes[total]
            # a class missing the block is realized inside a non-empty base
            if not old or any(x in fresh for x, _ in key):
                keys.add(key)
    # what is left are distinct-value tuples, sym orderings of each class
    sym = prod(factorial(m) for m in Counter(coeffs).values())
    if min(tuples.values()) < 0 or (sym > 1 and any(c % sym for c in tuples.values())):
        raise RuntimeError(
            f"distinct-value tuple counts are not multiples of the {sym} "
            "orderings of one class"
        )
    counts = dict(tuples) if sym == 1 else {n: c // sym for n, c in tuples.items()}
    for n, keys in classes.items():
        found = counts[n] + len(keys)
        if found:
            counts[n] = found
        else:
            del counts[n]
    return counts


def _convolve(
    sums: dict[int, int], values: list[int], out: Counter[int]
) -> Counter[int]:
    """Add every (s + v) for s in ``sums`` (with multiplicity) and v in ``values``."""
    for s, c in sums.items():
        if c == 1:
            out.update(map(s.__add__, values))
        else:
            for v in values:
                out[s + v] += c
    return out


def _set_partitions(size: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every partition of range(size), parts ordered by their least position."""
    if size == 0:
        yield ()
        return
    last = size - 1
    for parts in _set_partitions(last):
        for j in range(len(parts)):
            yield parts[:j] + (parts[j] + (last,),) + parts[j + 1 :]
        yield parts + ((last,),)


def _injective_assignments(
    k: int, old: tuple[int, ...], new: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """Every k-tuple of pairwise distinct values from old+new with at least
    one block value, once each: split by the first block position."""
    both = old + new
    for i in range(k):
        for values in product(*([old] * i + [new] + [both] * (k - 1 - i))):
            if len(set(values)) == k:
                yield values


def rep_function(
    form: LinearForm,
    ground_set: GroundSet,
    window: tuple[int, int],
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> RepProfile:
    """Unordered representation function of a finite set, exhaustively.

    Counts, for every integer in ``window`` (and across the full support),
    the number of distinct representation classes.  Raises
    BudgetExceededError with the required tuple count when |A|^h exceeds
    ``budget``.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError(f"window lower bound {lo} exceeds upper bound {hi}")
    return RepProfile(counts=class_counts(form, ground_set, budget), window=window)


def count_at(
    form: LinearForm,
    ground_set: GroundSet,
    n: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> int:
    """Number of distinct classes representing n; same budget rule."""
    return class_counts(form, ground_set, budget).get(n, 0)
