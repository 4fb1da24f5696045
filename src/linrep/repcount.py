"""Exhaustive unordered representation counting over finite integer sets.

Two solution tuples of a form represent the same class when, at every
integer value, the sums of the coefficients attached to that value agree.
The canonical datum of a class is therefore the finite map
value -> coefficient-sum with zero sums removed.  A finite set represents
finitely many integers, so the full support is always available.

The general kernel counts classes as integers, one class type at a time.
The type of a class is the multiset W of its weights; the types are the
part sums of the partitions of the positions with no zero-weight part (a
zero-weight part can join any other part without changing the class).
The classes of type W at n number inj_W(n) / sym(W): inj_W counts the
assignments of pairwise distinct values to W's weighted slots with sum n,
and sym(W) is the product of m! over the multiplicities m of equal
weights.  Moebius inversion on the partitions of the slots makes inj_W a
signed sum of convolutions (G.-C. Rota, Z. Wahrsch. 2, 1964).  The empty
class exists when the coefficients sum to 0 and the set is non-empty.
Every count is a plain dict.  A convolution counts each distinct prefix
sum against all of its values in one ``Counter.update`` stream, and only
then adds the other copies of the few prefix sums with multiplicity above
1; every later Moebius term and class type revisits only sums the first
made, so they add into the first type's dict in place.

When a disjoint block B joins a set A, the new classes are those whose
support meets B, so ``class_count_delta`` counts only assignments with a
value in B, split by the first slot holding one.  A general delta lists
its sums in the order a walk of the tuples with a block entry first meets
them (split by the first block position, then ``itertools.product``
order); that order decides which doubled value a retry trail names.  The
builders' step loop keeps its running count in a ``builder_unique.Tally``,
one layer per accepted delta: the count is always verified, and a staged
delta joins it only through ``Tally.merge``, once the step's check has
accepted it.
Forms with equal coefficients keep a path that enumerates value
multisets, keyed in multiset order, and streams their sums into the count
(``_multiset_sums``).  Against the Moebius kernel (in process, best of 7),
a 200-step 1,1 realize with its final recount took 0.10-0.12 s instead of
0.21-0.22 s, and counts on 40 powers of 3 took about 2.7x less time for
1,1 and 5x less for 1,1,1; for 1,1,1,1 on 25 values they measured even.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from itertools import chain, combinations_with_replacement, cycle, repeat
from math import factorial, prod
from operator import add
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import BudgetExceededError
from .forms import Frozen, LinearForm

DEFAULT_TUPLE_BUDGET = 10**8

_DECIMAL = re.compile(r"-?[0-9]+")


def int_from_json(value: object, what: str) -> int:
    """An integer read from a JSON file: a JSON integer that is not a
    boolean, or a string of decimal digits with an optional leading minus.
    Anything else (a float, a boolean, a padded or signed-plus string)
    raises ValueError instead of being coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise ValueError(f"{what} must be an integer or a decimal string, got {value!r}")


class GroundSet(Frozen):
    """A finite set of distinct integers, stored sorted ascending.  Every
    entry must be of type ``int``: a bool or a float raises ValueError."""

    __slots__ = ("elements", "_members")

    def __init__(self, elements: Iterable[int]):
        elements = tuple(elements)
        if not {*map(type, elements)} <= {int}:  # one C-level pass per union
            bad = next(v for v in elements if type(v) is not int)
            raise ValueError(f"ground set entry {bad!r} is not an integer")
        members = frozenset(elements)
        # distinct union input comes nearly sorted: far faster than hash order
        self._init(tuple(sorted(members if len(members) < len(elements) else elements)), members)

    @classmethod
    def of(cls, values: Iterable[int]) -> "GroundSet":
        return cls(values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, value: int) -> bool:
        return value in self._members

    def max_abs(self) -> int:
        """Largest absolute value, or 0 for the empty set."""
        elems = self.elements
        return max(-elems[0], elems[-1]) if elems else 0

    def union(self, values: Iterable[int]) -> "GroundSet":
        return GroundSet(self.elements + tuple(values))

    @classmethod
    def from_json(cls, text: str) -> "GroundSet":
        """Load from a JSON array of distinct integers (see ``int_from_json``)."""
        raw = json.loads(text)
        if not isinstance(raw, list):
            raise ValueError("ground set file must be a JSON array")
        values = [int_from_json(s, "ground set entry") for s in raw]
        if len(set(values)) != len(values):
            raise ValueError("ground set file repeats an entry")
        return cls.of(values)

    def to_json(self) -> str:
        """Serialize as a JSON array of decimal strings (exact for big values)."""
        return json.dumps([str(e) for e in self.elements])


class RepProfile(NamedTuple):
    """Class counts of a ground set under a form.

    ``counts`` is exhaustive over the full support (every represented
    integer appears; anything absent has count 0); ``window`` records the
    interval the caller asked about, or is None for the full support.
    """

    counts: dict[int, int]
    window: Optional[tuple[int, int]]

    @property
    def support_min(self) -> int | None:
        return min(self.counts) if self.counts else None

    @property
    def support_max(self) -> int | None:
        return max(self.counts) if self.counts else None

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
        smin, smax = self.support_min, self.support_max
        lo, hi = self.window or (smin, smax)
        entries = sorted([f'"{n}":{c}' for n, c in self.counts.items() if lo <= n <= hi])
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


def _uniform_delta(
    coeff: int, arity: int, old: tuple[int, ...], new: tuple[int, ...]
) -> dict[int, int]:
    # classes are value multisets; the new ones hold j >= 1 block values
    old = tuple(map(coeff.__mul__, old))
    new = tuple(map(coeff.__mul__, new))
    counts: dict[int, int] = {}
    for j in range(1, arity + 1):
        tails = list(map(sum, combinations_with_replacement(old, arity - j)))
        if tails:
            _multiset_sums(new, j, 0, 0, tails, counts)
    return counts


def _multiset_sums(
    values: tuple[int, ...],
    size: int,
    start: int,
    prefix: int,
    tails: list[int],
    out: dict[int, int],
) -> None:
    """Count prefix + m + t into ``out`` for every ``size``-multiset sum m of
    values[start:] and every t in ``tails``, the multisets in
    ``combinations_with_replacement`` order and the tails in list order.

    ``Counter.update`` counts an iterable into any dict in one C loop; a
    plain dict spares the copy of a whole count that returning one from a
    Counter would take (about 2.7 MB of peak RSS for a 401-element ``1,1``
    count).
    """
    if size > 1:
        for i in range(start, len(values)):
            _multiset_sums(values, size - 1, i, prefix + values[i], tails, out)
    elif len(tails) == 1:
        Counter.update(out, map((prefix + tails[0]).__add__, values[start:]))
    else:
        for s in map(prefix.__add__, values[start:]):
            Counter.update(out, map(s.__add__, tails))


def _general_delta(
    coeffs: tuple[int, ...], old: tuple[int, ...], new: tuple[int, ...]
) -> dict[int, int]:
    """Integer counts of the new classes, one class type at a time.

    The keys come in the order of their first tuple with a block entry,
    split by the first block position, as the first type's first term
    lists them; every later term only revisits those sums (an assignment
    constant on parts has the weighted sum of a tuple the first term
    counts), so the first type's dict is the result and no key is added.
    """
    counts: dict[int, int] = {}
    touched: set[int] = set()
    for j, weights in enumerate(_class_types(coeffs)):
        sums = _injective_sums(weights, old, new, touched)
        sym = prod(factorial(m) for m in Counter(weights).values())
        if min(sums.values()) < 0 or (sym > 1 and any(c % sym for c in sums.values())):
            raise RuntimeError(
                f"injective counts of class type {weights} are not non-negative "
                f"multiples of its {sym} slot symmetries"
            )
        if j == 0:
            counts = sums if sym == 1 else {n: c // sym for n, c in sums.items()}
        else:
            for n, c in sums.items():
                counts[n] += c // sym
            touched.update(sums)
    if not old and sum(coeffs) == 0:
        counts[0] += 1  # the empty class, new with the first elements
    for n in touched:
        if not counts[n]:
            del counts[n]
    return counts


def _class_types(coeffs: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Each class type once: the part sums of a partition of the positions
    with no zero-weight part, the coefficients themselves first."""
    seen: set[tuple[int, ...]] = set()
    for parts in _set_partitions(len(coeffs)):
        weights = tuple(sum(coeffs[p] for p in part) for part in parts)
        key = tuple(sorted(weights))
        if all(weights) and key not in seen:
            seen.add(key)
            yield weights


def _injective_sums(
    weights: tuple[int, ...], old: tuple[int, ...], new: tuple[int, ...], touched: set[int]
) -> dict[int, int]:
    """Map n -> number of assignments of pairwise distinct values from
    old+new to the weighted slots, with at least one block value, whose
    weighted sum is n.

    Moebius inversion on the partitions of the slots: an assignment
    constant on the parts of sigma is counted by a convolution, and the
    distinct-value count is the sum of those counts weighted by
    mu(sigma) = prod((-1)^(s-1) (s-1)!) over the part sizes s.  The first
    term (all singletons) goes straight into the result; the sums any
    later term touches are added to ``touched``.
    """
    sums: dict[int, int] = {}
    for j, parts in enumerate(_set_partitions(len(weights))):
        merged = [sum(weights[i] for i in part) for part in parts]
        if j == 0:
            _split_sums(merged, old, new, sums)
            continue
        mu = prod((-1) ** (len(part) - 1) * factorial(len(part) - 1) for part in parts)
        term = _split_sums(merged, old, new, {})
        for n, c in term.items():
            sums[n] += mu * c
        touched.update(term)
    return sums


def _split_sums(
    weights: list[int], old: tuple[int, ...], new: tuple[int, ...], out: dict[int, int]
) -> dict[int, int]:
    """Add the weighted sum of every assignment of old+new values to the
    slots with at least one block value, split by the first block slot:
    old^i x new x (old+new)^(k-1-i)."""
    both = old + new
    k = len(weights)
    for i in range(k):
        factors = [old] * i + [new] + [both] * (k - 1 - i)
        scaled = [[w * x for x in values] for w, values in zip(weights, factors)]
        prefix = {0: 1}
        for values in scaled[:-1]:
            prefix = _convolve(prefix, values, {})
        _convolve(prefix, scaled[-1], out)
    return out


def _convolve(sums: dict[int, int], values: list[int], out: dict[int, int]) -> dict[int, int]:
    """Add every (s + v) for s in ``sums`` (with multiplicity) and v in ``values``.

    One ``Counter.update`` stream counts each distinct s against every
    value once, in (s, v) order, so it sets the first-seen key order; the
    few s with multiplicity c > 1 then add their other c - 1 to keys the
    stream already made.  Repeating s c times in the stream instead keeps
    the counts but is several times slower on dense or repeated-coefficient
    inputs, where multiplicities grow large.
    """
    Counter.update(
        out,
        map(add, chain.from_iterable(map(repeat, sums, repeat(len(values)))), cycle(values)),
    )
    for s, c in sums.items():
        if c > 1:
            for v in values:
                out[s + v] += c - 1
    return out


def _set_partitions(size: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every partition of range(size), parts ordered by their least
    position; the partition into singletons comes first."""
    if size == 0:
        yield ()
        return
    last = size - 1
    for parts in _set_partitions(last):
        yield parts + ((last,),)
        for j in range(len(parts)):
            yield parts[:j] + (parts[j] + (last,),) + parts[j + 1 :]


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
