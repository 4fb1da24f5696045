"""Exhaustive unordered representation counting over finite integer sets.

Two solution tuples of a form represent the same class when, at every
integer value, the sums of the coefficients attached to that value agree.
The canonical datum of a class is therefore the finite map
value -> coefficient-sum with zero sums removed.  A finite set represents
finitely many integers, so the full support is always available.

The general kernel counts classes as integers, with one signed plan per
form.  The type of a class is the multiset W of its weights: the part sums
of a partition of the positions with no zero-weight part (a zero-weight
part can join any other part without changing the class).  The classes of
type W at n number inj_W(n) / sym(W): inj_W counts the assignments of
pairwise distinct values to W's weighted slots with sum n, and sym(W) is
the product of m! over the multiplicities m of equal weights.  Moebius
inversion on the partitions of the slots makes inj_W a signed sum of
convolutions (G.-C. Rota, Z. Wahrsch. 2, 1964).  Summed over the types,
den times the class count, den the lcm of the sym(W), is one signed sum
with one integer coefficient per merged-weight multiset; most cancel
(``1,2,-3`` keeps 2 of 11 terms: all tuples, minus the constant tuples at
0).  ``_terms`` builds that plan once per form.  The empty class exists
when the coefficients sum to 0 and the set is non-empty.  Every count is a
plain dict.  A convolution counts each distinct prefix sum against all of
its values in one ``Counter.update`` stream, and only then adds the other
copies of the few prefix sums with multiplicity above 1.

When a disjoint block B joins a set A, the new classes are those whose
support meets B, so ``class_count_delta`` counts only assignments with a
value in B, split by the first slot holding one.  A general delta lists
its sums in the order a walk of the tuples with a block entry first meets
them (split by the first block position, then ``itertools.product``
order); that order decides which doubled value a retry trail names.  The
builders keep each accepted delta as one layer of a ``builder_target.Tally``.
Forms with equal coefficients keep a path that enumerates value multisets,
keyed in multiset order, and streams their sums into the count
(``_multiset_sums``).  Their plan walks about h! times as many tuples: for
``1,1`` it is all ordered pairs plus the pairs (x, x), halved.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations_with_replacement, cycle, repeat
from math import factorial, lcm, prod
from operator import add
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import BudgetExceededError, ConstructionBugError
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
    """Integer counts of the new classes from the form's signed plan.

    The first term (the coefficients) is counted straight into the result,
    which fixes the key order: that of its first tuple with a block entry,
    split by the first block position.  A later term only revisits those
    sums (an assignment constant on parts has the weighted sum of a tuple
    the first term counts), so it goes into a correction dict over the keys
    it touches.  Each corrected count must be a non-negative multiple of
    den, or ConstructionBugError signals the bug; the first term's dict is
    rescaled only when the coefficients have slot symmetries (sym0 > 1).
    """
    den, (first, c0), *rest = _terms(coeffs)
    counts = _split_sums(first, old, new, {})
    touched: dict[int, int] = {}
    for weights, c in rest:
        for n, k in _split_sums(weights, old, new, {}).items():
            touched[n] = touched.get(n, 0) + c * k
    for n, c in touched.items():
        c += c0 * counts[n]
        if c < 0 or c % den:
            raise ConstructionBugError(
                f"plan of form {coeffs}: {c} at {n} is not a non-negative multiple of {den}"
            )
        touched[n] = c // den
    sym0 = den // c0
    if sym0 > 1:
        # off the touched keys each count must divide by sym0: the totals tell
        total = sum(counts.values()) - sum(counts[n] % sym0 for n in touched)
        counts = {n: c // sym0 for n, c in counts.items()}
        if sym0 * sum(counts.values()) != total:
            raise ConstructionBugError(
                f"plan of form {coeffs}: an uncorrected count is not a multiple of {sym0}"
            )
    counts.update(touched)
    if not old and sum(coeffs) == 0:
        counts[0] += 1  # the empty class, new with the first elements
    for n in touched:
        if not counts[n]:
            del counts[n]
    return counts


@lru_cache
def _terms(coeffs: tuple[int, ...]) -> tuple:
    """The signed plan of a form: ``(den, (coeffs, c0), (weights, c), ...)``.

    Summed over every class type W and every partition sigma of its slots,
    mu(sigma) * den / sym(W) convolutions of sigma's merged weights count
    den times the classes, where den is the lcm of the types' sym(W).
    Terms with equal merged-weight multisets are added up and those that
    cancel are dropped; the coefficients themselves stay first.
    """
    types = {w: prod(map(factorial, Counter(w).values())) for w in _class_types(coeffs)}
    den, net = lcm(*types.values()), {}
    for weights, sym in types.items():
        for parts in _set_partitions(len(weights)):
            merged = tuple(sum(weights[i] for i in part) for part in parts)
            mu = prod((-1) ** (len(part) - 1) * factorial(len(part) - 1) for part in parts)
            net.setdefault(tuple(sorted(merged)), [merged, 0])[1] += mu * (den // sym)
    return (den, *((w, c) for w, c in net.values() if c))


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


def _split_sums(
    weights: tuple[int, ...], old: tuple[int, ...], new: tuple[int, ...], out: dict[int, int]
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
