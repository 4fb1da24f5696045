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
support meets B.  One recurrence over a term's prefix lengths counts them
(``_gained``): the new sums of j slots are the new sums of j - 1 slots
against w_j * (A + B), plus the old sums of j - 1 slots against w_j * B.
``PrefixCount`` keeps each term's old sums of every prefix length 1 .. k - 1,
so no sum is recounted and no |A|^h table is held.  Step deltas, table
growth and full counts all run that recurrence; a full count is the whole
set joining an empty ``PrefixCount``.  ``PrefixCount.count`` answers the
count at one n from the longest tables (the builders' running count,
``builder_target.Tally``, and ``count_at``).  ``PrefixCount.shards`` takes
the classes a block adds one residue class of n mod p at a time, p prime
(``shard_modulus``): one kernel, ``_shards``, buckets each term's new
and old head sums by residue, and shard r adds each last-slot value v only
to the bucket r - v, so each shard's counts are exact.  Each step's check walks
the block's shards and the final certificate (``class_count_shards``)
the whole set's.
Forms with equal coefficients keep a path that enumerates value multisets
and streams their sums into the count (``_multiset_sums``).  Their plan
walks about h! times as many tuples: for ``1,1`` it is all ordered pairs
plus the pairs (x, x), halved.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from bisect import insort
from functools import lru_cache
from itertools import chain, combinations_with_replacement, cycle, repeat
from math import factorial, isqrt, lcm, prod
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
        elements = _integers(elements)
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
        """This set with ``values`` added; repeats and members are dropped.
        Only the values are type-checked and hashed: the members come from
        ``_members``, whose union copies the stored hashes, and each new
        value is inserted into the sorted elements."""
        fresh = [v for v in dict.fromkeys(_integers(values)) if v not in self._members]
        elements = list(self.elements)
        for v in fresh:
            insort(elements, v)
        union = GroundSet.__new__(GroundSet)
        union._init(tuple(elements), self._members.union(fresh))
        return union

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


def _integers(values: Iterable[int]) -> tuple[int, ...]:
    """``values`` as a tuple, each of type ``int``: a bool or a float raises
    ValueError.  One C-level pass over the types."""
    values = tuple(values)
    if not {*map(type, values)} <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"ground set entry {bad!r} is not an integer")
    return values


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

        The text is one join, with the head and tail spliced onto the end
        entries, so the body is never copied while the entries are alive.
        """
        smin, smax = self.support_min, self.support_max
        lo, hi = self.window or (smin, smax)
        entries = sorted([f'"{n}":{c}' for n, c in self.counts.items() if lo <= n <= hi])
        tail = (
            '},"support_max":' + ("null" if smax is None else f'"{smax}"')
            + ',"support_min":' + ("null" if smin is None else f'"{smin}"')
            + "}"
        )
        if not entries:
            return '{"counts":{' + tail
        entries[0] = '{"counts":{' + entries[0]
        entries[-1] += tail
        return ",".join(entries)


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

    The whole set joins an empty ``PrefixCount`` in one shard: every
    ordered tuple is visited (sorted value multisets when all coefficients
    are equal).
    """
    return next(PrefixCount(form).shards(ground_set.elements, budget, 1))


def class_count_shards(
    form: LinearForm,
    ground_set: GroundSet,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> tuple[int, Iterator[dict[int, int]]]:
    """``(p, shards)``: the counts of ``class_counts``, one residue class of
    n mod p at a time, p = ``shard_modulus`` of the set.  Shard r holds the
    counts at every n = r (mod p), for r = 0 .. p - 1, so at most one shard
    of counts need be held.  The budget is checked before the modulus,
    whose prime search is slow for a large candidate.
    """
    _check_budget(len(ground_set), form.arity, budget)
    p = shard_modulus(form, len(ground_set))
    return p, PrefixCount(form).shards(ground_set.elements, budget, p)


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
    values[start:] and every t in ``tails``.

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


def _plan_counts(coeffs: tuple[int, ...], sums_of, empty: bool) -> dict[int, int]:
    """Class counts from the form's signed plan: ``sums_of(weights)`` gives
    the sums of one term's assignments (with multiplicity), for a delta
    the new ones (``_gained``); ``empty`` adds the empty class at 0.

    The first term (the coefficients) is counted straight into the result.
    A later term only revisits those sums (an assignment constant on parts
    has the weighted sum of a tuple the first term counts), so it goes into
    a correction dict over the keys it touches.  Each corrected count must be a
    non-negative multiple of den, or ConstructionBugError signals the bug;
    the first term's dict is rescaled only when the coefficients have slot
    symmetries (sym0 > 1).
    """
    den, (first, c0), *rest = _terms(coeffs)
    counts = sums_of(first)
    touched: dict[int, int] = {}
    for weights, c in rest:
        for n, k in sums_of(weights).items():
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
    if empty:
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


def _gained(weights: tuple[int, ...], tables: list[dict], old: tuple, new: tuple) -> list[dict]:
    """The weighted sums, with multiplicity, that each prefix of ``weights``
    gains when the block ``new`` joins ``old``, from ``tables``, the old
    sums of the prefixes of length 1, 2, ...: the new sums of j slots are
    the new sums of j - 1 slots against w_j * (old + new), plus the old
    sums of j - 1 slots against w_j * new.  The empty prefix sums to 0 and
    gains nothing."""
    both, gained, grown = old + new, {}, []
    for w, table in zip(weights, [{0: 1}, *tables]):
        gained = _convolve(gained, [w * x for x in both], {})
        grown.append(_convolve(table, [w * x for x in new], gained))
    return grown


def _convolve(sums: dict[int, int], values: list[int], out: dict[int, int]) -> dict[int, int]:
    """Add every (s + v) for s in ``sums`` (with multiplicity) and v in ``values``.

    One ``Counter.update`` stream counts each distinct s against every
    value once; the few s with multiplicity c > 1 then add their other
    c - 1 to keys the stream already made.  Repeating s c times in the
    stream instead keeps the counts but is several times slower on dense or
    repeated-coefficient inputs, where multiplicities grow large.
    """
    Counter.update(out, _stream(sums, values))
    for s, c in _repeats(sums):
        for v in values:
            out[s + v] += c
    return out


def _repeats(sums: dict[int, int]) -> list[tuple[int, int]]:
    """(s, c - 1) for each s of ``sums`` with multiplicity c > 1."""
    return [(s, c - 1) for s, c in sums.items() if c > 1]


def _stream(sums: dict[int, int], values: list[int]) -> Iterator[int]:
    """Every s + v, once per distinct s in ``sums`` and v in ``values``."""
    return map(add, chain.from_iterable(map(repeat, sums, repeat(len(values)))), cycle(values))


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


# a count of more tuples than this is taken in residue shards: a step's
# new classes and the final certificate alike
_SHARD_TUPLES = 2**13


def shard_modulus(form: LinearForm, size: int, old: int = 0) -> int:
    """The number of residue shards ``class_count_shards`` counts the
    classes of ``size`` elements in, beyond those of their first ``old``:
    1 up to ``_SHARD_TUPLES`` tuples with a new element, and for equal
    coefficients, whose multiset path is not sharded; above that the
    smallest prime at least tuples / ``_SHARD_TUPLES``.  Built sums crowd
    a few residues of a power of 2, so the modulus is prime."""
    tuples = size**form.arity - old**form.arity
    if tuples <= _SHARD_TUPLES or len(set(form.coefficients)) == 1:
        return 1
    p = -(-tuples // _SHARD_TUPLES)
    while any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        p += 1
    return p


def _shards(coeffs: tuple[int, ...], splits, p: int, empty: bool) -> Iterator[dict[int, int]]:
    """The plan's counts (``_plan_counts``) one residue class of n mod p at a
    time.  ``splits(weights)`` gives a term's assignments as (prefix, last)
    pairs: the sums of the first k - 1 slots, with multiplicity, and the
    last slot's scaled values.  ``empty`` adds the empty class at 0.

    With p = 1 the one shard convolves each pair whole, which is faster
    than streaming one bucket value by value.  Otherwise every pair's
    prefix sums are bucketed by residue once, and shard r streams each last
    value v against the bucket r - v, one ``Counter.update`` over all of
    them: value by value, which beats ``_stream`` when a bucket meets few
    values.  Every term is sharded alike, so each shard's counts are exact.
    """
    if p == 1:

        def whole_sums(weights: tuple[int, ...]) -> dict[int, int]:
            out: dict[int, int] = {}
            for prefix, last in splits(weights):
                _convolve(prefix, last, out)
            return out

        yield _plan_counts(coeffs, whole_sums, empty)
        return
    buckets = {}
    for weights, _ in _terms(coeffs)[1:]:
        pairs = []
        for prefix, last in splits(weights):
            sums: list[dict[int, int]] = [{} for _ in range(p)]
            for s, k in prefix.items():
                sums[s % p][s] = k
            pairs.append(([(a, _repeats(a)) for a in sums], last))
        buckets[weights] = pairs
    for r in range(p):

        def shard_sums(weights: tuple[int, ...]) -> dict[int, int]:
            out: dict[int, int] = {}
            for sums, last in buckets[weights]:
                met = [(v, *sums[(r - v) % p]) for v in last]
                Counter.update(out, chain.from_iterable(map(v.__add__, a) for v, a, _ in met))
                for v, _, repeats in met:
                    for s, c in repeats:
                        out[s + v] += c
            return out

        yield _plan_counts(coeffs, shard_sums, empty and r == 0)


class PrefixCount:
    """The class count of a growing set at any one n, from the form's signed
    plan, holding no sum of all h slots.

    For each plan term w = (w_1, ..., w_k) with coefficient c, the table
    P_j maps each weighted sum of the first j slots over the set A to its
    number of assignments, for j = 1 .. k - 1, so den * count(n) is the sum
    over the terms of c * sum over v in A of P_(k-1)(n - w_k * v); the
    empty class adds 1 at 0 when the coefficients sum to 0 and A is not
    empty.  ``extend`` adds a disjoint block's new sums to every table
    (``_gained``), in O(|A|^(h-2) * |B|).  A query walks |A| values per
    term of two or more slots.  ``lo`` and ``hi`` are the extreme tuple
    sums, from min A and max A: every count outside them is 0.
    """

    def __init__(self, form: LinearForm, elements: Sequence[int] = ()):
        coeffs = form.coefficients
        self._den, *terms = _terms(coeffs)
        # per term: the slots its tables sum, w_k, c, one table per prefix
        # length and the last slot's values w_k * v; a one-slot term's one
        # table sums its one slot, with [0] for the last values, so that its
        # query is one lookup
        self._tables = {
            w: (w[:-1], w[-1], c, [{} for _ in w[1:]], []) if w[1:] else (w, None, c, [{}], [0])
            for w, c in terms
        }
        self.form = form
        self._empty_at_zero = sum(coeffs) == 0
        self.elements: tuple[int, ...] = ()
        self.lo, self.hi = 0, -1
        self.extend(elements)

    def shards(
        self, block: Sequence[int], budget: int = DEFAULT_TUPLE_BUDGET, p: Optional[int] = None
    ) -> Iterator[dict]:
        """The classes the duplicate-free ``block``, disjoint from the set,
        adds, in p residue shards as ``class_count_shards`` takes a set's;
        without p, ``shard_modulus`` of the step.

        A term's new assignments are the last step of ``_gained``: the head
        sums the block adds against every last value, and the longest table
        against the block's last values.  Equal coefficients take one
        shard.  The budget, checked first, bounds |set + block|^h.
        """
        old, new, form = self.elements, tuple(block), self.form
        coeffs = form.coefficients
        _check_budget(len(old) + len(new), len(coeffs), budget)
        if not new:
            return iter([{}])
        if len(set(coeffs)) == 1:
            return iter([_uniform_delta(coeffs[0], len(coeffs), old, new)])

        def splits(weights: tuple[int, ...]) -> list[tuple[dict[int, int], list[int]]]:
            head, w, _, tables, last = self._tables[weights]
            gained = _gained(head, tables, old, new)[-1]
            if w is None:
                return [(gained, last)]
            tail = [w * v for v in new]
            return [(gained, last + tail), (tables[-1], tail)]

        p = p or shard_modulus(form, len(old) + len(new), len(old))
        return _shards(coeffs, splits, p, not old and self._empty_at_zero)

    def extend(self, block: Sequence[int]) -> None:
        """Add the duplicate-free ``block``, disjoint from the set, to every
        table: the sums ``_gained`` counts, none reused from ``shards``."""
        old, new = self.elements, tuple(block)
        if not new:
            return
        for head, w, _, tables, last in self._tables.values():
            for table, sums in zip(tables, _gained(head, tables, old, new)):
                table.update(zip(sums, map(add, sums.values(), map(table.get, sums, repeat(0)))))
            if w is not None:
                last += [w * v for v in new]
        least, most = min(new), max(new)
        if old:
            least, most = min(least, self._least), max(most, self._most)
        self.elements, self._least, self._most = old + new, least, most
        coeffs = self.form.coefficients
        self.lo = sum(a * (least if a > 0 else most) for a in coeffs)
        self.hi = sum(a * (most if a > 0 else least) for a in coeffs)

    def count(self, n: int) -> int:
        """The number of classes at n; ConstructionBugError when the plan's
        sum is not a non-negative multiple of den."""
        total = sum(
            c * sum(map(tables[-1].get, map(n.__sub__, last), repeat(0)))
            for _, _, c, tables, last in self._tables.values()
        )
        if total < 0 or total % self._den:
            raise ConstructionBugError(
                f"plan of form {self.form.coefficients}: {total} at {n} is not a non-negative "
                f"multiple of {self._den}"
            )
        if n == 0 and self._empty_at_zero and self.elements:
            return total // self._den + 1
        return total // self._den


def count_at(
    form: LinearForm,
    ground_set: GroundSet,
    n: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> int:
    """Number of distinct classes representing n, from the prefix tables
    (``PrefixCount``), without a full count; same budget rule."""
    _check_budget(len(ground_set), form.arity, budget)
    return PrefixCount(form, ground_set.elements).count(n)
