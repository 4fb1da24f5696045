"""Plain brute-force oracles, independent of the library's code paths.

Everything here recomputes results from first principles (nested loops,
bitmasks, exact rationals) so library outputs can be cross-checked against
a second route.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product


def ordered_solutions(coeffs, elements, n):
    """All ordered tuples over `elements` whose weighted sum is n."""
    out = []
    for tup in product(elements, repeat=len(coeffs)):
        if sum(a * x for a, x in zip(coeffs, tup)) == n:
            out.append(tup)
    return out


def class_key(coeffs, tup):
    """Value -> coefficient-sum map of a tuple, as a sorted pair tuple."""
    sums = {}
    for a, x in zip(coeffs, tup):
        sums[x] = sums.get(x, 0) + a
    return tuple(sorted((x, s) for x, s in sums.items() if s != 0))


def brute_counts(coeffs, elements):
    """n -> number of distinct value-map classes, by full enumeration."""
    per_n = {}
    for tup in product(elements, repeat=len(coeffs)):
        n = sum(a * x for a, x in zip(coeffs, tup))
        per_n.setdefault(n, set()).add(class_key(coeffs, tup))
    return {n: len(keys) for n, keys in per_n.items()}


def brute_delta(coeffs, base, block):
    """n -> number of classes the disjoint `block` adds to `base`, by
    two full enumerations."""
    before = brute_counts(coeffs, tuple(base))
    after = brute_counts(coeffs, (*base, *block))
    return {n: c - before.get(n, 0) for n, c in after.items() if c != before.get(n, 0)}


def subset_zero_sum(coeffs):
    """True iff some non-empty subset of positions sums to zero (bitmask)."""
    h = len(coeffs)
    for mask in range(1, 1 << h):
        total = 0
        for i in range(h):
            if mask >> i & 1:
                total += coeffs[i]
        if total == 0:
            return True
    return False


def subset_sums_collide(coeffs):
    """True iff two distinct position subsets have equal sums (bitmask)."""
    h = len(coeffs)
    sums = {}
    for mask in range(1 << h):
        total = 0
        for i in range(h):
            if mask >> i & 1:
                total += coeffs[i]
        if total in sums:
            return True
        sums[total] = mask
    return False


def rational_box_values(n, l, m, p):
    """Integers (a/b)*n + c over the box, via exact Fraction arithmetic."""
    out = set()
    for a in range(-l, l + 1):
        for b in range(-m, m + 1):
            if b == 0:
                continue
            for c in range(-p, p + 1):
                value = Fraction(a, b) * n + c
                if value.denominator == 1:
                    out.add(int(value))
    return out


def direct_pair_automorphism(coeffs):
    """Nested-loop search for a non-trivial substitution pair (tiny arity).

    Admits only pairs where chi's substituted variables are a subset of
    psi's (the same admissibility rule the library uses).  Returns
    (psi, chi) with entries in {None, 0..h-1}, or None; entirely separate
    from the library's factored search.
    """
    h = len(coeffs)
    options = [None] + list(range(h))

    def collected(mapping):
        buckets = [0] * h
        for i in range(h):
            if mapping[i] is not None:
                buckets[mapping[i]] += coeffs[i]
        return buckets

    for psi in product(options, repeat=h):
        cp = collected(psi)
        for chi in product(options, repeat=h):
            if all(t is None for t in chi):
                continue
            if any(p is None and c is not None for p, c in zip(psi, chi)):
                continue
            cc = collected(chi)
            if all(cp[j] - cc[j] == coeffs[j] for j in range(h)):
                return psi, chi
    return None


def target_overshoots(counts, target):
    """Sorted (n, count, allowed) for every count above target.value_at(n)."""
    out = []
    for n, c in counts.items():
        allowed = target.value_at(n)
        if c > allowed:
            out.append((n, c, allowed))
    return sorted(out)


def multiset_delta(coeff, arity, old, new):
    """n -> number of new classes of an equal-coefficient form when `new` joins `old`.

    A class is a value multiset; the new ones hold j >= 1 values of `new`.
    """
    counts = {}
    for j in range(1, arity + 1):
        old_sums = [sum(c) for c in combinations_with_replacement(old, arity - j)]
        for combo in combinations_with_replacement(new, j):
            s = sum(combo)
            for o in old_sums:
                n = coeff * (s + o)
                counts[n] = counts.get(n, 0) + 1
    return counts


def merged(counts, delta):
    """A copy of `counts` with every delta entry added."""
    out = dict(counts)
    for n, d in delta.items():
        out[n] = out.get(n, 0) + d
    return out


class DictCount:
    """Made-up verified counts in a plain dict, the count a
    ``builder_target.Tally`` asks for its old counts.  The tally's own
    source is the set's prefix tables; made-up counts come from no set, so
    ``extend`` takes the merged delta in place of a block, and a made-up
    delta is staged whole (``stage_made_up``).  ``lo`` and ``hi`` bound the
    support, as the extreme tuple sums do."""

    def __init__(self, counts):
        self.counts = dict(counts)

    @property
    def lo(self):
        return min(self.counts, default=0)

    @property
    def hi(self):
        return max(self.counts, default=-1)

    def count(self, n):
        return self.counts.get(n, 0)

    def extend(self, delta):
        self.counts = merged(self.counts, delta)


# every number the made-up counts and deltas of the tests use
WATCHED = range(-100, 101)


def stage_made_up(tally, delta, default=math.inf, values=None):
    """Stage the made-up ``delta`` on ``tally`` as one shard, against the
    bounds ``values.get(n, default)``.  Every number the tests use is
    watched, so the tally knows every staged count."""
    tally.stage([delta], default, values or {}, WATCHED)
    return tally


def spiral_least(numbers):
    """The member of `numbers` first in 0, 1, -1, 2, -2, ..., or None."""
    return min(numbers, key=lambda n: (abs(n), n < 0), default=None)


def unique_violation(counts, target, delta):
    """(kind, value) of the first reason counts + delta is not a unique
    representation step for `target`, or None; the value spiral-least."""
    doubled = spiral_least(n for n, d in delta.items() if counts.get(n, 0) + d > 1)
    if doubled is not None:
        return ("double-representation", doubled)
    if counts.get(target, 0) + delta.get(target, 0) != 1:
        return ("target-unrepresented", target)
    return None


def first_overshoot(counts, delta, default, values):
    """The spiral-least n with counts + delta above values.get(n, default), or None."""
    return spiral_least(
        n for n, d in delta.items() if counts.get(n, 0) + d > values.get(n, default)
    )


def scheduled_numbers(ordering, entry):
    """Numbers of the entries `ordering` yields before `entry`, by walking it."""
    numbers = set()
    for e in ordering:
        if e == entry:
            return numbers
        numbers.add(e[0])


def target_violation(target, frozen, counts, entry, delta, coeffs):
    """(kind, value) of the first reason counts + delta breaks a target
    step for entry (t, copy index) under the form `coeffs`, or None; the
    value is the spiral-least offender of its kind.  `frozen` holds the
    numbers scheduled before the entry; t may move, and so may -t when
    negating every coefficient gives the same multiset."""
    t, copy_index = entry
    moving = {t}
    if Counter(coeffs) == Counter(-a for a in coeffs):
        moving.add(-t)
    over = [n for n, d in delta.items() if counts.get(n, 0) + d > target.value_at(n)]
    for kind, offenders in [
        ("count-exceeds-target", over),
        ("zero-set-hit", delta.keys() & target.zero_set),
        ("frozen-count-changed", [n for n in delta if n not in moving and n in frozen]),
    ]:
        if offenders:
            return (kind, spiral_least(offenders))
    if counts.get(t, 0) + delta.get(t, 0) < copy_index + 1:
        return ("target-copy-missed", t)
    return None


def multiset_walk(target):
    """The fair multiset ordering, rescanning spiral(0) .. spiral(L-1) at
    every level L: (n, c) comes at level max(spiral position of n, c)."""
    level = 0
    while True:
        n = spiral(level)
        fv = target.value_at(n)
        cap = level + 1 if fv == math.inf else min(level + 1, int(fv))
        for c in range(cap):
            yield (n, c)
        for i in range(level):
            m = spiral(i)
            if target.value_at(m) > level:
                yield (m, level)
        level += 1


def spiral(index):
    """The integer at `index` in 0, 1, -1, 2, -2, ..."""
    return (index + 1) // 2 if index % 2 else -(index // 2)
