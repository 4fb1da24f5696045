"""A stateful model test of the step loop's running count.

``builder_target._grow`` drives a ``Tally`` over a ``repcount.PrefixCount``:
it stages a candidate block's classes, stages another block in its place
when the first is rejected, and merges the accepted one.  This machine
draws long random interleavings of those moves, with queries between them
and blocks counted on the prefix tables but never staged, and checks
every answer against ``oracles.brute_counts`` of the set.  It runs with
``_SHARD_TUPLES`` at 8, where most blocks are counted in several residue
shards, and at its default, where every block here takes one.
"""

import math
from unittest.mock import patch

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from linrep import LinearForm, repcount
from linrep.builder_target import Tally
from linrep.repcount import PrefixCount

from oracles import brute_counts, brute_delta

# mixed, zero-sum, repeated and equal coefficients
FORMS = ["1,2,-3", "1,-1", "2,-1", "1,1,-2", "2,2,-1,-1", "1,-1,1,-1", "1,1", "2,2,2"]
values = st.integers(-12, 12)
blocks = st.lists(values, min_size=1, max_size=3, unique=True)
numbers = st.integers(-90, 90)  # past every tuple sum of the sets here
near_zero = st.integers(-30, 30)  # where most of those sums lie


class RunningCount(RuleBasedStateMachine):
    shard_tuples = 8

    def __init__(self):
        super().__init__()
        self._shards = patch.object(repcount, "_SHARD_TUPLES", self.shard_tuples)
        self._shards.start()

    def teardown(self):
        self._shards.stop()

    # half the runs start from the empty set, where the empty class is new
    @initialize(
        form=st.sampled_from(FORMS),
        seed=st.one_of(st.just([]), st.lists(values, unique=True, min_size=1, max_size=4)),
    )
    def start(self, form, seed):
        form = LinearForm.parse(form)
        self.coeffs, self.elements = form.coefficients, seed
        self.counts = brute_counts(self.coeffs, seed)
        self.tally = Tally(PrefixCount(form, seed), len(self.counts))
        self.staged = None  # (block, union counts, watch) of the staged block
        # brute counts stay quick: at most 7^4 or 10^3 tuples
        self.cap = 7 if len(self.coeffs) == 4 else 10

    def fresh(self, block):
        block = [v for v in block if v not in self.elements]
        return block[: self.cap - len(self.elements)]

    def expected(self, n):
        """The count the tally must give at n: the staged union's where the
        tally knows it (inside [lo, hi] and at the watched numbers), else 0;
        the set's when nothing is staged."""
        if self.staged is None:
            return self.counts.get(n, 0)
        _, union, watch = self.staged
        source = self.tally.source
        return union.get(n, 0) if source.lo <= n <= source.hi or n in watch else 0

    @precondition(lambda self: len(self.elements) < self.cap)
    @rule(
        block=blocks,
        default=st.sampled_from([1, 2, 3, math.inf]),
        bounds=st.dictionaries(near_zero, st.sampled_from([0, 1, 2, 3, math.inf]), max_size=8),
        watch=st.lists(numbers, max_size=4),
    )
    def stage(self, block, default, bounds, watch):
        """Stage a block, in place of any staged one."""
        block = self.fresh(block)
        if not block:
            return
        replaced = self.staged
        self.tally.stage(self.tally.source.shards(block), default, bounds, watch)
        delta = brute_delta(self.coeffs, self.elements, block)
        union = {**self.counts, **{n: self.counts.get(n, 0) + d for n, d in delta.items()}}
        self.staged = block, union, set(watch)
        assert self.tally.over == {n for n in delta if union[n] > bounds.get(n, default)}
        assert self.tally.moved == {n: delta[n] for n in watch if n in delta}
        assert self.tally._added == len(delta.keys() - self.counts.keys())
        # nothing of a replaced block's classes is left
        touched = {*delta, *(replaced[1] if replaced else ())}
        assert {n: self.tally.count(n) for n in touched} == {n: self.expected(n) for n in touched}

    @precondition(lambda self: self.staged is not None)
    @rule(other=st.lists(values, max_size=3, unique=True))
    def merge(self, other):
        """Accept the staged block: the tally's count is the union's.  The
        tables may first count ``other``, a block the tally never stages."""
        block, union, _ = self.staged
        other = [v for v in self.fresh(other) if v not in block]
        if other:
            delta = {}
            for shard in self.tally.source.shards(other):
                delta.update(shard)
            assert delta == brute_delta(self.coeffs, self.elements, other)
        self.tally.merge(block)
        self.elements, self.counts, self.staged = self.elements + block, union, None
        source = self.tally.source
        assert self.tally.size == len(union)
        assert (source.lo, source.hi) == (min(union, default=0), max(union, default=-1))
        assert self.tally._known == {n: union.get(n, 0) for n in self.tally._known}
        assert {n: source.count(n) for n in union} == union

    @rule(n=numbers)
    def query(self, n):
        assert self.tally.count(n) == self.expected(n)
        assert self.tally.source.count(n) == self.counts.get(n, 0)


class RunningCountInOneShard(RunningCount):
    shard_tuples = repcount._SHARD_TUPLES


TestRunningCount = RunningCount.TestCase
TestRunningCount.settings = settings(max_examples=80, stateful_step_count=12, deadline=None)
TestRunningCountInOneShard = RunningCountInOneShard.TestCase
TestRunningCountInOneShard.settings = TestRunningCount.settings
