"""Tests for the symbolic hash-consing layer and the bounded derivation caches.

Covers the interning contract (canonical instances, identity preserved
through pickling round-trips, stat hooks) of
``Symbol``/``LinExpr``/``Polynomial``/``RatFunc``, and the LRU bounds that
keep the module-global branch-probability caches and the comparator's
Fourier–Motzkin entailment cache from growing without limit in long-running
services.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from repro.reachability.algebra import (
    DEFAULT_BRANCH_CACHE_LIMIT,
    branch_cache_stats,
    clear_branch_caches,
    set_branch_cache_limit,
)
from repro.symbolic import (
    Constraint,
    ConstraintSet,
    LinExpr,
    Polynomial,
    RatFunc,
    Symbol,
    SymbolicComparator,
    clear_intern_tables,
    frequency_symbol,
    intern_stats,
    set_intern_table_limit,
    time_symbol,
)

_DEFAULT_INTERN_LIMIT = LinExpr._intern_limit


@pytest.fixture(autouse=True)
def _fresh_tables():
    clear_intern_tables()
    set_intern_table_limit(_DEFAULT_INTERN_LIMIT)
    yield
    clear_intern_tables()
    set_intern_table_limit(_DEFAULT_INTERN_LIMIT)


class TestExpressionInterning:
    def test_interned_returns_one_canonical_instance(self):
        a, b = time_symbol("A"), time_symbol("B")
        first = (LinExpr.from_symbol(a) - LinExpr.from_symbol(b)).interned()
        second = (LinExpr.from_symbol(a) - LinExpr.from_symbol(b)).interned()
        assert first is second
        stats = intern_stats()["linexpr"]
        assert stats["hits"] >= 1 and stats["misses"] >= 1
        assert stats["size"] >= 1

    def test_polynomial_and_ratfunc_interning(self):
        f4, f5 = frequency_symbol("f4"), frequency_symbol("f5")
        poly = (Polynomial.from_symbol(f4) + Polynomial.from_symbol(f5)).interned()
        again = (Polynomial.from_symbol(f5) + Polynomial.from_symbol(f4)).interned()
        assert poly is again
        quotient = (RatFunc(Polynomial.from_symbol(f4)) / RatFunc(poly)).interned()
        same = (RatFunc(Polynomial.from_symbol(f4)) / RatFunc(poly)).interned()
        assert quotient is same
        # The canonical RatFunc references canonical polynomials.
        assert quotient.denominator is poly

    def test_interning_is_advisory_not_an_equality_oracle(self):
        a = time_symbol("A")
        interned = (LinExpr.from_symbol(a) * 2).interned()
        fresh = LinExpr.from_symbol(a) * 2
        assert fresh is not interned
        assert fresh == interned  # structural equality unaffected

    def test_pickle_round_trip_preserves_identity(self):
        a, b = time_symbol("A"), time_symbol("B")
        expr = (LinExpr.from_symbol(a) - LinExpr.from_symbol(b) + 3).interned()
        clone = pickle.loads(pickle.dumps(expr))
        assert clone is expr
        # Even a non-canonical instance lands on the canonical one.
        fresh = LinExpr.from_symbol(a) - LinExpr.from_symbol(b) + 3
        assert pickle.loads(pickle.dumps(fresh)) is expr

    def test_pickle_round_trip_ratfunc_identity(self):
        f4, f5 = frequency_symbol("f4"), frequency_symbol("f5")
        quotient = (
            RatFunc(Polynomial.from_symbol(f4))
            / RatFunc(Polynomial.from_symbol(f4) + Polynomial.from_symbol(f5))
        ).interned()
        assert pickle.loads(pickle.dumps(quotient)) is quotient

    def test_symbol_identity_survives_pickling(self):
        symbol = time_symbol("E_t3")
        assert pickle.loads(pickle.dumps(symbol)) is symbol
        stats = intern_stats()["symbol"]
        assert stats["size"] >= 1

    def test_clear_preserves_symbol_table(self):
        symbol = time_symbol("KeepMe")
        (LinExpr.from_symbol(symbol)).interned()
        clear_intern_tables()
        assert intern_stats()["linexpr"]["size"] == 0
        # Symbol interning is a library-wide identity invariant; clearing the
        # expression tables must not break it.
        assert Symbol("KeepMe", "time") is symbol

    def test_stat_hook_shape(self):
        stats = intern_stats()
        for table in ("symbol", "linexpr", "polynomial", "ratfunc"):
            for field in ("size", "hits", "misses", "hit_rate"):
                assert field in stats[table]
        for table in ("linexpr", "polynomial", "ratfunc"):
            assert stats[table]["max_size"] > 0
            assert stats[table]["evictions"] == 0

    def test_intern_tables_are_lru_bounded(self):
        # The entailment path interns automatically, so the tables themselves
        # must be bounded for the comparator's LRU cap to bound memory at all.
        set_intern_table_limit(3)
        a = time_symbol("A")
        for offset in range(10):
            (LinExpr.from_symbol(a) + offset).interned()
        stats = intern_stats()["linexpr"]
        assert stats["size"] <= 3
        assert stats["evictions"] >= 7

    def test_evicted_canonical_stays_valid(self):
        set_intern_table_limit(1)
        a, b = time_symbol("A"), time_symbol("B")
        first = LinExpr.from_symbol(a).interned()
        LinExpr.from_symbol(b).interned()  # evicts `first` from the table
        # The evicted instance keeps answering for itself...
        assert first.interned() is first
        # ... while fresh equal expressions elect a new canonical; equality
        # is unaffected either way (interning is advisory).
        fresh = LinExpr.from_symbol(a).interned()
        assert fresh == first

    def test_invalid_intern_limit_rejected(self):
        with pytest.raises(ValueError, match="intern table limit"):
            set_intern_table_limit(0)


class TestEntailmentCacheLRU:
    def _constraints(self):
        a, b = time_symbol("A"), time_symbol("B")
        return ConstraintSet([Constraint.greater(a, b, label="1")])

    def test_hits_and_misses_counted(self):
        comparator = SymbolicComparator(self._constraints())
        a, b = time_symbol("A"), time_symbol("B")
        assert comparator.strictly_less(b, a)[0]
        assert comparator.strictly_less(b, a)[0]
        stats = comparator.cache_stats()
        assert stats["hits"] >= 1
        assert stats["misses"] >= 1
        assert stats["evictions"] == 0
        assert stats["max_size"] > 0

    def test_cap_evicts_least_recently_used(self):
        comparator = SymbolicComparator(self._constraints(), cache_limit=2)
        a = time_symbol("A")
        for offset in range(5):
            comparator.is_nonnegative(LinExpr.from_symbol(a) + offset)
        stats = comparator.cache_stats()
        assert stats["size"] <= 2
        assert stats["evictions"] >= 3

    def test_eviction_only_costs_recomputation(self):
        bounded = SymbolicComparator(self._constraints(), cache_limit=1)
        unbounded = SymbolicComparator(self._constraints())
        a, b = time_symbol("A"), time_symbol("B")
        queries = [(b, a), (LinExpr.zero(), a), (b, a)]  # revisit an evicted key
        for left, right in queries:
            assert bounded.strictly_less(left, right) == unbounded.strictly_less(left, right)
        assert bounded.cache_stats()["evictions"] >= 1

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError, match="cache_limit"):
            SymbolicComparator(self._constraints(), cache_limit=0)


class TestBranchCacheLRU:
    def setup_method(self):
        clear_branch_caches()
        set_branch_cache_limit(DEFAULT_BRANCH_CACHE_LIMIT)

    def teardown_method(self):
        clear_branch_caches()
        set_branch_cache_limit(DEFAULT_BRANCH_CACHE_LIMIT)

    def test_stats_report_bound_and_evictions(self):
        stats = branch_cache_stats()
        for flavour in ("numeric", "symbolic"):
            assert stats[flavour]["max_size"] == DEFAULT_BRANCH_CACHE_LIMIT
            assert stats[flavour]["evictions"] == 0

    def test_lru_cap_enforced_on_numeric_cache(self):
        from repro.petri.builder import NetBuilder
        from repro.reachability import timed_reachability_graph

        set_branch_cache_limit(2)

        def decision_net(weight: int):
            builder = NetBuilder(f"decision-{weight}")
            builder.place("p", "choice pending", tokens=1)
            builder.transition("left", inputs=["p"], outputs=[], firing_time=1, frequency=weight)
            builder.transition("right", inputs=["p"], outputs=[], firing_time=1, frequency=1)
            return builder.build()

        for weight in range(2, 8):  # six distinct frequency tuples, cap of two
            timed_reachability_graph(decision_net(weight))
        stats = branch_cache_stats()["numeric"]
        assert stats["size"] <= 2
        assert stats["evictions"] >= 4

    def test_shrinking_limit_evicts_immediately(self):
        from repro.protocols import sliding_window_net
        from repro.reachability import timed_reachability_graph

        timed_reachability_graph(sliding_window_net(2, loss_probability=Fraction(1, 10)))
        before = branch_cache_stats()["numeric"]
        assert before["size"] >= 1
        set_branch_cache_limit(1)
        after = branch_cache_stats()["numeric"]
        assert after["size"] <= 1
        assert after["evictions"] >= before["size"] - 1

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError, match="cache limit"):
            set_branch_cache_limit(0)


class TestBranchProbabilityCache:
    """The cross-construction cache keyed on conflict-set frequency tuples."""

    def setup_method(self):
        clear_branch_caches()

    def teardown_method(self):
        clear_branch_caches()

    def test_repeated_numeric_builds_hit_the_cache(self):
        from repro.protocols import sliding_window_net
        from repro.reachability import timed_reachability_graph

        build = lambda: timed_reachability_graph(
            sliding_window_net(2, loss_probability=Fraction(1, 10))
        )
        first = build()
        after_first = branch_cache_stats()["numeric"]
        second = build()
        after_second = branch_cache_stats()["numeric"]
        # The window slots share frequency tuples, so even the first build
        # hits; the second build derives nothing new.
        assert after_second["size"] == after_first["size"]
        assert after_second["hits"] > after_first["hits"]
        # Sharing the derivation must not change the graph.
        assert [e.probability for e in second.edges] == [e.probability for e in first.edges]

    def test_repeated_symbolic_builds_share_ratfunc_quotients(self):
        from repro.protocols import simple_protocol_symbolic
        from repro.reachability import symbolic_timed_reachability_graph

        net, constraints, _symbols = simple_protocol_symbolic()
        first = symbolic_timed_reachability_graph(net, constraints)
        after_first = branch_cache_stats()["symbolic"]
        assert after_first["size"] > 0
        net2, constraints2, _symbols2 = simple_protocol_symbolic()
        second = symbolic_timed_reachability_graph(net2, constraints2)
        after_second = branch_cache_stats()["symbolic"]
        assert after_second["size"] == after_first["size"]
        assert after_second["hits"] > after_first["hits"]
        assert [e.probability for e in second.edges] == [e.probability for e in first.edges]

    def test_clear_resets_counters(self):
        from repro.protocols import sliding_window_net
        from repro.reachability import timed_reachability_graph

        timed_reachability_graph(sliding_window_net(2, loss_probability=Fraction(1, 10)))
        clear_branch_caches()
        stats = branch_cache_stats()
        for flavour in ("numeric", "symbolic"):
            assert stats[flavour]["size"] == 0
            assert stats[flavour]["hits"] == 0
            assert stats[flavour]["misses"] == 0
