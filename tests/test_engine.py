"""Engine tests: canonical keys, the LRU cache, and builder parity.

The load-bearing property: the serial builder, the cached engine, and the
service's ``serve_build`` seam must produce byte-identical dependence
graphs and recorder statistics for any statement list.  Alongside it, the canonical key must be exactly as
coarse as the driver's observable inputs — sharing across alpha-renamed
twins, never across pairs that differ in bounds, symbols, or orientation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus.generator import random_nest
from repro.core.driver import test_dependence
from repro.corpus.loader import default_symbols, load_corpus
from repro.engine import CachedDriver, DependenceEngine, EngineStats
from repro.engine.canonical import canonical_pair_key, rename_map
from repro.fortran.parser import parse_fragment
from repro.graph.depgraph import build_dependence_graph, iter_candidate_pairs
from repro.instrument import TestRecorder
from repro.ir.context import SymbolEnv
from repro.ir.loop import collect_access_sites


def graph_signature(graph):
    """Everything observable about a graph's verdicts, as plain data."""
    edges = []
    for edge in graph.edges:
        edges.append(
            (
                edge.source.position,
                edge.sink.position,
                edge.dep_type.name,
                tuple(sorted(str(v) for v in edge.vectors)),
                edge.reversed_from_test,
                tuple(sorted(edge.carrier_loops())),
            )
        )
    edges.sort()
    return (graph.tested_pairs, graph.independent_pairs, tuple(edges))


def recorder_rows(recorder):
    return sorted(recorder.rows())


def result_signature(result):
    """Everything observable about one pair's verdict, as plain data."""
    return (
        result.independent,
        result.exact,
        sorted(str(v) for v in result.direction_vectors),
        [
            (o.test, o.applicable, o.independent, o.exact)
            for o in result.outcomes
        ],
    )


def key_of(source, symbols=None):
    """Canonical key of the first candidate pair of a fragment."""
    sites = collect_access_sites(parse_fragment(source))
    pairs = list(iter_candidate_pairs(sites))
    assert pairs, "fragment has no candidate pairs"
    driver = CachedDriver(symbols)
    _, _, key = driver.prepare(*pairs[0], symbols)
    return key


class TestCanonicalKey:
    def test_alpha_renamed_twins_share_a_key(self):
        a = key_of(
            """
      do i = 1, 100
        A(i+1) = A(i)
      end do
"""
        )
        b = key_of(
            """
      do k = 1, 100
        A(k+1) = A(k)
      end do
"""
        )
        assert a == b

    def test_different_array_names_share_a_key(self):
        # The array's name is not observable by any test; only the
        # subscript structure is.
        a = key_of("      do i = 1, 100\n        A(i+1) = A(i)\n      end do\n")
        b = key_of("      do i = 1, 100\n        B(i+1) = B(i)\n      end do\n")
        assert a == b

    def test_different_bounds_do_not_collide(self):
        a = key_of("      do i = 1, 9\n        A(i+1) = A(i)\n      end do\n")
        b = key_of("      do i = 1, 8\n        A(i+1) = A(i)\n      end do\n")
        assert a != b

    def test_different_offsets_do_not_collide(self):
        a = key_of("      do i = 1, 100\n        A(i+1) = A(i)\n      end do\n")
        b = key_of("      do i = 1, 100\n        A(i+2) = A(i)\n      end do\n")
        assert a != b

    def test_different_symbols_do_not_collide(self):
        # n and m keep their own names in the key, and their assumed
        # ranges ride along, so distinct assumptions never share entries.
        base = "      do i = 1, 100\n        A(i+{sym}) = A(i)\n      end do\n"
        env_n = SymbolEnv().assume("n", lo=1).assume("m", lo=5)
        a = key_of(base.format(sym="n"), env_n)
        b = key_of(base.format(sym="m"), env_n)
        assert a != b

    def test_same_symbol_different_assumptions_do_not_collide(self):
        src = "      do i = 1, 100\n        A(i+n) = A(i)\n      end do\n"
        a = key_of(src, SymbolEnv().assume("n", lo=1))
        b = key_of(src, SymbolEnv().assume("n", lo=2))
        assert a != b

    def test_swapped_orientation_does_not_collide(self):
        # A(i+1)=A(i) and A(i)=A(i+1) yield mirrored constant differences;
        # their direction vectors differ, so their keys must too.
        a = key_of("      do i = 1, 100\n        A(i+1) = A(i)\n      end do\n")
        b = key_of("      do i = 1, 100\n        A(i) = A(i+1)\n      end do\n")
        assert a != b

    def test_rename_map_is_injective(self):
        source = """
      do i = 1, 10
        do j = 1, 10
          A(i, j) = A(j, i) + B(i)
        end do
      end do
"""
        sites = collect_access_sites(parse_fragment(source))
        driver = CachedDriver()
        for pair in iter_candidate_pairs(sites):
            context, mapping, _ = driver.prepare(*pair)
            assert len(set(mapping.values())) == len(mapping)


class TestCachedDriver:
    SRC = """
      do i = 1, 100
        A(i+1) = A(i)
        B(i+1) = B(i)
        C(i+1) = C(i)
      end do
"""

    def test_structural_twins_hit(self):
        sites = collect_access_sites(parse_fragment(self.SRC))
        driver = CachedDriver()
        for first, second in iter_candidate_pairs(sites):
            driver(first, second)
        # Three arrays, identical shape: pairs after the first all hit.
        assert driver.stats.hits > 0
        assert driver.stats.misses < driver.stats.lookups

    def test_lru_eviction_at_capacity_two(self):
        fragments = [
            "      do i = 1, 100\n        A(i+1) = A(i)\n      end do\n",
            "      do i = 1, 100\n        A(i+2) = A(i)\n      end do\n",
            "      do i = 1, 100\n        A(i+3) = A(i)\n      end do\n",
        ]
        pairs = []
        for fragment in fragments:
            sites = collect_access_sites(parse_fragment(fragment))
            pairs.append(next(iter(iter_candidate_pairs(sites))))
        driver = CachedDriver(capacity=2)
        for first, second in pairs:
            driver(first, second)
        assert len(driver) == 2
        assert driver.stats.evictions == 1
        # The first entry (least recently used) was evicted: re-testing
        # pair 0 misses, re-testing pair 2 hits.
        misses = driver.stats.misses
        driver(*pairs[2])
        assert driver.stats.misses == misses
        driver(*pairs[0])
        assert driver.stats.misses == misses + 1

    def test_recorder_parity_on_hits(self):
        sites = collect_access_sites(parse_fragment(self.SRC))
        pairs = list(iter_candidate_pairs(sites))
        fresh = TestRecorder()
        for first, second in pairs:
            test_dependence(first, second, recorder=fresh)
        driver = CachedDriver()
        cached = TestRecorder()
        for first, second in pairs:
            driver(first, second, recorder=cached)
        assert recorder_rows(fresh) == recorder_rows(cached)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_eviction_parity_over_two_passes(self, seed):
        """Capacity 1 evicts almost every verdict, so the second pass
        re-tests pairs it tested before: both passes must match the
        plain driver, verdicts and recorder rows alike."""
        nodes = random_nest(seed, depth=2, statements=4, ndim=2)
        symbols = default_symbols()
        pairs = list(iter_candidate_pairs(collect_access_sites(nodes)))
        plain_rec = TestRecorder()
        plain = [
            result_signature(
                test_dependence(first, second, symbols=symbols, recorder=plain_rec)
            )
            for first, second in pairs
        ]
        driver = CachedDriver(symbols, capacity=1)
        for _ in range(2):
            recorder = TestRecorder()
            cached = [
                result_signature(driver(first, second, recorder=recorder))
                for first, second in pairs
            ]
            assert cached == plain
            assert recorder_rows(recorder) == recorder_rows(plain_rec)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            CachedDriver(capacity=0)


def build_three_ways(nodes, symbols):
    """(signature, recorder rows) for serial / cached / serve_build builds."""
    out = []
    serial_recorder = TestRecorder()
    serial = build_dependence_graph(
        nodes, symbols=symbols, recorder=serial_recorder
    )
    out.append((graph_signature(serial), recorder_rows(serial_recorder)))
    recorder = TestRecorder()
    graph = DependenceEngine(symbols=symbols).build_graph(
        nodes, recorder=recorder
    )
    out.append((graph_signature(graph), recorder_rows(recorder)))
    recorder = TestRecorder()
    graph = DependenceEngine(symbols=symbols).serve_build(
        nodes, recorder=recorder, stats=EngineStats()
    )
    out.append((graph_signature(graph), recorder_rows(recorder)))
    return out


class TestBuilderParity:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_nests_cached_parity(self, seed):
        """Property: cached verdicts are byte-identical to serial ones."""
        nodes = random_nest(seed, depth=2, statements=4, ndim=2)
        symbols = default_symbols()
        serial_recorder = TestRecorder()
        serial = build_dependence_graph(
            nodes, symbols=symbols, recorder=serial_recorder
        )
        engine = DependenceEngine(symbols=symbols)
        for _ in range(2):  # second build runs fully from cache
            recorder = TestRecorder()
            graph = engine.build_graph(nodes, recorder=recorder)
            assert graph_signature(graph) == graph_signature(serial)
            assert recorder_rows(recorder) == recorder_rows(serial_recorder)

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_random_nests_three_way_parity(self, seed):
        nodes = random_nest(seed, depth=3, statements=5, ndim=2)
        results = build_three_ways(nodes, default_symbols())
        assert results[0] == results[1] == results[2]

    def test_corpus_kernels_three_way_parity(self):
        symbols = default_symbols()
        corpus = load_corpus(["riceps"])
        for programs in corpus.values():
            for program in programs:
                for routine in program.routines:
                    results = build_three_ways(routine.body, symbols)
                    assert results[0] == results[1] == results[2], (
                        f"{program.name}/{routine.name} diverged"
                    )


class TestEngineStats:
    def test_shared_cache_accumulates_across_builds(self):
        nodes = random_nest(5, depth=2, statements=4, ndim=2)
        engine = DependenceEngine(symbols=default_symbols())
        engine.build_graph(nodes)
        first_misses = engine.stats.misses
        engine.build_graph(nodes)
        assert engine.stats.misses == first_misses  # all hits second time
        assert engine.stats.hit_rate > 0

    def test_merge_and_reset(self):
        a = EngineStats(hits=2, misses=1, evictions=1)
        b = EngineStats(hits=1, misses=1)
        b.merge(a)
        assert b.hits == 3 and b.misses == 2 and b.evictions == 1
        assert b.as_dict()["hit_rate"] == 0.6
        b.reset()
        assert b.lookups == 0 and b.hit_rate == 0.0


class TestProfiling:
    def test_profile_collects_phases(self):
        nodes = random_nest(7, depth=2, statements=4, ndim=2)
        engine = DependenceEngine(symbols=default_symbols(), profile=True)
        engine.build_graph(nodes)
        engine.build_graph(nodes)  # second pass exercises the hit path
        profile = engine.profile
        assert profile is not None
        phases = profile.as_dict()["phases"]
        assert "prepare" in phases and "test" in phases
        assert "rehydrate" in phases
        assert profile.total_seconds() > 0
        assert "profile" in engine.stats.as_dict()

    def test_profile_off_by_default(self):
        engine = DependenceEngine(symbols=default_symbols())
        assert engine.profile is None
