"""Differential oracle over store-replayed verdicts.

A persistent verdict is only safe to replay if it is a pure function of
the canonical pair key — a store must never launder an unsound verdict
into a later process.  This suite drives a seeded random loop-nest
sample through a store-backed driver, reopens the store in a *fresh*
driver (cold memory tier, every verdict served from disk), and checks
both runs against brute-force enumeration: replayed independence claims
must be truly independent and replayed direction vectors must cover the
ground truth, exactly like freshly tested ones.
"""

import pytest

from repro.engine import CachedDriver, VerdictStore

from tests.oracle import random_pair_sample

SEED = 20260807


@pytest.fixture(scope="module")
def sample():
    pairs = random_pair_sample(SEED, nests=10, extent=4)
    assert len(pairs) > 30, "random sample lost its teeth"
    return pairs


def check_soundness(result, truth, label):
    if result.independent:
        assert not truth, label
    else:
        assert truth <= result.direction_vectors, label


def test_store_replayed_verdicts_match_oracle(tmp_path, sample):
    path = tmp_path / "oracle.db"

    fresh_results = []
    with VerdictStore(path) as store:
        driver = CachedDriver(store=store)
        for src, sink, truth in sample:
            result = driver(src, sink)
            check_soundness(result, truth, (str(src.ref), str(sink.ref)))
            fresh_results.append(result)
        written = driver.stats.store_writes
    assert written > 0

    # A fresh process image: new driver, cold memory tier, same store.
    with VerdictStore(path) as store:
        driver = CachedDriver(store=store)
        for (src, sink, truth), fresh in zip(sample, fresh_results):
            replayed = driver(src, sink)
            label = (str(src.ref), str(sink.ref))
            check_soundness(replayed, truth, label)
            assert replayed.independent == fresh.independent, label
            assert replayed.direction_vectors == fresh.direction_vectors, label
            assert replayed.exact == fresh.exact, label
        # Every verdict must have come off disk, none retested.
        assert driver.stats.misses == 0
        assert driver.stats.store_hits > 0
        assert driver.stats.store_writes == 0


def test_recovered_store_replays_soundly(tmp_path, sample):
    """Soundness survives tail-truncation recovery: the surviving prefix
    replays correctly and the dropped shapes are simply retested."""
    path = tmp_path / "oracle.db"
    with VerdictStore(path) as store:
        driver = CachedDriver(store=store)
        for src, sink, _ in sample:
            driver(src, sink)
    # Tear the segment's tail.
    with open(path / "store.seg", "ab") as handle:
        handle.write(b"\xde\xad\xbe\xef torn")
    with VerdictStore(path) as store:
        assert not store.recovered_report.clean
        driver = CachedDriver(store=store)
        for src, sink, truth in sample:
            result = driver(src, sink)
            check_soundness(result, truth, (str(src.ref), str(sink.ref)))
        assert driver.stats.store_hits > 0
