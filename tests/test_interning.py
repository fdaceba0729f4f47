"""Hash-consing property tests for :class:`LinearExpr`.

The interning pool must be semantically invisible: equality, hashing,
term ordering, and pickling behave exactly as an uninterned value type —
only identity (``is``) is strengthened.  The pickle tests matter most:
verdict-store entries are pickled to disk and come back through
``__reduce__``, which must re-intern rather than resurrect a private
(or worse, shared-singleton) instance.
"""

import pickle
from concurrent.futures import ProcessPoolExecutor

from hypothesis import given, settings, strategies as st

from repro.symbolic.linexpr import LinearExpr, cached_renamer

names = st.sampled_from(["i", "j", "k", "n", "i'"])
coeffs = st.integers(min_value=-5, max_value=5)
terms = st.dictionaries(names, coeffs, max_size=4)
consts = st.integers(min_value=-100, max_value=100)


class TestIdentity:
    def test_equal_construction_is_same_object(self):
        a = LinearExpr({"i": 2, "j": -1}, 7)
        b = LinearExpr({"j": -1, "i": 2}, 7)
        assert a is b

    def test_arithmetic_reaches_pooled_instances(self):
        a = LinearExpr.var("i") + 3
        b = LinearExpr({"i": 1}, 3)
        assert a is b

    def test_zero_is_the_singleton(self):
        assert LinearExpr({}, 0) is LinearExpr.ZERO
        assert LinearExpr.var("i") - LinearExpr.var("i") is LinearExpr.ZERO

    @given(terms, consts)
    @settings(max_examples=100, deadline=None)
    def test_construction_interns(self, term_map, const):
        assert LinearExpr(term_map, const) is LinearExpr(term_map, const)


class TestValueSemantics:
    @given(terms, consts, terms, consts)
    @settings(max_examples=100, deadline=None)
    def test_eq_and_hash_follow_value(self, t1, c1, t2, c2):
        a, b = LinearExpr(t1, c1), LinearExpr(t2, c2)
        clean1 = {n: c for n, c in t1.items() if c}
        clean2 = {n: c for n, c in t2.items() if c}
        assert (a == b) == (clean1 == clean2 and c1 == c2)
        if a == b:
            assert hash(a) == hash(b)

    @given(terms, consts)
    @settings(max_examples=100, deadline=None)
    def test_terms_stay_sorted(self, term_map, const):
        expr = LinearExpr(term_map, const)
        assert list(expr.terms) == sorted(expr.terms)
        for derived in (-expr, expr + 1, expr.scale(3), expr + LinearExpr.var("q")):
            assert list(derived.terms) == sorted(derived.terms)

    @given(terms, consts)
    @settings(max_examples=50, deadline=None)
    def test_rename_round_trip(self, term_map, const):
        expr = LinearExpr(term_map, const)
        forward = {"i": "%c0", "j": "%c1", "k": "%s2"}
        inverse = {v: k for k, v in forward.items()}
        renamer = cached_renamer(forward)
        back = cached_renamer(inverse)
        assert back(renamer(expr)) is expr

    def test_usable_as_dict_key(self):
        table = {LinearExpr({"i": 1}, 0): "a", LinearExpr({"i": 1}, 1): "b"}
        assert table[LinearExpr.var("i")] == "a"
        assert table[LinearExpr.var("i") + 1] == "b"


class TestPickle:
    @given(terms, consts)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_reinterns(self, term_map, const):
        expr = LinearExpr(term_map, const)
        clone = pickle.loads(pickle.dumps(expr))
        assert clone is expr

    def test_zero_round_trip_does_not_corrupt_singleton(self):
        blob = pickle.dumps(LinearExpr.ZERO)
        assert pickle.loads(blob) is LinearExpr.ZERO
        # The singleton must be untouched by the round trip.
        assert LinearExpr.ZERO.terms == ()
        assert LinearExpr.ZERO.const == 0

    def test_round_trip_across_process_pool(self):
        with ProcessPoolExecutor(max_workers=1) as pool:
            results = list(pool.map(_make_exprs, range(3)))
        for n, exprs in zip(range(3), results):
            for expr, expected in zip(exprs, _make_exprs(n)):
                # Worker-built values re-intern on arrival: identical to
                # (not merely equal to) locally built ones.
                assert expr is expected


def _make_exprs(n):
    base = LinearExpr({"i": n + 1, "j": -2}, n)
    return [base, base + 1, -base, base.scale(2), LinearExpr.ZERO]
