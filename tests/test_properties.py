"""Cross-cutting property tests: the full driver against the oracle.

Random small loop nests with a realistic mix of subscript shapes are run
through the complete partition-based driver; every verdict is checked
against brute-force enumeration.  This is the strongest correctness
evidence in the suite: soundness must hold unconditionally, and exactness
whenever the driver claims it.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.subscript_by_subscript import (
    test_dependence_lambda,
    test_dependence_power,
    test_dependence_subscript_by_subscript,
)
from repro.core.driver import test_dependence
from repro.fortran.parser import parse_fragment
from repro.ir.loop import collect_access_sites

from tests.oracle import brute_force_vectors


@pytest.fixture(autouse=True, params=["reference"])
def reference_suite(request):
    """Tag every test here ``[reference]``: its verdicts come from the
    scalar reference tests, and the id keeps test names stable."""
    return request.param


subscript_atoms = st.sampled_from(
    ["i", "j", "i+1", "i-1", "j+1", "2*i", "2*i+1", "i+j", "i+j-1",
     "3", "1", "5-i", "11-i", "2*j", "i+2", "j-2"]
)


def nest_source(write_subs, read_subs):
    write = ", ".join(write_subs)
    read = ", ".join(read_subs)
    return (
        "do i = 1, 5\n do j = 1, 5\n"
        f"  a({write}) = a({read})\n"
        " enddo\nenddo"
    )


def a_sites(src):
    return [
        s
        for s in collect_access_sites(parse_fragment(src))
        if s.ref.array == "a"
    ]


TESTERS = (
    ("partition+delta", test_dependence),
    ("subscript-by-subscript", test_dependence_subscript_by_subscript),
    ("power", test_dependence_power),
    ("lambda", test_dependence_lambda),
)


class TestFullDriverOracle:
    @given(
        st.lists(subscript_atoms, min_size=1, max_size=2),
        st.lists(subscript_atoms, min_size=1, max_size=2),
    )
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    def test_all_drivers_sound(self, write_subs, read_subs):
        if len(write_subs) != len(read_subs):
            read_subs = (read_subs * 2)[: len(write_subs)]
        src = nest_source(write_subs, read_subs)
        sites = a_sites(src)
        truth = brute_force_vectors(sites[0], sites[1])
        for name, tester in TESTERS:
            result = tester(sites[0], sites[1])
            if result.independent:
                assert not truth, (name, src)
            else:
                assert truth <= result.direction_vectors, (name, src)

    @given(
        st.lists(subscript_atoms, min_size=1, max_size=2),
        st.lists(subscript_atoms, min_size=1, max_size=2),
    )
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    def test_main_driver_exactness(self, write_subs, read_subs):
        if len(write_subs) != len(read_subs):
            read_subs = (read_subs * 2)[: len(write_subs)]
        src = nest_source(write_subs, read_subs)
        sites = a_sites(src)
        result = test_dependence(sites[0], sites[1])
        truth = brute_force_vectors(sites[0], sites[1])
        if result.exact and not result.independent:
            assert truth, ("exact dependence must be real", src)

    @given(
        st.lists(subscript_atoms, min_size=1, max_size=2),
        st.lists(subscript_atoms, min_size=1, max_size=2),
    )
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    def test_delta_never_less_precise_than_sxs(self, write_subs, read_subs):
        """The partition+delta driver must prove independence whenever the
        subscript-by-subscript baseline does (it strictly refines it)."""
        if len(write_subs) != len(read_subs):
            read_subs = (read_subs * 2)[: len(write_subs)]
        src = nest_source(write_subs, read_subs)
        sites = a_sites(src)
        sxs = test_dependence_subscript_by_subscript(sites[0], sites[1])
        full = test_dependence(sites[0], sites[1])
        if sxs.independent:
            assert full.independent, src


class TestSelfPairs:
    @given(st.lists(subscript_atoms, min_size=1, max_size=2))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    def test_self_pair_always_dependent_on_eq(self, subs):
        """A reference paired with itself is trivially 'dependent' with at
        least the all-= vector (same iteration, same cell)."""
        src = nest_source(subs, subs)
        sites = a_sites(src)
        write = next(s for s in sites if s.is_write)
        result = test_dependence(write, write)
        truth = brute_force_vectors(write, write)
        assert not result.independent
        assert truth <= result.direction_vectors
