"""Unit and oracle tests for the partition-based driver (Section 3)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.driver import test_dependence
from repro.dirvec.direction import Direction
from repro.fortran.parser import parse_fragment
from repro.instrument import TestRecorder
from repro.ir.context import SymbolEnv
from repro.ir.loop import collect_access_sites

from tests.helpers import sites_of, write_read_pair
from tests.oracle import brute_force_vectors


@pytest.fixture(autouse=True, params=["reference"])
def reference_suite(request):
    """Tag every test here ``[reference]``: its verdicts come from the
    scalar reference tests, and the id keeps test names stable."""
    return request.param


LT, EQ, GT = Direction.LT, Direction.EQ, Direction.GT


def analyze(src, array="a", symbols=None, recorder=None):
    sites = [s for s in sites_of(src) if s.ref.array == array]
    return test_dependence(sites[0], sites[1], symbols, recorder), sites


class TestPaperExamples:
    def test_strong_siv_recurrence(self):
        result, sites = analyze("do i = 1, 100\n a(i+1) = a(i)\nenddo")
        # source = read a(i), sink = write a(i+1): write of i+1 reaches the
        # read one iteration later in the reversed orientation.
        assert not result.independent
        assert result.exact
        assert result.direction_vectors == frozenset({(GT,)})

    def test_stride_parity_independent(self):
        result, _ = analyze("do i = 1, 100\n a(2*i) = a(2*i+1)\nenddo")
        assert result.independent and result.exact

    def test_separable_multidim(self):
        src = "do i=1,9\n do j=1,9\n a(i, j) = a(i-1, j+1)\n enddo\nenddo"
        result, sites = analyze(src)
        truth = brute_force_vectors(sites[0], sites[1])
        assert truth == result.direction_vectors

    def test_coupled_group_goes_to_delta(self):
        recorder = TestRecorder()
        src = "do i=1,9\n a(i+1, i) = a(i, i)\nenddo"
        result, _ = analyze(src, recorder=recorder)
        assert recorder.applications["delta"] == 1
        assert result.independent

    def test_wavefront_distance_vectors(self):
        src = (
            "do i = 2, 20\n do j = 2, 20\n"
            "  a(i, j) = a(i-1, j) + a(i, j-1)\n enddo\nenddo"
        )
        sites = [s for s in sites_of(src) if s.ref.array == "a"]
        write = next(s for s in sites if s.is_write)
        read1 = sites[0]  # a(i-1, j)
        result = test_dependence(read1, write)
        assert result.info.distance_vector() in ((1, 0), (-1, 0))


class TestMergeBehaviour:
    def test_one_independent_dimension_kills_pair(self):
        # dim 1 dependent, dim 2 ZIV-independent
        src = "do i=1,9\n a(i, 1) = a(i, 2)\nenddo"
        result, _ = analyze(src)
        assert result.independent

    def test_rank_mismatch_conservative(self):
        src = "do i=1,9\n b(i) = a(i)\nenddo\ndo i=1,9\n a(i, 2) = b(i)\nenddo"
        sites = [s for s in sites_of(src) if s.ref.array == "a"]
        result = test_dependence(sites[0], sites[1])
        assert not result.independent
        assert not result.exact

    def test_different_arrays_raise(self):
        import pytest

        sites = sites_of("a(1) = b(1)")
        with pytest.raises(ValueError):
            test_dependence(sites[0], sites[1])

    def test_depth_zero_pair(self):
        # references outside any loop
        result_sites = analyze("a(1) = a(1)")
        result, _ = result_sites
        assert not result.independent
        assert result.direction_vectors == frozenset({()})

    def test_depth_zero_independent(self):
        result, _ = analyze("a(1) = a(2)")
        assert result.independent


class TestSymbolicDriver:
    def test_symbolic_bounds_conservative(self):
        result, _ = analyze("do i = 1, n\n a(i+1) = a(i)\nenddo")
        assert not result.independent

    def test_symbolic_offsets_cancel(self):
        result, _ = analyze("do i = 1, n\n a(i+m) = a(i+m)\nenddo")
        assert not result.independent
        assert result.info.distance_vector() == (0,)

    def test_symbolic_offset_difference(self):
        result, _ = analyze("do i = 1, 10\n a(i+m) = a(i+m+20)\nenddo")
        assert result.independent


class TestDriverOracle:
    """Random 2-D reference pairs: driver verdicts vs brute force."""

    @given(
        st.integers(-2, 2), st.integers(-4, 4),
        st.integers(-2, 2), st.integers(-4, 4),
        st.integers(-2, 2), st.integers(-4, 4),
        st.integers(-2, 2), st.integers(-4, 4),
    )
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    def test_driver_sound_and_exact(self, a1, c1, b1, d1, a2, c2, b2, d2):
        write_sub1 = f"{a1}*i + {b1}*j + {c1}"
        write_sub2 = f"{b2}*i + {a2}*j + {d2}"
        read_sub1 = f"{a2}*i + {b1}*j + {d1}"
        read_sub2 = f"{b1}*i + {a1}*j + {c2}"
        src = (
            "do i = 1, 5\n do j = 1, 5\n"
            f"  a({write_sub1}, {write_sub2}) = a({read_sub1}, {read_sub2})\n"
            " enddo\nenddo"
        )
        sites = [s for s in sites_of(src) if s.ref.array == "a"]
        result = test_dependence(sites[0], sites[1])
        truth = brute_force_vectors(sites[0], sites[1])
        if result.independent:
            assert not truth, src
        else:
            assert truth <= result.direction_vectors, src
            if result.exact:
                assert truth, src
