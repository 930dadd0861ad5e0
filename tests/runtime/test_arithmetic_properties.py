"""Property tests for the interpreter's C++ arithmetic semantics."""

from hypothesis import assume, given, settings, strategies as st

from repro.runtime.values import _cxx_div, _cxx_mod

ints = st.integers(min_value=-10_000, max_value=10_000)


class TestCxxDivision:
    @given(a=ints, b=ints)
    @settings(max_examples=200, deadline=None)
    def test_division_identity(self, a, b):
        """C++ guarantees (a/b)*b + a%b == a."""
        assume(b != 0)
        assert _cxx_div(a, b) * b + _cxx_mod(a, b) == a

    @given(a=ints, b=ints)
    @settings(max_examples=200, deadline=None)
    def test_truncation_toward_zero(self, a, b):
        assume(b != 0)
        quotient = _cxx_div(a, b)
        exact = a / b
        assert abs(quotient) <= abs(exact) + 1e-9
        if exact >= 0:
            assert quotient == int(exact)
        else:
            assert quotient == -int(-a / b) if (a < 0) != (b < 0) else quotient

    @given(a=ints, b=ints)
    @settings(max_examples=200, deadline=None)
    def test_mod_sign_follows_dividend(self, a, b):
        assume(b != 0 and a % b != 0)
        remainder = _cxx_mod(a, b)
        if remainder != 0:
            assert (remainder > 0) == (a > 0)

    def test_known_values(self):
        assert _cxx_div(7, 2) == 3
        assert _cxx_div(-7, 2) == -3
        assert _cxx_div(7, -2) == -3
        assert _cxx_div(-7, -2) == 3
        assert _cxx_mod(-7, 2) == -1
        assert _cxx_mod(7, -2) == 1

    @given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_float_division_is_exact(self, a, b):
        assume(abs(b) > 1e-9)
        assert _cxx_div(a, b) == a / b

    @given(a=ints)
    @settings(max_examples=50, deadline=None)
    def test_bool_operands_coerce_like_cxx(self, a):
        assume(a != 0)
        assert _cxx_div(True, a) == _cxx_div(1, a)
        assert _cxx_mod(a, True) == 0
