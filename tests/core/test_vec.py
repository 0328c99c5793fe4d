"""Vec: construction, arithmetic, reductions, and algebraic laws."""

import operator

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.errors import DimensionError
from repro.core.vec import MAX_DIM, Vec, as_vec, vec1, vec2, vec3

dims = st.integers(min_value=1, max_value=4)
components = st.integers(min_value=-(10**6), max_value=10**6)


def vecs(dim=None):
    d = st.just(dim) if dim else dims
    return d.flatmap(
        lambda n: st.lists(components, min_size=n, max_size=n).map(
            lambda c: Vec(*c)
        )
    )


class TestConstruction:
    def test_from_components(self):
        assert Vec(1, 2, 3).as_tuple() == (1, 2, 3)

    def test_from_sequence(self):
        assert Vec((4, 5)) == Vec(4, 5)
        assert Vec.from_iterable(range(3)) == Vec(0, 1, 2)

    def test_all_zeros_ones(self):
        assert Vec.all(3, 7) == Vec(7, 7, 7)
        assert Vec.zeros(2) == Vec(0, 0)
        assert Vec.ones(2) == Vec(1, 1)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            Vec()

    def test_too_many_dims_rejected(self):
        with pytest.raises(DimensionError):
            Vec(*range(MAX_DIM + 1))
        with pytest.raises(DimensionError):
            Vec.all(MAX_DIM + 1, 0)

    def test_non_integer_rejected(self):
        with pytest.raises(DimensionError):
            Vec(1.5, 2)
        with pytest.raises(DimensionError):
            Vec("a")

    def test_numpy_ints_accepted(self):
        import numpy as np

        v = Vec(np.int64(3), np.int32(4))
        assert v == Vec(3, 4)
        assert all(isinstance(c, int) for c in v)

    def test_fixed_arity_constructors(self):
        assert vec1(5).dim == 1
        assert vec2(1, 2).dim == 2
        assert vec3(1, 2, 3).dim == 3
        with pytest.raises(DimensionError):
            vec2(1, 2, 3)

    def test_as_vec(self):
        assert as_vec(5) == Vec(5)
        assert as_vec(5, dim=3) == Vec(5, 5, 5)
        assert as_vec([1, 2]) == Vec(1, 2)
        assert as_vec(Vec(1, 2)) == Vec(1, 2)
        with pytest.raises(DimensionError):
            as_vec([1, 2], dim=3)


class TestArithmetic:
    def test_elementwise_ops(self):
        a, b = Vec(6, 8), Vec(2, 3)
        assert a + b == Vec(8, 11)
        assert a - b == Vec(4, 5)
        assert a * b == Vec(12, 24)
        assert a // b == Vec(3, 2)
        assert a % b == Vec(0, 2)

    def test_int_broadcast(self):
        assert Vec(1, 2) + 1 == Vec(2, 3)
        assert 2 * Vec(1, 2) == Vec(2, 4)
        assert 10 - Vec(1, 2) == Vec(9, 8)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            Vec(1, 2) + Vec(1, 2, 3)

    def test_ceil_div(self):
        assert Vec(10, 16).ceil_div(Vec(3, 4)) == Vec(4, 4)
        assert Vec(12).ceil_div(4) == Vec(3)
        assert Vec(1).ceil_div(100) == Vec(1)

    def test_min_max(self):
        assert Vec(1, 5).min(Vec(3, 2)) == Vec(1, 2)
        assert Vec(1, 5).max(3) == Vec(3, 5)

    @given(vecs(2), vecs(2))
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(vecs(3))
    def test_additive_identity(self, a):
        assert a + Vec.zeros(3) == a
        assert a * Vec.ones(3) == a

    @given(vecs(2), vecs(2), vecs(2))
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(vecs())
    def test_ceil_div_covers(self, a):
        """ceil_div(b) * b >= a componentwise, for positive a, b."""
        a = Vec(*(abs(c) + 1 for c in a))
        b = Vec.all(a.dim, 3)
        q = a.ceil_div(b)
        assert all(qq * 3 >= aa for qq, aa in zip(q, a))
        assert all((qq - 1) * 3 < aa for qq, aa in zip(q, a))


def _ceil_div(a, b):
    return -(-a // b)


# (name, Vec-side spelling, int-on-the-left spelling or None, scalar op,
# divides?).  The reference result is always built through the public,
# validating constructor.
BINARY_OPS = [
    ("add", operator.add, operator.add, operator.add, False),
    ("sub", operator.sub, operator.sub, operator.sub, False),
    ("mul", operator.mul, operator.mul, operator.mul, False),
    ("floordiv", operator.floordiv, None, operator.floordiv, True),
    ("mod", operator.mod, None, operator.mod, True),
    ("ceil_div", Vec.ceil_div, None, _ceil_div, True),
    ("min", Vec.min, None, min, False),
    ("max", Vec.max, None, max, False),
]
op_cases = st.sampled_from(BINARY_OPS)


def same_dim_pairs():
    return dims.flatmap(lambda n: st.tuples(vecs(n), vecs(n)))


class TestArithmeticMatchesConstructor:
    """The arithmetic fast path (results adopted without re-validation)
    must be indistinguishable from building the result component by
    component through ``Vec(...)``."""

    @given(op_cases, same_dim_pairs())
    def test_vec_vec(self, case, pair):
        _, vec_op, _, scalar, divides = case
        a, b = pair
        if divides:
            b = Vec(*(c or 1 for c in b))
        got = vec_op(a, b)
        assert type(got) is Vec
        assert got == Vec(*[scalar(x, y) for x, y in zip(a, b)])
        assert all(type(c) is int for c in got)

    @given(op_cases, vecs(), components)
    def test_vec_int(self, case, a, k):
        _, vec_op, _, scalar, divides = case
        if divides:
            k = k or 1
        got = vec_op(a, k)
        assert type(got) is Vec
        assert got == Vec(*[scalar(x, k) for x in a])

    @given(op_cases, vecs(), components)
    def test_int_vec(self, case, a, k):
        _, _, int_op, scalar, _ = case
        if int_op is None:
            return  # no reflected spelling (Vec defines no __rfloordiv__ ...)
        got = int_op(k, a)
        assert type(got) is Vec
        assert got == Vec(*[scalar(k, x) for x in a])

    @given(op_cases, vecs(), st.booleans())
    def test_bool_operand_is_an_int(self, case, a, flag):
        """``bool`` is an ``int`` subclass: it broadcasts like 0 / 1
        (through the validating route, as before)."""
        _, vec_op, int_op, scalar, divides = case
        if divides and not flag:
            with pytest.raises(ZeroDivisionError):
                vec_op(a, flag)
            return
        assert vec_op(a, flag) == Vec(*[scalar(x, int(flag)) for x in a])
        if int_op is not None:
            assert int_op(flag, a) == Vec(*[scalar(int(flag), x) for x in a])

    @given(op_cases, vecs(), st.integers(min_value=1, max_value=9))
    def test_numpy_integer_operand_rejected(self, case, a, k):
        _, vec_op, _, _, _ = case
        with pytest.raises(DimensionError):
            vec_op(a, np.int64(k))

    @given(op_cases, vecs(), st.floats(min_value=0.5, max_value=9.5))
    def test_float_operand_rejected(self, case, a, x):
        _, vec_op, int_op, _, _ = case
        with pytest.raises(DimensionError):
            vec_op(a, x)
        if int_op is not None:
            with pytest.raises(DimensionError):
                int_op(x, a)

    @given(op_cases, vecs(2), vecs(3))
    def test_dim_mismatch_rejected(self, case, a, b):
        _, vec_op, _, _, _ = case
        with pytest.raises(DimensionError):
            vec_op(a, b)
        with pytest.raises(DimensionError):
            vec_op(b, a)

    @given(vecs())
    def test_division_by_zero_propagates(self, a):
        for vec_op in (operator.floordiv, operator.mod, Vec.ceil_div):
            with pytest.raises(ZeroDivisionError):
                vec_op(a, 0)
            with pytest.raises(ZeroDivisionError):
                vec_op(a, Vec.zeros(a.dim))

    def test_tuple_operand_rejected(self):
        with pytest.raises(DimensionError):
            Vec(1, 2) + (1, 2)

    def test_results_are_ordinary_vecs(self):
        v = Vec(2, 3) * Vec(4, 5) + 1
        assert v == Vec(9, 16) and hash(v) == hash(Vec(9, 16))
        assert repr(v) == "Vec(9, 16)"
        assert v.prod() == 144 and v.with_component(0, 1) == Vec(1, 16)


class TestReductionsPredicates:
    def test_prod_sum(self):
        assert Vec(2, 3, 4).prod() == 24
        assert Vec(2, 3, 4).sum() == 9

    def test_elementwise_lt_le(self):
        assert Vec(1, 2).elementwise_lt(Vec(2, 3))
        assert not Vec(1, 3).elementwise_lt(Vec(2, 3))
        assert Vec(2, 3).elementwise_le(Vec(2, 3))

    def test_assertions(self):
        Vec(0, 1).assert_non_negative()
        with pytest.raises(DimensionError):
            Vec(-1, 1).assert_non_negative()
        Vec(1, 1).assert_positive()
        with pytest.raises(DimensionError):
            Vec(0, 1).assert_positive()


class TestShapeManipulation:
    def test_with_component(self):
        assert Vec(1, 2, 3).with_component(1, 9) == Vec(1, 9, 3)

    def test_prepend_drop(self):
        assert Vec(2, 3).prepend(1) == Vec(1, 2, 3)
        assert Vec(1, 2, 3).drop_first() == Vec(2, 3)
        with pytest.raises(DimensionError):
            Vec(1).drop_first()

    def test_reversed(self):
        assert Vec(1, 2, 3).reversed() == Vec(3, 2, 1)


class TestProtocol:
    def test_iteration_indexing(self):
        v = Vec(4, 5, 6)
        assert list(v) == [4, 5, 6]
        assert v[0] == 4 and v[-1] == 6
        assert len(v) == 3

    def test_hash_eq(self):
        assert hash(Vec(1, 2)) == hash(Vec(1, 2))
        assert Vec(1, 2) == (1, 2)
        assert Vec(1, 2) != Vec(2, 1)
        assert {Vec(1, 2): "a"}[Vec(1, 2)] == "a"

    def test_repr(self):
        assert repr(Vec(1, 2)) == "Vec(1, 2)"
