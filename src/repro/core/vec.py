"""N-dimensional extent/index vectors.

Alpaka models every level of its parallelism hierarchy as an
*n*-dimensional box, so nearly every API in the library passes around
small integer vectors: grid extents, block extents, thread indices,
buffer extents, pitches.  This module provides the Python analogue of
``alpaka::Vec<Dim, Size>``.

Conventions
-----------
* A :class:`Vec` is immutable and behaves like a tuple of Python ints.
* Index ``0`` is the **slowest varying** (outermost) dimension, matching
  numpy shape order.  Linearisation (:func:`repro.core.index.map_idx`)
  is therefore C-order, exactly like CUDA's
  ``(z * dimY + y) * dimX + x`` with reversed naming.
* Dimensionalities 1..4 get the aliases ``Dim1`` .. ``Dim4``; any
  positive dimensionality works.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Iterable, Iterator, Sequence, Union

from .errors import DimensionError

__all__ = [
    "Vec",
    "Dim1",
    "Dim2",
    "Dim3",
    "Dim4",
    "vec1",
    "vec2",
    "vec3",
]

#: Maximum dimensionality accepted by the library.  Alpaka is unlimited in
#: principle; we bound it to catch accidental misuse (e.g. passing a whole
#: data array where an extent was meant).
MAX_DIM = 16

Dim1 = 1
Dim2 = 2
Dim3 = 3
Dim4 = 4

_IntLike = Union[int, "Vec"]


class Vec:
    """An immutable n-dimensional vector of non-negative-ish integers.

    ``Vec`` supports elementwise arithmetic with other ``Vec`` of the
    same dimensionality and with plain ints (broadcast)::

        >>> Vec(2, 3) * Vec(4, 5)
        Vec(8, 15)
        >>> Vec(2, 3) + 1
        Vec(3, 4)

    Components may be any Python ints (negative values are allowed so
    that index arithmetic like ``idx - 1`` works at domain borders); use
    :meth:`assert_non_negative` where the API requires extents.
    """

    __slots__ = ("_c",)

    def __init__(self, *components: int):
        if len(components) == 1 and isinstance(components[0], (tuple, list)):
            components = tuple(components[0])
        if not components:
            raise DimensionError("Vec needs at least one component")
        if len(components) > MAX_DIM:
            raise DimensionError(
                f"Vec dimensionality {len(components)} exceeds MAX_DIM={MAX_DIM}"
            )
        try:
            self._c = tuple(operator.index(c) for c in components)
        except TypeError as exc:
            raise DimensionError(
                f"Vec components must be integers, got {components!r}"
            ) from exc

    # -- constructors -------------------------------------------------

    @classmethod
    def all(cls, dim: int, value: int) -> "Vec":
        """A vector of ``dim`` copies of ``value`` (alpaka ``Vec::all``)."""
        if dim < 1 or dim > MAX_DIM:
            raise DimensionError(f"dimensionality must be in [1, {MAX_DIM}], got {dim}")
        return cls(*([value] * dim))

    @classmethod
    def zeros(cls, dim: int) -> "Vec":
        return cls.all(dim, 0)

    @classmethod
    def ones(cls, dim: int) -> "Vec":
        return cls.all(dim, 1)

    @classmethod
    def from_iterable(cls, it: Iterable[int]) -> "Vec":
        return cls(*tuple(it))

    # -- basic protocol ------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimensionality of the vector."""
        return len(self._c)

    def __len__(self) -> int:
        return len(self._c)

    def __iter__(self) -> Iterator[int]:
        return iter(self._c)

    def __getitem__(self, i) -> int:
        return self._c[i]

    def __hash__(self) -> int:
        return hash(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, Vec):
            return self._c == other._c
        if isinstance(other, (tuple, list)):
            return self._c == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Vec({', '.join(map(str, self._c))})"

    def as_tuple(self) -> tuple:
        return self._c

    # -- elementwise arithmetic ---------------------------------------

    def _coerce(self, other: _IntLike) -> "Vec":
        if isinstance(other, Vec):
            if other.dim != self.dim:
                raise DimensionError(
                    f"dimensionality mismatch: {self.dim} vs {other.dim}"
                )
            return other
        if isinstance(other, int):
            return Vec.all(self.dim, other)
        raise DimensionError(f"cannot combine Vec with {type(other).__name__}")

    def _zip(
        self, other: _IntLike, op: Callable[[int, int], int], reflected: bool = False
    ) -> "Vec":
        """``op`` applied componentwise (``op(other, self)`` when
        ``reflected``).

        The components of a ``Vec`` are validated Python ints and the
        operators used here map ints to ints, so for an exact ``Vec`` or
        an exact ``int`` operand the result tuple is adopted as is: no
        ``operator.index`` per component, no ``MAX_DIM`` check, no
        broadcast temporary.  Anything else (``bool``, numpy integers,
        subclasses, non-integers) goes through :meth:`_coerce` and the
        validating constructor.
        """
        a = self._c
        make = _adopt
        t = type(other)
        if t is Vec:
            b = other._c
            if len(b) != len(a):
                raise DimensionError(
                    f"dimensionality mismatch: {len(a)} vs {len(b)}"
                )
        elif t is int:
            b = itertools.repeat(other)
        else:
            b = self._coerce(other)._c
            make = Vec
        if reflected:
            a, b = b, a
        return make(tuple(map(op, a, b)))

    def __add__(self, other):
        return self._zip(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def __rsub__(self, other):
        return self._zip(other, operator.sub, reflected=True)

    def __mul__(self, other):
        return self._zip(other, operator.mul)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        return self._zip(other, operator.floordiv)

    def __mod__(self, other):
        return self._zip(other, operator.mod)

    def ceil_div(self, other: _IntLike) -> "Vec":
        """Elementwise ceiling division — the work-division staple for
        computing how many blocks cover an extent."""
        return self._zip(other, _ceil_div)

    def min(self, other: _IntLike) -> "Vec":
        return self._zip(other, min)

    def max(self, other: _IntLike) -> "Vec":
        return self._zip(other, max)

    # -- reductions & predicates --------------------------------------

    def prod(self) -> int:
        """Product of all components, i.e. the element count of the box."""
        return math.prod(self._c)

    def sum(self) -> int:
        return sum(self._c)

    def all_components(self, pred: Callable[[int], bool]) -> bool:
        return all(pred(c) for c in self._c)

    def elementwise_lt(self, other: _IntLike) -> bool:
        """True when every component is strictly below ``other``'s.

        This is the in-bounds test a kernel performs before touching
        data, so it gets a named method instead of overloading ``<``
        (which would be ambiguous between lexicographic and elementwise
        semantics).
        """
        o = self._coerce(other)
        return all(a < b for a, b in zip(self._c, o._c))

    def elementwise_le(self, other: _IntLike) -> bool:
        o = self._coerce(other)
        return all(a <= b for a, b in zip(self._c, o._c))

    def assert_non_negative(self, what: str = "extent") -> "Vec":
        if any(c < 0 for c in self._c):
            raise DimensionError(f"{what} must be non-negative, got {self!r}")
        return self

    def assert_positive(self, what: str = "extent") -> "Vec":
        if any(c <= 0 for c in self._c):
            raise DimensionError(f"{what} must be positive, got {self!r}")
        return self

    # -- shape manipulation --------------------------------------------

    def with_component(self, i: int, value: int) -> "Vec":
        c = list(self._c)
        c[i] = operator.index(value)
        return Vec(*c)

    def prepend(self, value: int) -> "Vec":
        return Vec(value, *self._c)

    def drop_first(self) -> "Vec":
        if self.dim == 1:
            raise DimensionError("cannot drop the only component of a 1-d Vec")
        return Vec(*self._c[1:])

    def reversed(self) -> "Vec":
        return Vec(*reversed(self._c))


def _adopt(components: tuple) -> Vec:
    """A :class:`Vec` over ``components`` without re-validation — only
    for tuples built from the components of existing vectors."""
    v = Vec.__new__(Vec)
    v._c = components
    return v


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _vec_ctor(dim: int) -> Callable[..., Vec]:
    def ctor(*components: int) -> Vec:
        if len(components) != dim:
            raise DimensionError(f"expected {dim} components, got {len(components)}")
        return Vec(*components)

    ctor.__name__ = f"vec{dim}"
    ctor.__doc__ = f"Construct a {dim}-dimensional :class:`Vec`."
    return ctor


vec1 = _vec_ctor(1)
vec2 = _vec_ctor(2)
vec3 = _vec_ctor(3)


def as_vec(value: Union[int, Sequence[int], Vec], dim: int | None = None) -> Vec:
    """Coerce ``value`` to a :class:`Vec`.

    ``int`` becomes a 1-d vector unless ``dim`` is given, in which case
    it broadcasts to all components.  Sequences convert directly;
    a dimensionality mismatch with an explicit ``dim`` raises.
    """
    if isinstance(value, Vec):
        v = value
    elif isinstance(value, int):
        v = Vec.all(dim, value) if dim is not None else Vec(value)
    else:
        v = Vec.from_iterable(value)
    if dim is not None and v.dim != dim:
        raise DimensionError(f"expected dimensionality {dim}, got {v.dim}")
    return v
