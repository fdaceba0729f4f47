"""Exact linear (affine) expressions over named variables.

A :class:`LinearExpr` is an immutable value ``sum(coeff[v] * v) + const``
with integer coefficients.  Variables are plain strings; whether a variable
is a loop index or a loop-invariant symbolic constant is decided by the
caller (the IR knows which names are indices).  This mirrors the paper's
setting: subscripts are linear in the loop indices with integer coefficients
and possibly *symbolic additive constants* (Section 4.5).

The class supports the operations needed by the dependence tests:

* ring arithmetic (``+``, ``-``, unary ``-``, multiplication — which raises
  :class:`NonlinearExpressionError` when both operands are non-constant),
* substitution of a variable by another expression (constraint propagation in
  the Delta test, and bound substitution in the index-range algorithm),
* queries: coefficient lookup, variable sets, constancy, and splitting into
  the index part and the invariant (symbolic + constant) part.

Instances are *hash-consed*: the public constructor and every arithmetic
operation return a pooled instance per distinct ``(terms, const)`` value, so
the structurally repetitive subscripts of a real corpus (the paper's whole
premise) share storage, equality gets an identity fast path, and
value-keyed memos (linearization, renaming) stay hot.  The pool is an
optimization only — equality and hashing remain value-based, so pickling
across process boundaries (which re-interns on load) and dict keying in the
Delta test behave exactly as an unpooled implementation would.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple, Union

from repro.memo import routine_memo

Number = int
ExprLike = Union["LinearExpr", int, str]


class NonlinearExpressionError(ValueError):
    """Raised when an operation would produce a nonlinear expression.

    The dependence tests in the paper only apply to affine subscripts; the
    front end catches this error to classify a subscript as *nonlinear*
    (those are counted in Table 1 of the paper but never tested).
    """


def _as_expr(value: ExprLike) -> "LinearExpr":
    if isinstance(value, LinearExpr):
        return value
    if isinstance(value, int):
        return LinearExpr.constant(value)
    if isinstance(value, str):
        return LinearExpr.var(value)
    raise TypeError(f"cannot interpret {value!r} as a linear expression")


#: The interning pool: ``(terms tuple, const) -> instance``.  Bounded and
#: cleared wholesale when full — after a clear, newly built values simply
#: stop being identical to old ones; nothing depends on identity for
#: correctness.
_POOL: Dict[Tuple[Tuple[Tuple[str, int], ...], int], "LinearExpr"] = {}
_POOL_LIMIT = 1 << 15


class LinearExpr:
    """An immutable affine form ``sum(a_v * v) + c`` with integer ``a_v, c``.

    Instances are hashable and compare by value, so they can be used as
    dictionary keys (the Delta test keys constraints by expressions) and in
    sets.  All arithmetic returns pooled (hash-consed) instances.
    """

    __slots__ = ("_terms", "_const", "_hash")

    def __new__(cls, terms: Mapping[str, int] = (), const: int = 0):
        # The public constructor validates and cleans its input; internal
        # hot paths go through :meth:`_from_sorted` / :meth:`_from_clean`
        # with already-normalized data.
        cleaned: Dict[str, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for name, coeff in items:
            if not isinstance(name, str):
                raise TypeError(f"variable name must be str, got {name!r}")
            if not isinstance(coeff, int):
                raise TypeError(f"coefficient must be int, got {coeff!r}")
            if coeff != 0:
                cleaned[name] = cleaned.get(name, 0) + coeff
                if cleaned[name] == 0:
                    del cleaned[name]
        if not isinstance(const, int):
            raise TypeError(f"constant must be int, got {const!r}")
        return cls._from_sorted(tuple(sorted(cleaned.items())), const)

    def __init__(self, terms: Mapping[str, int] = (), const: int = 0):
        # All construction work happens in __new__ (which may return a
        # pooled, fully initialized instance).
        pass

    @classmethod
    def _from_sorted(
        cls, terms: Tuple[Tuple[str, int], ...], const: int
    ) -> "LinearExpr":
        """Pooled instance for already-sorted, zero-free term tuples.

        This is the raw internal constructor the arithmetic fast paths use:
        no validation, no cleaning — callers guarantee ``terms`` is sorted
        by name and contains no zero coefficients.
        """
        key = (terms, const)
        self = _POOL.get(key)
        if self is None:
            if len(_POOL) >= _POOL_LIMIT:
                _POOL.clear()
            self = object.__new__(cls)
            self._terms = terms
            self._const = const
            self._hash = hash(key)
            _POOL[key] = self
        return self

    @classmethod
    def _from_clean(cls, terms: Dict[str, int], const: int) -> "LinearExpr":
        """Pooled instance for a zero-free (but unsorted) term dict."""
        return cls._from_sorted(tuple(sorted(terms.items())), const)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def constant(value: int) -> "LinearExpr":
        """The constant expression ``value``."""
        if not isinstance(value, int):
            raise TypeError(f"constant must be int, got {value!r}")
        return LinearExpr._from_sorted((), value)

    @staticmethod
    def var(name: str, coeff: int = 1) -> "LinearExpr":
        """The expression ``coeff * name``."""
        if not isinstance(name, str):
            raise TypeError(f"variable name must be str, got {name!r}")
        if not isinstance(coeff, int):
            raise TypeError(f"coefficient must be int, got {coeff!r}")
        if coeff == 0:
            return LinearExpr.ZERO
        return LinearExpr._from_sorted(((name, coeff),), 0)

    ZERO: "LinearExpr"
    ONE: "LinearExpr"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def const(self) -> int:
        """The additive integer constant."""
        return self._const

    @property
    def terms(self) -> Tuple[Tuple[str, int], ...]:
        """Sorted ``(variable, coefficient)`` pairs with nonzero coefficients."""
        return self._terms

    def coeff(self, name: str) -> int:
        """Coefficient of ``name`` (0 when absent)."""
        for var, coeff in self._terms:
            if var == name:
                return coeff
        return 0

    def variables(self) -> Set[str]:
        """The set of variables with nonzero coefficients."""
        return {name for name, _ in self._terms}

    def is_constant(self) -> bool:
        """True when the expression mentions no variables."""
        return not self._terms

    def constant_value(self) -> int:
        """The value of a constant expression.

        Raises :class:`ValueError` if the expression mentions variables.
        """
        if self._terms:
            raise ValueError(f"{self} is not a constant expression")
        return self._const

    def indices_in(self, indices: Iterable[str]) -> Set[str]:
        """Variables of this expression that belong to ``indices``."""
        wanted = set(indices)
        return {name for name, _ in self._terms if name in wanted}

    def split(self, indices: Iterable[str]) -> Tuple["LinearExpr", "LinearExpr"]:
        """Split into (index part, invariant part).

        The index part contains exactly the terms whose variable is in
        ``indices``; the invariant part carries the remaining symbolic terms
        and the constant.  Their sum equals ``self``.
        """
        wanted = set(indices)
        index_terms = tuple((n, c) for n, c in self._terms if n in wanted)
        other_terms = tuple((n, c) for n, c in self._terms if n not in wanted)
        return (
            LinearExpr._from_sorted(index_terms, 0),
            LinearExpr._from_sorted(other_terms, self._const),
        )

    def content(self) -> int:
        """GCD of the variable coefficients (0 for constant expressions)."""
        g = 0
        for _, coeff in self._terms:
            g = gcd(g, abs(coeff))
        return g

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other: ExprLike) -> "LinearExpr":
        if isinstance(other, int):
            if other == 0:
                return self
            return LinearExpr._from_sorted(self._terms, self._const + other)
        other = _as_expr(other)
        if not other._terms:
            if other._const == 0:
                return self
            return LinearExpr._from_sorted(self._terms, self._const + other._const)
        if not self._terms:
            return LinearExpr._from_sorted(other._terms, self._const + other._const)
        terms = dict(self._terms)
        for name, coeff in other._terms:
            merged = terms.get(name, 0) + coeff
            if merged:
                terms[name] = merged
            else:
                del terms[name]
        return LinearExpr._from_clean(terms, self._const + other._const)

    def __radd__(self, other: ExprLike) -> "LinearExpr":
        return self.__add__(other)

    def __sub__(self, other: ExprLike) -> "LinearExpr":
        if isinstance(other, int):
            if other == 0:
                return self
            return LinearExpr._from_sorted(self._terms, self._const - other)
        return self.__add__(_as_expr(other).__neg__())

    def __rsub__(self, other: ExprLike) -> "LinearExpr":
        return _as_expr(other).__sub__(self)

    def __neg__(self) -> "LinearExpr":
        # Negation preserves term order and creates no zeros.
        return LinearExpr._from_sorted(
            tuple((n, -c) for n, c in self._terms), -self._const
        )

    def __mul__(self, other: ExprLike) -> "LinearExpr":
        other = _as_expr(other)
        if not self._terms:
            return other.scale(self._const)
        if not other._terms:
            return self.scale(other._const)
        raise NonlinearExpressionError(
            f"product of non-constant expressions {self} * {other}"
        )

    def __rmul__(self, other: ExprLike) -> "LinearExpr":
        return self.__mul__(other)

    def scale(self, factor: int) -> "LinearExpr":
        """Multiply every coefficient and the constant by ``factor``."""
        if factor == 0:
            return LinearExpr.ZERO
        if factor == 1:
            return self
        return LinearExpr._from_sorted(
            tuple((n, c * factor) for n, c in self._terms), self._const * factor
        )

    def exact_div(self, divisor: int) -> "LinearExpr":
        """Divide by an integer that exactly divides every coefficient.

        Raises :class:`ValueError` when the division is not exact (callers
        use :meth:`content` to check divisibility first).
        """
        if divisor == 0:
            raise ZeroDivisionError("division of LinearExpr by zero")
        terms = []
        for name, coeff in self._terms:
            q, r = divmod(coeff, divisor)
            if r:
                raise ValueError(f"{divisor} does not divide {coeff}*{name} in {self}")
            terms.append((name, q))
        q, r = divmod(self._const, divisor)
        if r:
            raise ValueError(f"{divisor} does not divide constant {self._const}")
        return LinearExpr._from_sorted(tuple(terms), q)

    def substitute(self, name: str, replacement: ExprLike) -> "LinearExpr":
        """Replace every occurrence of ``name`` by ``replacement``."""
        coeff = self.coeff(name)
        if coeff == 0:
            return self
        base = LinearExpr._from_sorted(
            tuple((n, c) for n, c in self._terms if n != name), self._const
        )
        return base + _as_expr(replacement).scale(coeff)

    def substitute_all(self, mapping: Mapping[str, ExprLike]) -> "LinearExpr":
        """Simultaneously substitute several variables."""
        base_terms = tuple((n, c) for n, c in self._terms if n not in mapping)
        result = LinearExpr._from_sorted(base_terms, self._const)
        for name, replacement in mapping.items():
            coeff = self.coeff(name)
            if coeff:
                result = result + _as_expr(replacement).scale(coeff)
        return result

    def rename(self, mapping: Mapping[str, str]) -> "LinearExpr":
        """Rename variables (used to give the second reference primed indices)."""
        if not any(name in mapping for name, _ in self._terms):
            return self
        terms: Dict[str, int] = {}
        for name, coeff in self._terms:
            new = mapping.get(name, name)
            merged = terms.get(new, 0) + coeff
            if merged:
                terms[new] = merged
            elif new in terms:
                del terms[new]
        return LinearExpr._from_clean(terms, self._const)

    # ------------------------------------------------------------------
    # Comparisons / protocol
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, int):
            return not self._terms and self._const == other
        if isinstance(other, LinearExpr):
            return self._terms == other._terms and self._const == other._const
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms) or self._const != 0

    def __reduce__(self):
        # Explicit reduction keeps pickling compatible with hash-consing:
        # loading re-interns through the pool instead of materializing a
        # bare instance behind the constructor's back (the default slots
        # protocol would mutate whatever pooled instance __new__ returned
        # for the empty argument list — e.g. the shared ZERO).
        return (_restore, (self._terms, self._const))

    def __repr__(self) -> str:
        return f"LinearExpr({self})"

    def __str__(self) -> str:
        if not self._terms:
            return str(self._const)
        parts = []
        for name, coeff in self._terms:
            if coeff == 1:
                term = name
            elif coeff == -1:
                term = f"-{name}"
            else:
                term = f"{coeff}*{name}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        if self._const > 0:
            parts.append(f"+ {self._const}")
        elif self._const < 0:
            parts.append(f"- {-self._const}")
        return " ".join(parts)


def _restore(terms: Tuple[Tuple[str, int], ...], const: int) -> LinearExpr:
    """Unpickle hook: re-intern the value in this process's pool."""
    return LinearExpr._from_sorted(tuple(terms), const)


LinearExpr.ZERO = LinearExpr.constant(0)
LinearExpr.ONE = LinearExpr.constant(1)


def as_linear(value: ExprLike) -> LinearExpr:
    """Public coercion helper: int, str, or LinearExpr to LinearExpr."""
    return _as_expr(value)


# ---------------------------------------------------------------------------
# Cached renaming
# ---------------------------------------------------------------------------

#: ``(expr, sorted mapping items) -> renamed expr``.  Keys hash by value, so
#: the memo stays correct even across pool resets; it is bounded and cleared
#: wholesale like the pool.
_RENAME_MEMO: Dict[Tuple[LinearExpr, Tuple[Tuple[str, str], ...]], LinearExpr] = {}
_RENAME_MEMO_LIMIT = 1 << 15


class CachedRenamer:
    """A reusable, memoizing ``expr.rename(mapping)`` for one fixed mapping.

    The engine renames the same handful of expressions thousands of times
    (priming sink subscripts, canonicalizing, rehydrating); hash-consing
    makes ``(expr, mapping)`` a cheap memo key, turning repeat renames into
    one dict probe.  Build one with :func:`cached_renamer` and call it.
    """

    __slots__ = ("mapping", "_map_key")

    def __init__(self, mapping: Mapping[str, str]):
        self.mapping = mapping
        self._map_key = tuple(sorted(mapping.items()))

    def __call__(self, expr: LinearExpr) -> LinearExpr:
        key = (expr, self._map_key)
        result = _RENAME_MEMO.get(key)
        if result is None:
            if len(_RENAME_MEMO) >= _RENAME_MEMO_LIMIT:
                _RENAME_MEMO.clear()
            result = expr.rename(self.mapping)
            _RENAME_MEMO[key] = result
        return result


#: Renamer instances by mapping identity.  Callers that intern their rename
#: maps (the canonical-key machinery does) get the sorted map key for free
#: on repeat calls; the stored mapping reference keeps the id stable.  The
#: maps belong to one routine's loop stacks, so the memo lasts one graph
#: build (see :mod:`repro.memo`).
_RENAMER_MEMO: Dict[int, CachedRenamer] = routine_memo()


def cached_renamer(mapping: Mapping[str, str]) -> CachedRenamer:
    """A memoizing renamer for ``mapping`` (see :class:`CachedRenamer`)."""
    renamer = _RENAMER_MEMO.get(id(mapping))
    if renamer is None or renamer.mapping is not mapping:
        renamer = CachedRenamer(mapping)
        _RENAMER_MEMO[id(mapping)] = renamer
    return renamer
