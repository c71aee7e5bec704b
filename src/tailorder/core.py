"""Copula objects, their tail dependence functions, axiomatic validity audits, and structural combinators.

A copula is represented by an immutable :class:`Copula` carrying its
dimension, a vectorized formula, a JSON-able descriptor, and its lower
tail dependence function Lambda(w) = lim C(s*w)/s as a :class:`TailDepFunction`,
set like the accuracy pair below, or None where no closed form is known and
Lambda can only be estimated (see ``taildep``).  The builder picks how a
copula evaluates: :class:`Copula` itself keeps the boundary axioms
(groundedness and uniform margins) exact at coordinates that are exactly 0
or 1 around the raw formula it is built from, as every family's is, while
:func:`copula_from_callable` takes a function verbatim so that it can be
audited honestly by :func:`validate_copula`.  Every batch reaches a
formula through ``cdf``, which each part of a combinator is evaluated by
too, or a :class:`DecomposedBatch`: :func:`_prepared` checks it, clips it
and splits it by the boundary rule, and :meth:`Copula._evaluate` evaluates
it.  Every validity audit, here and in ``families`` and ``taildep``, builds
its checks with one rule, :meth:`CheckResult.worst_of`.

Every evaluator, here and in ``families`` and ``taildep``, carries an
``accuracy`` pair (rel, abs): a computed value v of a true value x has
|v - x| <= rel * |x| + abs at the points the orders sample.  A third entry
may name a region of :data:`REGIONS`, the only points where abs counts.  The
builder of a formula sets its pair, combinators derive theirs from their
parts', and a bare function gets :data:`CUSTOM`.  ``tests/test_accuracy.py``
measures the pairs; the orders set every threshold from them.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BOUNDARY_TOL",
    "VOLUME_TOL",
    "ULP",
    "EXACT",
    "PRODUCT",
    "LOWER_BOUND",
    "CUSTOM",
    "REGIONS",
    "abs_at",
    "CopulaError",
    "DimensionError",
    "DomainError",
    "MAX_POINTS",
    "check_points",
    "Field",
    "Record",
    "GridConfig",
    "CheckResult",
    "ValidityReport",
    "TailDepFunction",
    "zero_tdf",
    "min_tdf",
    "Copula",
    "DecomposedBatch",
    "copula_from_callable",
    "independence",
    "comonotone",
    "countermonotone",
    "h_volume",
    "validate_copula",
    "glue",
    "survival",
]

# Coordinates within BOUNDARY_TOL of {0, 1} are clamped; beyond it they are
# rejected.  All theorems here concern behaviour near 0, so the clamp is tight.
BOUNDARY_TOL = 1e-12

# H-volumes of a true copula may round to tiny negatives; anything below
# -VOLUME_TOL counts as a d-increasingness violation.
VOLUME_TOL = 1e-9

ULP = 2.0**-52  # ulp(1)
# accuracy pairs (rel, abs) shared by several builders
EXACT = (0.0, 0.0)
PRODUCT = (5e-16, 0.0)  # a product of d <= 4 coordinates
LOWER_BOUND = (0.0, ULP)  # max(u + v - 1, 0)
CUSTOM = (1e-12, 0.0)  # an evaluator built from a bare function, which no builder measured
# the most points any one sample may hold: a grid, a simplex grid, a local sample, or a schedule's rays
MAX_POINTS = 10**6
_INV_E = float(np.exp(-1.0))
# rows a formula sees at once (see Copula._evaluate): at d = 2 a block's temporaries stay under 200 KB, in cache and on
# pages the heap already holds; a multiple of every formula's internal block (families._NORMAL_BLOCK, _BERTINO_BLOCK)
_ROW_BLOCK = 8192
# where an abs term counts, when not everywhere: a predicate on the sampled points, named by a pair's third entry;
# the one region is Bertino's cancelling branch, which a power diagonal reaches only there: t - t^p increases on
# [0, 1/e]
REGIONS = {"max(u) > 1/e": lambda p: _row_reduce(np.maximum, p) > _INV_E}


def abs_at(pair: tuple, points):
    """A pair's abs term at each of the points: everywhere, or on the region its third entry names."""
    return pair[1] * REGIONS[pair[2]](points) if len(pair) > 2 else pair[1]


class CopulaError(Exception):
    """Base error for copula construction and evaluation."""


class DimensionError(CopulaError):
    """Operands have incompatible dimensions."""


class DomainError(CopulaError, ValueError):
    """A coordinate or parameter lies outside its admissible domain."""


def check_points(n: int, what: str):
    """Raise DomainError when a sample of ``n`` points exceeds ``MAX_POINTS``; called before it is built."""
    if n > MAX_POINTS:
        raise DomainError(f"{what} too large: {n} points, more than {MAX_POINTS}")


class Field:
    """A :class:`Record` field's default where a class attribute cannot be one: ``factory`` builds a fresh
    default for each record, and ``compared=False`` leaves the field out of ``==``, ``hash()`` and ``repr``."""

    __slots__ = ("default", "factory", "compared")

    def __init__(self, default=None, *, factory: Callable | None = None, compared: bool = True):
        self.default, self.factory, self.compared = default, factory, compared


class Record:
    """Immutable record over the annotated fields of a subclass, in the order they are declared.

    A subclass is built from its fields, positionally or by keyword; a field's
    class attribute, or its :class:`Field`, is its default.  ``__post_init__``,
    where a subclass defines it, runs last and validates.  Assigning or
    deleting an attribute raises AttributeError.  Records of one class are
    equal when their compared fields are, hash as the tuple of those fields,
    and show them as ``Name(field=value, ...)``.  Nothing is compiled: each
    subclass's fields are read once, when it is defined.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        marked = {name: cls.__dict__[name] for name in names if isinstance(cls.__dict__.get(name), Field)}
        for name, marker in marked.items():
            if marker.factory is None:
                setattr(cls, name, marker.default)
            else:
                delattr(cls, name)
        cls._compared_fields = tuple(name for name in names if name not in marked or marked[name].compared)
        # everything __init__ reads, in one class attribute: the fields, the fields a keyword may name after k
        # positional arguments, the defaults a class attribute holds, the (field, factory) pairs, __post_init__
        cls._record = (names, tuple(frozenset(names[k:]) for k in range(len(names) + 1)),
                       {name: cls.__dict__[name] for name in names if name in cls.__dict__},
                       tuple((name, marker.factory) for name, marker in marked.items() if marker.factory is not None),
                       getattr(cls, "__post_init__", None))

    def __init__(self, *args, **kwargs):
        # defaults first, then what the caller gave, as dict updates with no loop over the fields
        names, free, defaults, factories, post_init = self._record
        if len(args) > len(names) or kwargs and not free[len(args)].issuperset(kwargs):
            raise TypeError(f"{type(self).__name__}() takes the fields {list(names)}, got {len(args)} positional "
                            f"and {sorted(kwargs)}")
        values = self.__dict__
        if defaults:
            values.update(defaults)
        for name, factory in factories:
            values[name] = factory()
        values.update(zip(names, args))
        if kwargs:
            values.update(kwargs)
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__}() missing fields {[n for n in names if n not in values]}")
        if post_init is not None:
            post_init(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _compared(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._compared_fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared() == other._compared()
        return NotImplemented

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self):
        shown = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._compared_fields)
        return f"{type(self).__qualname__}({shown})"


class GridConfig(Record):
    """Grid settings shared by audits and order checkers.

    resolution
        Subdivisions per axis; audits evaluate on ``resolution + 1`` points
        including both endpoints.
    """

    resolution: int = 64

    def __post_init__(self):
        if self.resolution < 2:
            raise DomainError(f"grid resolution must be >= 2, got {self.resolution}")


class CheckResult(Record):
    """Outcome of a single named audit check, built by :meth:`worst_of`.

    The audit rule: a check scans ``excess[i]``, how far point
    ``witnesses[i]`` violates the property.  With i the first argmax, the
    check passes when ``excess[i] <= tol``, ``worst`` is max(0, excess[i])
    and ``witness`` is ``witnesses[i]``.  A NaN excess is the argmax and
    fails the check with worst NaN.
    """

    name: str
    passed: bool
    worst: float
    witness: tuple | None = None

    @classmethod
    def worst_of(cls, name: str, excess, tol: float, witnesses) -> "CheckResult":
        excess = np.asarray(excess, dtype=float).reshape(-1)
        i = int(np.argmax(excess))
        top = float(excess[i])
        return cls(name, top <= tol, float(np.maximum(top, 0.0)), tuple(map(float, witnesses[i])))


class ValidityReport(Record):
    """Bundle of named audit checks with worst violations and witnesses."""

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def require(self, what: str):
        """Raise DomainError naming the failed checks unless every check passed."""
        if not self.passed:
            raise DomainError(f"{what}: failed {[c.name for c in self.checks if not c.passed]}")

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "worst": c.worst,
                    "witness": None if c.witness is None else list(c.witness),
                }
                for c in self.checks
            ],
        }


class TailDepFunction(Record):
    """Positively homogeneous tail dependence function on [0, inf)^d.

    ``fn`` maps an (n, d) array of nonnegative directions to (n,) values;
    a numerical estimate is named ``"estimated"``.  ``breakpoints`` lists
    the known kinks t of the unit-simplex section t -> Lambda(t, 1-t)
    (d = 2 only), where the quadrature functional splits its panels.
    ``accuracy`` is the evaluator's accuracy pair (see the module docstring).
    ``fn`` must not write into its input: the order checks and quadratures
    build their grids once and pass them read-only, so numpy raises an
    error where a write would have corrupted later verdicts.
    """

    fn: Callable
    dimension: int
    name: str = "custom"
    params: dict = Field(factory=dict)
    breakpoints: tuple[float, ...] = ()
    accuracy: tuple = CUSTOM

    def __call__(self, w):
        arr = np.asarray(w, dtype=float)
        scalar = arr.ndim == 1
        if arr.shape[-1:] != (self.dimension,):
            raise DimensionError(f"directions have shape {arr.shape}, expected {self.dimension} coordinates")
        pts = np.atleast_2d(arr).reshape(-1, self.dimension)
        if (pts < 0).any():
            raise DomainError("directions must be nonnegative")
        vals = np.asarray(self.fn(pts), dtype=float)
        if scalar:
            return float(vals[0])
        return vals.reshape(arr.shape[:-1])


class Copula:
    """A d-dimensional copula evaluated from a vectorized formula.

    Every builder constructs its copula from a raw CDF formula with this
    class, which keeps the boundary axioms exact around the formula.

    Parameters
    ----------
    dimension : int
        Number of coordinates, at least 2.
    evaluator : callable
        The raw formula: maps an ``(n, d)`` float array with entries in
        [0, 1] to an ``(n,)`` array of copula values.  It sees at most
        ``_ROW_BLOCK + 1`` rows at a time, so it must treat each row on its
        own or align any internal blocking to ``_ROW_BLOCK`` rows.
    descriptor : dict
        JSON-able description (``{"family": ..., "params": ...}`` plus
        nested descriptors for combinators).
    accuracy : tuple
        The evaluator's accuracy pair (rel, abs), or (rel, abs, region);
        see the module docstring.
    tdf : TailDepFunction or None
        The closed-form lower tail dependence function, or None when the
        builder knows none.

    The boundary axioms hold exactly by the rule of :func:`_prepared` and
    :meth:`_evaluate`, reached only from ``cdf`` and :class:`DecomposedBatch`
    (a combinator calls its parts' ``cdf``); a copula from
    :func:`copula_from_callable` is evaluated verbatim instead.
    Instances are immutable and evaluation is pure, so copulas are safe to
    share between threads or processes.  The one thread the package starts
    is the worker of the Gaussian copula's one-worker executor
    (``families.gaussian``), which runs the second half of a block of
    ``_ROW_BLOCK`` rows or more (on the caller's thread once interpreter
    shutdown has begun); each call waits for its own half, so callers on
    several threads get their own values.
    """

    __slots__ = ("dimension", "descriptor", "accuracy", "tdf", "_formula")

    def __init__(self, dimension: int, evaluator: Callable[[np.ndarray], np.ndarray], descriptor: dict,
                 accuracy: tuple = CUSTOM, tdf: TailDepFunction | None = None):
        if dimension < 2:
            raise DimensionError(f"copulas need dimension >= 2, got {dimension}")
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "_formula", evaluator)
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "accuracy", accuracy)
        object.__setattr__(self, "tdf", tdf)

    def __setattr__(self, name, value):
        raise AttributeError("Copula objects are immutable")

    def __repr__(self):
        fam = self.descriptor.get("family", "?") if isinstance(self.descriptor, dict) else "?"
        return f"Copula(family={fam!r}, d={self.dimension})"

    def cdf(self, u) -> np.ndarray | float:
        """Evaluate C(u) for one point ``(d,)``, a batch ``(..., d)`` or a :class:`DecomposedBatch`.

        A batch is prepared by :func:`_prepared`, which checks and clips its
        coordinates and splits its rows by the boundary rule, and evaluated by
        :meth:`_evaluate`.  A batch already inside [0, 1] reaches the formula
        uncopied, often as a view of the caller's array, so formulas must not
        write into their input.  A decomposed batch was prepared when it was
        built, so it is evaluated on the blocks the formula would see for its
        points as an array, with the same values.
        """
        if isinstance(u, DecomposedBatch):
            if u.dimension != self.dimension:
                raise DimensionError(f"points have {u.dimension} coordinates, copula has dimension {self.dimension}")
            return self._evaluate(u.points, u.rule)
        arr = np.asarray(u, dtype=float)
        scalar = arr.ndim == 1
        if arr.shape[-1:] != (self.dimension,):
            raise DimensionError(f"points have shape {arr.shape}, copula has dimension {self.dimension}")
        vals = self._evaluate(*_prepared(arr.reshape(-1, self.dimension)))
        return float(vals[0]) if scalar else vals.reshape(arr.shape[:-1])

    def _evaluate(self, pts: np.ndarray, rule: tuple | None) -> np.ndarray:
        """C at the rows of pts, prepared by :func:`_prepared` with the boundary rule's split ``rule``.

        With no rule the formula sees every row, one block of
        :func:`_row_blocks` at a time; a batch of at most ``_ROW_BLOCK + 1``
        rows is one block, which reaches the formula as one uncopied view and
        whose values go straight to one ``np.clip``.  Otherwise the margin rows
        get their values and the formula's values at each block of inner rows
        are scattered to those rows.  One clip into [0, 1] covers the batch: it
        leaves the 0s and the margin values as they are.
        """
        n = pts.shape[0]
        if rule is None:
            if n <= _ROW_BLOCK + 1:
                return np.clip(np.asarray(self._formula(pts), dtype=float), 0.0, 1.0)
            blocks = ((slice(start, stop), pts[start:stop]) for start, stop in _row_blocks(n, _ROW_BLOCK))
            out = np.empty(n)
        else:
            margin, values, blocks = rule
            out = np.zeros(n)
            out[margin] = values
        for rows, block in blocks:
            out[rows] = self._formula(block)
        return np.clip(out, 0.0, 1.0, out=out)

    def eval(self, u) -> float:
        """Evaluate at a single point, returning a float."""
        return float(self.cdf(np.asarray(u, dtype=float).reshape(-1)))

    __call__ = cdf

    def diagonal(self, t) -> np.ndarray | float:
        """Diagonal section t -> C(t, ..., t)."""
        t_arr = np.asarray(t, dtype=float)
        pts = np.repeat(t_arr.reshape(-1, 1), self.dimension, axis=1)
        vals = self.cdf(pts)
        return float(vals[0]) if t_arr.ndim == 0 else np.asarray(vals).reshape(t_arr.shape)


class _Verbatim(Copula):
    """A copula whose function is trusted verbatim, boundary included (see :func:`copula_from_callable`)."""
    __slots__ = ()

    def _evaluate(self, pts: np.ndarray, rule: tuple | None) -> np.ndarray:
        # the function sees the whole batch, rule or none, and never an empty one
        return np.asarray(self._formula(pts), dtype=float) if pts.shape[0] else np.empty(0)


def _prepared(pts: np.ndarray) -> tuple[np.ndarray, tuple | None]:
    """An (n, d) array checked, clipped into [0, 1]^d when needed, and split by the boundary rule.

    One range pass, the batch's min and max, checks every coordinate: a NaN
    or an infinity shows in it as a non-finite bound, and a coordinate beyond
    ``BOUNDARY_TOL`` outside [0, 1] raises DomainError; one within it is
    clipped onto [0, 1].  The rule is None when the batch goes to the formula
    whole: no coordinate is 0 or 1, or the row masks find no zero or margin
    row.  Otherwise it holds the margin rows' indices (at least d-1
    coordinates exactly 1, none 0), their values (each row's minimum), and
    the inner rows' blocks: pairs of the indices of one block of
    :func:`_row_blocks` and those rows, taken by index into a new array when
    the pairs are iterated, one block at a time.  Rows with a coordinate
    exactly 0 are in neither and get 0.  Both masks are built on every batch
    that reaches them, whether or not its min is 0.  An empty batch gets an
    empty rule.  Like every family formula, the masks and the margin values
    combine a row's d columns with :func:`_row_reduce`.
    """
    if not pts.shape[0]:
        return pts, (np.empty(0, dtype=np.intp), np.empty(0), ())
    low, high = float(pts.min()), float(pts.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        raise DomainError("coordinates must be finite")
    if low < -BOUNDARY_TOL or high > 1.0 + BOUNDARY_TOL:
        raise DomainError(
            f"coordinate outside [0, 1] beyond tolerance {BOUNDARY_TOL}: range [{low}, {high}]"
        )
    if low < 0.0 or high > 1.0:  # np.clip keeps -0.0, so skipping it inside [0, 1] changes nothing
        pts = np.clip(pts, 0.0, 1.0)
    if 0.0 < low and high < 1.0:
        return pts, None
    zero = _row_reduce(np.logical_or, pts == 0.0)
    margin = (_row_reduce(np.add, pts == 1.0, dtype=np.intp) >= pts.shape[1] - 1) & ~zero
    inner = np.flatnonzero(~(zero | margin))
    if inner.size == pts.shape[0]:
        return pts, None
    margin = np.flatnonzero(margin)
    return pts, (margin, _row_reduce(np.minimum, pts[margin]),
                 ((inner[a:b], pts.take(inner[a:b], axis=0)) for a, b in _row_blocks(inner.size, _ROW_BLOCK)))


class DecomposedBatch:
    """Points in [0, 1]^d decomposed once by the boundary rule, for any number of d-dimensional copulas.

    Built from an (n, d) array, which :func:`_prepared` checks, clips and
    splits here, once.  It holds the points (read-only, and copied first
    unless they already are), their ``dimension`` d, and the rule with its
    inner blocks taken and read-only, and is immutable.  ``Copula.cdf``
    evaluates a batch by :meth:`Copula._evaluate` alone, on the blocks its
    formula sees for the points as an array, so the values are the array's
    bit for bit.  ``np.asarray(batch)`` gives the points.  The taken inner
    rows add up to n * d doubles to the points: a batch is worth building
    for a sample that several copulas evaluate.
    """

    __slots__ = ("points", "dimension", "rule")

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise DimensionError(f"a decomposed batch takes an (n, d) array of points, got shape {pts.shape}")
        pts, rule = _prepared(pts.copy() if pts.flags.writeable else pts)
        if rule is not None:
            margin, values, blocks = rule
            rule = margin, values, tuple(blocks)
            for array in (margin, values, *(a for block in rule[2] for a in block)):
                array.flags.writeable = False
        pts.flags.writeable = False
        for name, value in (("points", pts), ("dimension", pts.shape[1]), ("rule", rule)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("DecomposedBatch objects are immutable")

    def __array__(self, dtype=None, copy=None):
        return np.array(self.points, dtype=dtype, copy=copy)


def _row_blocks(n: int, size: int):
    """The (start, stop) ranges of n rows in blocks of ``size``, a last block of one row joined to the one before.

    The block rule of every row loop here and in ``families``: BLAS rounds a one-row matrix product by another
    path than a row of a larger one, so every row rounds as it would in one product over all rows.  No rows, no block.
    """
    for start in range(0, n - (n > 1), size):
        yield start, n if n - start <= size + 1 else start + size


def _row_reduce(ufunc: np.ufunc, pts: np.ndarray, dtype=None) -> np.ndarray:
    """Reduce each row of an (n, d) array with a binary ufunc over its columns, left to right.

    ``ufunc(ufunc(pts[:, 0], pts[:, 1]), pts[:, 2])`` and so on: n-wide
    column operations instead of a reduction along axis 1, which numpy runs
    as one short inner loop per row (about 50 times slower on two columns).
    The values are those of ``ufunc.reduce(pts, axis=1)`` for d < 8, where
    numpy's sum is sequential too (from d = 8 on it is pairwise); ``dtype``
    is the accumulator's, as for a count of boolean columns.
    """
    if pts.shape[1] == 1:
        return pts[:, 0].astype(dtype or pts.dtype)
    out = ufunc(pts[:, 0], pts[:, 1], dtype=dtype)
    for k in range(2, pts.shape[1]):
        ufunc(out, pts[:, k], out=out)
    return out


def copula_from_callable(fn: Callable, dimension: int) -> Copula:
    """Build a copula from an arbitrary ``(n, d) -> (n,)`` function without the boundary rule.

    Intended for auditing candidate functions with :func:`validate_copula`;
    the function is trusted verbatim, including on the boundary.  Its
    descriptor is ``{"family": "custom", "params": {}}``.
    """
    return _Verbatim(dimension, fn, {"family": "custom", "params": {}})


def _product(pts: np.ndarray) -> np.ndarray:
    return _row_reduce(np.multiply, pts)


def _upper_frechet(pts: np.ndarray) -> np.ndarray:
    return _row_reduce(np.minimum, pts)


def _lower_frechet(pts: np.ndarray) -> np.ndarray:
    return np.maximum(_row_reduce(np.add, pts) - 1.0, 0.0)


def zero_tdf(dimension: int = 2) -> TailDepFunction:
    """Vanishing tail dependence function (tail-independent copulas)."""
    return TailDepFunction(lambda pts: np.zeros(pts.shape[0]), dimension, name="zero", accuracy=EXACT)


def min_tdf(dimension: int = 2) -> TailDepFunction:
    """Upper bound min_k w_k (the comonotone tail dependence function)."""
    return TailDepFunction(_upper_frechet, dimension, name="min", accuracy=EXACT,
                           breakpoints=(0.5,) if dimension == 2 else ())  # the kink of min(t, 1 - t)


def independence(dimension: int = 2) -> Copula:
    """Product copula: C(u) = u_1 * ... * u_d."""
    return Copula(dimension, _product, {"family": "independence", "params": {"d": dimension}},
                  PRODUCT, zero_tdf(dimension))


def comonotone(dimension: int = 2) -> Copula:
    """Upper Frechet-Hoeffding bound: C(u) = min_k u_k."""
    return Copula(dimension, _upper_frechet, {"family": "comonotone", "params": {"d": dimension}},
                  EXACT, min_tdf(dimension))


def countermonotone() -> Copula:
    """Lower Frechet-Hoeffding bound max(u_1 + u_2 - 1, 0); a copula only for d = 2."""
    return Copula(2, _lower_frechet, {"family": "countermonotone", "params": {}}, LOWER_BOUND, zero_tdf())


def h_volume(c: Copula, lower, upper) -> float:
    """Signed inclusion-exclusion volume of the box [lower, upper].

    The sum runs over the 2^d corners with sign (-1)^(number of lower
    coordinates); nonnegativity over all boxes is the d-increasing axiom.
    """
    lo = np.asarray(lower, dtype=float).reshape(-1)
    hi = np.asarray(upper, dtype=float).reshape(-1)
    d = c.dimension
    if lo.shape != (d,) or hi.shape != (d,):
        raise DimensionError(f"box corners must have {d} coordinates")
    if (lo > hi + BOUNDARY_TOL).any():
        raise DomainError("box lower corner exceeds upper corner")
    picks = _tensor_grid(np.array([0.0, 1.0]), d) == 1.0  # the corners in lexicographic order
    signs = np.where((d - picks.sum(axis=1)) % 2, -1.0, 1.0)
    vals = c.cdf(np.where(picks, hi, lo))
    return float(np.dot(signs, vals))


def _tensor_grid(axes: np.ndarray, d: int) -> np.ndarray:
    check_points(axes.size**d, "grid")
    mesh = np.meshgrid(*([axes] * d), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def validate_copula(c: Copula, grid: GridConfig | None = None) -> ValidityReport:
    """Audit the three copula axioms on a tensor grid.

    Evaluates C on the full (resolution+1)^d grid including the boundary, refused above
    ``MAX_POINTS`` (the default grid at d >= 4), then checks groundedness and uniform margins on the
    boundary faces and nonnegativity of the H-volume of every grid cell (the cell volumes are the
    d-fold finite differences of the value tensor; a cell's witness is its lower and upper corner).
    """
    g = grid or GridConfig()
    d = c.dimension
    axes = np.linspace(0.0, 1.0, g.resolution + 1)
    values = np.asarray(c.cdf(_tensor_grid(axes, d))).reshape((axes.size,) * d)
    rest, ones, ends = _tensor_grid(axes, d - 1), np.ones((axes.size, d - 1)), (-1,) * (d - 1)
    # grounded: C vanishes on the faces u_k = 0; uniform margins: C(u) = u_k on
    # the lines where every other coordinate is 1; both scan k in order
    faces = [np.abs(np.take(values, 0, axis=k)).ravel() for k in range(d)]
    lines = [np.abs(values[ends[:k] + (slice(None),) + ends[k:]] - axes) for k in range(d)]
    vols = values  # d-increasing: every grid cell has nonnegative H-volume
    for ax in range(d):
        vols = np.diff(vols, axis=ax)
    corners = np.hstack([_tensor_grid(axes[:-1], d), _tensor_grid(axes[1:], d)])
    return ValidityReport(checks=(
        CheckResult.worst_of("grounded", np.concatenate(faces), VOLUME_TOL,
                             np.concatenate([np.insert(rest, k, 0.0, axis=1) for k in range(d)])),
        CheckResult.worst_of("uniform_margins", np.concatenate(lines), VOLUME_TOL,
                             np.concatenate([np.insert(ones, k, axes, axis=1) for k in range(d)])),
        CheckResult.worst_of("d_increasing", -vols, VOLUME_TOL, corners),
    ))


def glue(left: Copula, right: Copula, axis: int, split: float) -> Copula:
    """Glue two bivariate copulas along one axis at an interior split point.

    Along axis 1 the value is ``split * left(u1/split, u2)`` for
    ``u1 <= split`` and ``split * u2 + (1-split) * right((u1-split)/(1-split), u2)``
    beyond it; axis 2 is symmetric.  Both margins are preserved, so the
    result is again a copula.  The rows are split once, at ``u_j <= split``,
    and each part sees only its own rows.  Near the origin only the left
    part counts: the tail dependence function is
    ``split * Lambda_left(w1/split, w2)`` along axis 1 when the left part
    carries one.
    """
    if left.dimension != 2 or right.dimension != 2:
        raise DimensionError("glue is defined for bivariate copulas")
    if axis not in (1, 2):
        raise DomainError(f"glue axis must be 1 or 2, got {axis}")
    if not 0.0 < split < 1.0:
        raise DomainError(f"glue split must lie in (0, 1), got {split}")
    theta = float(split)
    j = axis - 1  # glued coordinate
    k = 1 - j     # passthrough coordinate

    def formula(pts: np.ndarray) -> np.ndarray:
        below = pts[:, j] <= theta
        rows, rest = np.flatnonzero(below), np.flatnonzero(~below)
        # rounding is monotone, so u_j <= split gives u_j / split <= 1, and u_j > split
        # gives (u_j - split) / (1 - split) in (0, 1]: no clip is needed
        lo, hi = pts.take(rows, axis=0), pts.take(rest, axis=0)
        lo[:, j] /= theta
        hi[:, j] = (hi[:, j] - theta) / (1.0 - theta)
        out = np.empty(pts.shape[0])
        out[rows] = theta * left.cdf(lo)
        out[rest] = theta * hi[:, k] + (1.0 - theta) * right.cdf(hi)
        return out

    desc = {
        "family": "glue",
        "params": {"axis": axis, "split": theta},
        "left": left.descriptor,
        "right": right.descriptor,
    }
    tdf, lam = None, left.tdf
    if lam is not None:
        divisor = np.where(np.arange(2) == j, theta, 1.0)
        kinks = [divisor * (t, 1.0 - t) for t in lam.breakpoints]  # a kink of Lambda_left, as a direction here
        # Lambda_left's pair plus a rounding each for w_j / split and the product; a region is dropped, as below
        tdf = TailDepFunction(lambda pts: theta * lam.fn(pts / divisor), 2,
                              breakpoints=tuple(float(w[0] / w.sum()) for w in kinks),
                              accuracy=(lam.accuracy[0] + ULP, lam.accuracy[1]))
    # the worse of the parts' pairs in each term; a region is dropped, so its abs term counts everywhere
    return Copula(2, formula, desc, tuple(map(max, left.accuracy[:2], right.accuracy[:2])), tdf)


def survival(c: Copula) -> Copula:
    """Survival copula (u, v) -> u + v - 1 + C(1-u, 1-v); an involution.

    The sum cancels near the origin, so a value is accurate only in absolute
    terms: to two ulp(1), about 4.4e-16, plus the error of C at (1-u, 1-v),
    which is at most C's relative plus absolute error (C <= 1 there).
    """
    if c.dimension != 2:
        raise DimensionError("survival is implemented for bivariate copulas")

    def formula(pts: np.ndarray) -> np.ndarray:
        return pts[:, 0] + pts[:, 1] - 1.0 + c.cdf(1.0 - pts)

    rel, abs_ = c.accuracy[:2]
    return Copula(2, formula, {"family": "survival", "inner": c.descriptor}, (0.0, 2 * ULP + rel + abs_))
