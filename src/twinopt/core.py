"""Ground-set primitives, oracle contracts, and run artifacts.

Element sets are plain Python ints used as bitmasks over the dense ids
0..n-1.  This keeps set algebra (union, intersection, difference) single
expressions and makes the solver inner loops allocation-free.
"""

from __future__ import annotations

import math
import os
import random
import sys
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np


class ContractViolation(ValueError):
    """An operation was invoked outside its stated preconditions."""


class ParameterError(ValueError):
    """A solver parameter is outside its admissible range."""


# ---------------------------------------------------------------------------
# bitmask element sets


def bitmask(ids) -> int:
    """Build a bitmask set from an iterable of element ids."""
    m = 0
    for e in ids:
        m |= 1 << e
    return m


def members(mask: int) -> list[int]:
    """Element ids of a bitmask set, ascending."""
    if mask < 0:
        raise ContractViolation(f"a set mask must be >= 0, not {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def left_sum(values):
    """Sum `values` one at a time from the left, starting from the int 0
    as `sum()` does.  From Python 3.12 on, `sum()` of floats is
    compensated (`sum([1e16, 1.0, -1e16])` is 1.0 there and 0.0 before),
    so objective values, certificates and the runs built on them would
    depend on the Python version; this gives the 3.10/3.11 `sum()` on all."""
    total = 0
    for v in values:
        total += v
    return total


def sum_error(k: int, total: float) -> float:
    """A float at least γ_k·T, where γ_k = k·u/(1 − k·u) with u = 2^-53,
    for the exact total T of any non-negative terms whose float sum is
    `total` and takes at most k roundings on each term's way: the sum's
    error bound, |total − T| <= γ_k·T (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., §3.1 and §4.2), turned into one that
    the float total gives.  Such a T is at most (1 + γ_k)·total <= 2·total
    and γ_k <= 2k·u while k·u <= 1/4, so γ_k·T <= k·2^-51·total; the
    product below is twice that, which covers its own rounding, and the
    least normal float is added to cover its underflow."""
    return k * 2.0**-50 * total + sys.float_info.min


@dataclass(frozen=True)
class GroundSet:
    """Dense ground set; elements are the integer ids 0..n-1."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ContractViolation(f"ground size must be >= 0, got {self.n}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def elements(self) -> range:
        return range(self.n)


# ---------------------------------------------------------------------------
# text files

# Largest count a file header may state, and so the most nodes a file may
# name: a `# nodes N` header sizes per-node lists and bitmasks before any
# row is checked against it.
MAX_HEADER_COUNT = 2**24


def read_rows(path, shape: str, convert, keys=()) -> tuple[dict[str, int], list]:
    """Header and rows of a whitespace-separated text file.

    Blank lines and `#` comments are skipped; a `#` line starting with one
    of `keys` is a header of counts, like `# nodes 5 directed 0`, before
    any row, and no count may exceed MAX_HEADER_COUNT.  Each other line
    becomes `convert(fields, header)`.  Errors are raised as
    ContractViolation `PATH:LINE: ...`, citing `shape` for a line that
    does not parse (`expected 'node cost', got '1'`).

    This per-line reader is the reference for every input file: what it
    accepts, what it returns and each error message.  `read_fixed_rows`
    and `read_fixed_columns` parse fixed-width files in bulk and fall
    back to it."""
    header: dict[str, int] = {}
    rows = []
    with open(path, errors="replace") as fh:  # undecodable bytes fail to parse
        for lineno, line in enumerate(fh, 1):
            fields = line.split()
            if not fields:
                continue
            try:
                if fields[0][0] != "#":
                    rows.append(convert(fields, header))
                    continue
                words = line.strip()[1:].split()
                if words and words[0] in keys:
                    if rows:
                        raise ContractViolation("the header must come before the first row")
                    _add_header(words, keys, header)
            except ContractViolation as exc:
                raise ContractViolation(f"{path}:{lineno}: {exc}") from None
            except (ValueError, TypeError, IndexError):
                expected = shape if fields[0][0] != "#" else "# " + " N ".join(keys) + " N"
                raise ContractViolation(f"{path}:{lineno}: expected {expected!r}, got {line.strip()!r}") from None
    return header, rows


def _add_header(words: list[str], keys, header: dict[str, int]) -> None:
    """Put the counts of the header line `# words...` into `header`."""
    for key in set(keys) & set(words):
        header[key] = int(words[words.index(key) + 1])
    if min(header.values()) < 0:
        raise ValueError
    if max(header.values()) > MAX_HEADER_COUNT:
        raise ContractViolation(f"header count {max(header.values())} is above {MAX_HEADER_COUNT}")


# the field kinds np.loadtxt parses for _read_bulk: ids and values
_FIELD_DTYPES = {int: np.int64, float: np.float64}

# Below this many bytes (about 160 edges) a file is left to read_rows, line
# by line: one np.loadtxt call costs as much as the Python loop from about
# 40 edges on when a file is read again and again, and more in a set-up that
# does other work between loads (perfbench certify-small, up to 52 edges).
_BULK_MIN_BYTES = 4096


def read_fixed_rows(path, shape: str, convert, kinds, valid=None,
                    keys=()) -> tuple[dict[str, int], list[tuple]]:
    """What `read_rows(path, shape, convert, keys)` returns, for a file
    whose rows hold `len(kinds)` fields and where `convert` returns each
    row as the tuple `(kinds[0](field0), ...)` or fails as read_rows
    expects.  The file is read in bulk where `_read_bulk` can."""
    loaded = _read_bulk(path, kinds, valid, keys)
    if loaded is None:
        return read_rows(path, shape, convert, keys)
    header, columns = loaded
    return header, list(zip(*(col.tolist() for col in columns)))


def read_fixed_columns(path, shape: str, convert, kinds, valid=None,
                       keys=()) -> tuple[dict[str, int], list[np.ndarray]]:
    """`read_fixed_rows` as columns, int64 for int and float64 for float,
    for files whose accepted values fit those: the bulk reader's columns
    as they are, or the per-line rows' columns."""
    loaded = _read_bulk(path, kinds, valid, keys)
    if loaded is None:
        header, rows = read_rows(path, shape, convert, keys)
        columns = list(zip(*rows)) or [()] * len(kinds)
        loaded = header, [np.array(col, _FIELD_DTYPES[kind]) for col, kind in zip(columns, kinds)]
    return loaded


def _read_bulk(path, kinds, valid, keys) -> tuple[dict[str, int], list[np.ndarray]] | None:
    """The header and the columns of a file whose rows hold `len(kinds)`
    fields, read in one np.loadtxt pass, or None where `read_rows` must
    read the file.

    `valid(header, *columns)` checks the columns against the rules of
    `convert`, the per-line reader's row function.  The answer is None,
    and the file is left to read_rows, which raises the first bad line's
    error or returns the rows, whenever loadtxt fails or warns (a token
    `int()` or `float()` reads and loadtxt does not, a comment or header
    after the first row, a row of another width), `valid` is False, the
    file has no rows or it is under _BULK_MIN_BYTES.  So read_rows stays
    the reference: the accepted grammar, the values and every error
    message are its own."""
    if os.path.getsize(path) < _BULK_MIN_BYTES:
        return None
    dtype = np.dtype([(f"f{i}", _FIELD_DTYPES[kind]) for i, kind in enumerate(kinds)])
    header: dict[str, int] = {}
    with open(path, errors="replace") as fh:
        while True:  # the leading lines, as read_rows reads them
            start = fh.tell()
            line = fh.readline()
            if not line:  # no rows
                return None
            fields = line.split()
            if not fields:
                continue
            if fields[0][0] != "#":
                break
            words = line.strip()[1:].split()
            if words and words[0] in keys:
                try:
                    _add_header(words, keys, header)
                except (ValueError, TypeError, IndexError):
                    return None
        fh.seek(start)  # loadtxt reads on from the first row
        with warnings.catch_warnings():
            # NumPy 1.x only warns when it reads a float string such as `3.0` as an int
            warnings.simplefilter("error")
            try:
                data = np.loadtxt(fh, dtype=dtype, comments=None, ndmin=1)
            except (ValueError, Warning):
                return None
    # the fields of the structured array, each its own contiguous column
    columns = [np.ascontiguousarray(data[name]) for name in dtype.names]
    if valid is not None and not valid(header, *columns):
        return None
    return header, columns


def read_dense(path, shape: str, kind) -> list:
    """Values of an `id value` file whose ids cover 0..n-1 exactly once."""
    def row(fields, header):
        e, value = fields
        return int(e), kind(value)

    rows = read_fixed_rows(path, shape, row, (int, kind))[1]
    values = [None] * len(rows)
    for e, value in rows:
        if not 0 <= e < len(rows) or values[e] is not None:
            raise ContractViolation(f"{path}: ids must cover 0..{len(rows) - 1} exactly once, not {e}")
        values[e] = value
    return values


def write_rows(path, rows, header: dict[str, int] | None = None) -> None:
    """Write each row as its fields' `str` joined by spaces, after an
    optional `# key value ...` header line."""
    formats = {}  # row width -> "%s %s ...\n"; one % per row beats a join
    with open(path, "w") as fh:
        if header:
            fh.write("# " + " ".join(f"{k} {v}" for k, v in header.items()) + "\n")
        for row in rows:
            if len(row) not in formats:
                formats[len(row)] = " ".join(["%s"] * len(row)) + "\n"
            fh.write(formats[len(row)] % tuple(row))


# ---------------------------------------------------------------------------
# oracle contracts


def _rejected(mask: int, n: int | None, e: int | None = None) -> ContractViolation:
    """The error for a refused query, base or check: the set `mask`, or
    `mask` plus the id e, is no set of ids in 0..n-1 (of ids >= 0 when n
    is None)."""
    if mask < 0:
        return ContractViolation(f"a set mask must be >= 0, not {mask}")
    if e is not None and (e < 0 or n is not None and e >= n):
        ground = "ids >= 0" if n is None else f"size {n}"
        return ContractViolation(f"element {e} outside the ground set of {ground}")
    if e is not None and mask >> e & 1:
        return ContractViolation(f"element {e} is already in the set")
    return ContractViolation(f"set holds ids at or past the ground size {n}")


class ValueOracle:
    """Set-function evaluator with a per-instance query counter.

    This is the one statement of the query contract every objective
    follows.  A subclass sets `n`, the ground size, and implements
    `_value(mask)`, the value of a set of ids below n.  `evaluate(s, e)`
    is the only counted entry point: it returns f(s), or f(s + {e}) when
    an id e is given, and one call is one query, so a marginal gain
    against a caller-cached value costs exactly one query.  Oracles hold
    no value caches of their own; solvers own theirs, which keeps the
    query count attributable to the algorithm under test.  A set is a
    non-negative Python int mask.  A negative mask, a set holding an id at or
    past n, and an e that is negative, at or past n or already in the set
    are rejected with ContractViolation, and the query still counts; an
    oracle whose n is None states no ground size and takes any id >= 0.

    The value rule: the approximation guarantees are for non-negative
    submodular f, so every answer, from `_value` or `_value_plus`, must
    satisfy 0 <= value < inf.  `evaluate` checks that one comparison and
    raises ContractViolation naming the set and the value for a NaN, an
    infinite or a negative one; the query still counts.  Every solver,
    `exact_max`, `certify_run` and `submodularity_check` read values only
    through `evaluate`, so none of them sees a value outside the rule and
    every gain they take is finite.

    Bases.  A solver that grows a set S one element at a time keeps
    `base(S)`, asks `evaluate(base, e)` for the ids e it weighs, and after
    inserting one moves on to `grow(base, e)`, the base of S + {e}.  A base
    holds work, not values: what the oracle needs to answer f(S + {e}) for
    less than a full evaluation, and `evaluate(base, e)` returns exactly
    what `evaluate(S, e)` returns.  Building or growing a base is not a
    query and checks its set and e as `evaluate` does; `grow` leaves its
    argument as it was, and `evaluate(base)` is f(S).  By default the
    base of S is the mask S itself, so `evaluate(S, e)` is the full
    evaluation `_value(S | 1 << e)`, with no object or call in between.
    An oracle with cheaper extensions returns from `_new_base(mask)` an
    object whose field `mask` is S, answers `_value_plus(base, e)`, and
    may grow one in `_grow(base, e)` (by default `_new_base` of the grown
    set); `evaluate` and `grow` tell it from a mask by its type.

    A based query may write into the base and restores it before it
    returns, also when it raises, so the base is left as it was found.
    Two queries must therefore not run on one base at once: an oracle and
    its bases are not to be shared across threads.  (`sweep --jobs` runs
    its cells in worker processes, each with its own copy.)

    The sparse-path cut (`CutMonitorObjective` from `_SPARSE_MIN_NODES`
    nodes on) and `MarketingObjective` have base objects; the list-path
    cut, `ModularObjective` and `CallableOracle` use the mask.
    `CallableOracle` follows the same contract, the value rule included.

    The error bound.  An oracle may state `value_error`, a float δ with
    |F(X) − f(X)| <= δ for every set X, where F(X) is the value `evaluate`
    returns and f is an exactly submodular function.  `exact_max` prunes
    its search by the submodular bound only for an oracle that states
    one, and allows (2k + 2)·δ in a bound that sums k gains.  The cut
    states γ_{n+2m}·2W (m edges of weight total W) and
    `ModularObjective` γ_n·Σw, each through `sum_error`;
    `MarketingObjective`, `CallableOracle` and an oracle that does not
    set it state none (None).
    """

    value_error: float | None = None

    def __init__(self):
        self.query_count = 0

    def evaluate(self, s, e: int | None = None) -> float:
        self.query_count += 1
        if s.__class__ is int:
            mask = s if e is None else s | 1 << e if e >= 0 else -1
            # e < 0 or s < 0 gives a negative mask, which shifts to -1; e in s leaves s
            if (mask >> self.n if self.n is not None else mask < 0) or e is not None and mask == s:
                raise _rejected(s, self.n, e)
            value = self._value(mask)
        elif e is None:
            value = self._value(s.mask)
        elif 0 <= e < self.n and not s.mask >> e & 1:
            value = self._value_plus(s, e)
        else:
            raise _rejected(s.mask, self.n, e)
        if 0.0 <= value < math.inf:
            return value
        if s.__class__ is not int:  # the set of a based query, to name it
            mask = s.mask if e is None else s.mask | 1 << e
        raise ContractViolation(f"f({members(mask)}) is {value}: a value must be finite and >= 0")

    def base(self, mask: int):
        """The base of the set `mask`: the mask itself, or an oracle's
        base object."""
        if mask < 0 or self.n is not None and mask >> self.n:
            raise _rejected(mask, self.n)
        return self._new_base(mask)

    def grow(self, base, e: int):
        """The base of base's set plus the id e outside it; `base` is left
        as it was."""
        mask = base if base.__class__ is int else base.mask
        if e < 0 or mask >> e & 1 or self.n is not None and e >= self.n:
            raise _rejected(mask, self.n, e)
        return mask | 1 << e if base is mask else self._grow(base, e)  # a mask is its own base

    def _value(self, mask: int) -> float:
        raise NotImplementedError

    def _new_base(self, mask: int):
        return mask

    def _grow(self, base, e: int):
        """The base object of base's set plus e; by default built afresh."""
        return self._new_base(base.mask | 1 << e)

    def _value_plus(self, base, e: int) -> float:
        """f(base.mask + e) for an id e < n outside base.mask."""
        raise NotImplementedError


class CallableOracle(ValueOracle):
    """Adapter turning a plain ``mask -> float`` function into an oracle.

    It states no ground size (`n` is None): it accepts any id >= 0, its
    base is the mask and it is exempt from the solvers' ground-size
    check."""

    n = None

    def __init__(self, fn):
        super().__init__()
        self._fn = fn

    def _value(self, mask: int) -> float:
        return float(self._fn(mask))


class IndependenceOracle:
    """Membership test for a hereditary independence family over 0..n-1.

    A constraint states its family once, incrementally: `empty_state()`
    is the state of the empty set, `_can_add(state, e)` says whether the
    set behind `state` plus an id e outside it is independent, and
    `add(state, e)` returns the state of that larger set, leaving `state`
    as it was.  So solver inner loops test single-element feasibility in
    O(1) amortized time instead of re-deriving structure from the full
    set.  `is_independent(mask)` adds the members of mask in ascending
    order through these and is False at the first refusal; for a
    hereditary family that is exactly the set-wise test.  `is_independent`
    and `can_add` are the counted entry points, one check per call, and
    reject ids outside the ground set.

    `base_size` is the size of every maximal independent set, stated in
    closed form with no oracle call, or None.  A set of that size admits
    no further element, so `twin_greedy`, the single-set greedy and
    `exact_max` skip the checks they would make on it, and
    `constraints.rank` reads it instead of building a greedy base.
    Only a matroid can state it: its bases all have one size, while the
    bases of a p-set system may differ in size by up to a factor p.  The
    default is None, which costs only those checks; a value that is not
    the size of every base would change what the solvers return.
    """

    base_size: int | None = None

    def __init__(self, n: int):
        self.n = n
        self.check_count = 0

    def is_independent(self, mask: int) -> bool:
        if mask >> self.n:  # a negative mask shifts to -1
            raise _rejected(mask, self.n)
        self.check_count += 1
        state = self.empty_state()
        for e in members(mask):
            if not self._can_add(state, e):
                return False
            state = self.add(state, e)
        return True

    def can_add(self, state, e: int) -> bool:
        if not 0 <= e < self.n:
            raise ContractViolation(f"element {e} outside ground set of size {self.n}")
        self.check_count += 1
        return self._can_add(state, e)


# ---------------------------------------------------------------------------
# run artifacts


@dataclass
class LogEntry:
    element: int
    side: int  # 1 or 2
    position: int  # 0-based insertion index over both sides combined
    gain: float
    threshold: float | None = None  # acceptance bar active at insertion, if any

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class InsertionLog:
    """Ordered record of twin-set insertions.

    The log is the ground truth for replay: the sets grown on each side,
    the per-element insertion gain, and the prefix of either side that
    existed before any given insertion are all derivable from it.
    """

    entries: list[LogEntry] = field(default_factory=list)

    def append(self, element: int, side: int, gain: float, threshold: float | None = None):
        self.entries.append(LogEntry(element, side, len(self.entries), gain, threshold))

    def __len__(self) -> int:
        return len(self.entries)

    def replay(self) -> tuple[int, int]:
        """Rebuild the two sides from the log; returns (s1, s2) masks."""
        s1 = s2 = 0
        for ent in self.entries:
            if ent.side == 1:
                s1 |= 1 << ent.element
            else:
                s2 |= 1 << ent.element
        return s1, s2

    def pre_masks(self) -> dict[int, tuple[int, int]]:
        """Per inserted element, in insertion order, the (side-1, side-2)
        prefixes in place just before it was inserted."""
        out = {}
        s1 = s2 = 0
        for ent in self.entries:
            out[ent.element] = (s1, s2)
            if ent.side == 1:
                s1 |= 1 << ent.element
            else:
                s2 |= 1 << ent.element
        return out

    def side_elements(self, side: int) -> list[int]:
        """Elements of one side in insertion order."""
        return [ent.element for ent in self.entries if ent.side == side]

    def gains(self) -> dict[int, float]:
        return {ent.element: ent.gain for ent in self.entries}

    def validate(self, n: int):
        """Raise ContractViolation unless positions run 0, 1, ..., each side
        is 1 or 2, each element is an id in 0..n-1 inserted once and each
        gain is finite."""
        seen = 0
        for pos, ent in enumerate(self.entries):
            if ent.position != pos:
                raise ContractViolation("log positions must be consecutive from 0")
            if ent.side not in (1, 2):
                raise ContractViolation(f"bad side {ent.side}")
            if not 0 <= ent.element < n:
                raise ContractViolation(f"element {ent.element} outside the ground set of size {n}")
            if not math.isfinite(ent.gain):
                raise ContractViolation(f"element {ent.element} has gain {ent.gain}")
            if (seen >> ent.element) & 1:
                raise ContractViolation(f"element {ent.element} inserted twice")
            seen |= 1 << ent.element


@dataclass
class RunReport:
    """Everything a solver run produced, sufficient to reproduce it."""

    algorithm: str
    n: int
    parameters: dict
    s1: int
    s2: int
    s_star: int
    f_s1: float
    f_s2: float
    f_star: float
    log: InsertionLog
    value_queries: int
    independence_checks: int
    wall_time_s: float

    def __post_init__(self):
        if self.s1 & self.s2:
            raise ContractViolation("the two sides must be disjoint")
        if self.s_star not in (self.s1, self.s2):
            raise ContractViolation("returned solution must be one of the two sides")
        if self.f_star != max(self.f_s1, self.f_s2):
            raise ContractViolation("f_star must be the larger side value")

    @property
    def solution_size(self) -> int:
        return self.s_star.bit_count()

    def to_dict(self, include_timing: bool = True) -> dict:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "parameters": dict(self.parameters),
            "s1": members(self.s1),
            "s2": members(self.s2),
            "s_star": members(self.s_star),
            "f_s1": self.f_s1,
            "f_s2": self.f_s2,
            "f_star": self.f_star,
            "solution_size": self.solution_size,
            "value_queries": self.value_queries,
            "independence_checks": self.independence_checks,
            "wall_time_s": self.wall_time_s if include_timing else 0.0,
            "log": [ent.to_dict() for ent in self.log.entries],
        }


# ---------------------------------------------------------------------------
# operations


# Absolute slack each checked inequality (submodularity_check's and
# certify's) allows for float rounding: sums of logged gains and fresh
# evaluations of one quantity may differ by ulps.
TOL = 1e-9


def submodularity_check(oracle: ValueOracle, ground: GroundSet, trials: int = 200,
                        seed: int = 0):
    """Randomized falsification test for submodularity.

    Samples X subseteq Y with a random partition Z_1..Z_t of Y\\X and checks
    f(Y|X) <= sum_j f(Z_j|X), plus the pairwise lattice inequality
    f(X)+f(Y) >= f(X u Y)+f(X n Y).  Returns (True, None) if no violation
    was found, else (False, witness) where the witness names the sets and
    both sides of the failed inequality.
    """
    rng = random.Random(seed)
    n = ground.n
    for _ in range(trials):
        y = rng.getrandbits(n) if n else 0
        x = y & (rng.getrandbits(n) if n else 0)
        rest = members(y & ~x)
        rng.shuffle(rest)
        t = rng.randint(1, len(rest)) if rest else 0
        parts = [0] * t
        for idx, e in enumerate(rest):
            parts[idx % t] |= 1 << e
        fx = oracle.evaluate(x)
        lhs = oracle.evaluate(y) - fx
        rhs = left_sum(oracle.evaluate(z | x) - fx for z in parts)
        if lhs > rhs + TOL:
            return False, {
                "kind": "partition",
                "x": members(x),
                "y": members(y),
                "parts": [members(z) for z in parts],
                "lhs": lhs,
                "rhs": rhs,
            }
        a = rng.getrandbits(n) if n else 0
        b = rng.getrandbits(n) if n else 0
        lhs2 = oracle.evaluate(a | b) + oracle.evaluate(a & b)
        rhs2 = oracle.evaluate(a) + oracle.evaluate(b)
        if lhs2 > rhs2 + TOL:
            return False, {
                "kind": "pairwise",
                "x": members(a),
                "y": members(b),
                "lhs": lhs2,
                "rhs": rhs2,
            }
    return True, None
