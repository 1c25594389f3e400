"""Ground-set primitives, oracle contracts, and run artifacts.

Element sets are plain Python ints used as bitmasks over the dense ids
0..n-1.  This keeps set algebra (union, intersection, difference) single
expressions and makes the solver inner loops allocation-free.
"""

from __future__ import annotations

import math
import os
import random
import warnings
from dataclasses import dataclass, field

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
    parses fixed-width files in bulk and falls back to it."""
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


# the field kinds np.loadtxt parses for read_fixed_rows: ids and values
_FIELD_DTYPES = {int: np.int64, float: np.float64}

# Below this many bytes (about 160 edges) read_fixed_rows reads a file line
# by line: one np.loadtxt call costs as much as the Python loop from about
# 40 edges on when a file is read again and again, and more in a set-up that
# does other work between loads (perfbench certify-small, up to 52 edges).
_BULK_MIN_BYTES = 4096


def read_fixed_rows(path, shape: str, convert, kinds, valid=None,
                    keys=()) -> tuple[dict[str, int], list[tuple]]:
    """What `read_rows(path, shape, convert, keys)` returns, for a file
    whose rows hold `len(kinds)` fields and where `convert` returns each
    row as the tuple `(kinds[0](field0), ...)` or fails as read_rows
    expects.

    The rows after the leading header and comment lines are parsed in one
    np.loadtxt pass (int as int64, float as float64), and
    `valid(header, *columns)` checks the column arrays against `convert`'s
    rules.  The file is read by read_rows instead, which raises the first
    bad line's error or returns the rows, whenever loadtxt fails or warns
    (a token `int()` or `float()` reads and loadtxt does not, a comment or
    header after the first row, a row of another width), `valid` is
    False or the file is under _BULK_MIN_BYTES.  So read_rows stays the
    reference: the accepted grammar, the values and every error message
    are its own."""
    if os.path.getsize(path) >= _BULK_MIN_BYTES:
        loaded = _load_fixed_rows(path, kinds, keys)
        if loaded is not None:
            header, data = loaded
            if valid is None or valid(header, *(data[name] for name in data.dtype.names)):
                return header, data.tolist()
    return read_rows(path, shape, convert, keys)


def _load_fixed_rows(path, kinds, keys) -> tuple[dict[str, int], np.ndarray] | None:
    """Header and structured row array of a file whose rows np.loadtxt
    reads, or None where read_rows must read it."""
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
                return header, np.loadtxt(fh, dtype=dtype, comments=None, ndmin=1)
            except (ValueError, Warning):
                return None


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


def _added(prev: int, mask: int, n: int) -> int:
    """The id e < n with mask == prev + {e}, else -1."""
    added = mask ^ prev
    if added.bit_count() != 1 or not mask & added or added >> n:
        return -1
    return added.bit_length() - 1


class ValueOracle:
    """Set-function evaluator with a per-instance query counter.

    This is the one statement of the query contract every objective
    follows.  A subclass sets `n`, the ground size, and implements
    `_value(mask)`, the value of a set of ids below n.  `evaluate` is the
    only counted entry point: one call is one query, so a marginal gain
    against a caller-cached base value costs exactly one query.  Oracles
    hold no value caches of their own; solvers own theirs, which keeps the
    query count attributable to the algorithm under test.  A set holding
    an id at or past n is rejected with ContractViolation; an oracle whose
    n is None states no ground size and takes any id.

    The value rule: the approximation guarantees are for non-negative
    submodular f, so every answer, from `_value` or `_value_plus`, must
    satisfy 0 <= value < inf.  `evaluate` checks that one comparison and
    raises ContractViolation naming the set and the value for a NaN, an
    infinite or a negative one; the query still counts.  Every solver,
    `exact_max`, `certify_run` and `submodularity_check` read values only
    through `evaluate`, so none of them sees a value outside the rule and
    every gain they take is finite.

    A solver that grows a set S one element at a time may ask for a
    `base(S)` and pass it to `evaluate(S | 1 << e, base)`.  A base holds
    work, not values: intermediate arrays from which an oracle evaluates a
    one-element extension of S for less than a full evaluation, returning
    exactly what `evaluate` without it returns.  Building a base is not a
    query.  When the queried set is the base's set plus one id e below n,
    `evaluate` answers `_value_plus(base, e)`; any other set, or no base,
    is a full `_value`, so a based query is never wrong, only slower.
    `base(S, prev)` grows `prev` by `_grow(prev, e)` when prev is the base
    of S minus one id e, and otherwise builds `_new_base(S)`, which is None
    by default: an oracle without bases answers every query in full.  A
    base records its set as `base.mask`.

    A based query may write into the base and restores it before it
    returns, also when it raises, so the base is left as it was found.
    Two queries must therefore not run on one base at once: an oracle and
    its bases are not to be shared across threads.  (`sweep --jobs` runs
    its cells in worker processes, each with its own copy.)

    The sparse-path cut (`CutMonitorObjective` from `_SPARSE_MIN_NODES`
    nodes on) and `MarketingObjective` offer bases; the list-path cut,
    `ModularObjective` and `CallableOracle` do not.  `CallableOracle`
    follows the same contract, the value rule included.
    """

    def __init__(self):
        self.query_count = 0

    def evaluate(self, mask: int, base=None) -> float:
        self.query_count += 1
        e = -1 if base is None else _added(base.mask, mask, self.n)
        if e < 0 and self.n is not None and mask >> self.n:
            raise ContractViolation(f"set holds ids at or past the ground size {self.n}")
        value = self._value_plus(base, e) if e >= 0 else self._value(mask)
        if 0.0 <= value < math.inf:
            return value
        raise ContractViolation(f"f({members(mask)}) is {value}: a value must be finite and >= 0")

    def base(self, mask: int, prev=None):
        """An opaque base for the set `mask`, or None.  `prev` may be the
        base of `mask` minus one element, to build this one from."""
        if self.n is not None and mask >> self.n:
            raise ContractViolation(f"set holds ids at or past the ground size {self.n}")
        e = -1 if prev is None else _added(prev.mask, mask, self.n)
        return self._grow(prev, e) if e >= 0 else self._new_base(mask)

    def _value(self, mask: int) -> float:
        raise NotImplementedError

    def _new_base(self, mask: int):
        return None

    def _grow(self, prev, e: int):
        """The base of prev's set plus e; by default built afresh."""
        return self._new_base(prev.mask | 1 << e)

    def _value_plus(self, base, e: int) -> float:
        """f(base.mask + e) for an id e < n outside base.mask."""
        raise NotImplementedError


class CallableOracle(ValueOracle):
    """Adapter turning a plain ``mask -> float`` function into an oracle.

    It states no ground size (`n` is None): it accepts any id, offers no
    base and is exempt from the solvers' ground-size check."""

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
    """

    def __init__(self, n: int):
        self.n = n
        self.check_count = 0

    def is_independent(self, mask: int) -> bool:
        if mask >> self.n:
            raise ContractViolation("set contains ids outside the ground set")
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
        return {
            "element": self.element,
            "side": self.side,
            "position": self.position,
            "gain": self.gain,
            "threshold": self.threshold,
        }


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
