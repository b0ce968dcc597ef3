"""Set-function oracles over {0,1}^d with exact query accounting.

Every oracle counts each evaluated vertex, atomically, whether queries
arrive one at a time or in batches.  ``query_batch`` is the one counted
entry point (``query`` is its one-row form); subclasses supply only
``_values``, the answers at checked keys.  Estimator code never peeks
inside an oracle; the counter is the ground truth for query budgets.

An oracle answers one query at a time: ``query_batch`` credits the
counter and runs ``_values`` under the oracle's own lock, so threads
that share an oracle, such as the row blocks of one ``sample_batch``
call or two estimates run side by side, never meet inside ``_values``.

Every shipped objective is one lookup, ``_table[y @ _weights]``, with
int64 weights: powers of two for ``TableOracle``, ones for
``SymmetricSliceOracle`` (the hamming weight) and the item weights for
``KnapsackOracle``.  Each table is built once, when the oracle is.

A lockstep group whose trials each have their own instance queries
them as one stack: row block i of a trial-major batch goes to member i,
in one ``query_batch`` call that checks the keys once and credits each
member's counter with its own rows.  A stack of lookups, of any mix of
classes, is answered as one lookup in the members' tables laid end to
end; a member with its own ``_values`` makes the stack ask each member
in turn.

Keys are checked once, where they enter ``query``/``query_batch``.  The
shape is checked for every dtype.  Bool keys are binary by type and are
trusted without a scan; this is what the estimators build.  Keys of any
other dtype are converted to float and scanned for 0/1 entries.

``TableOracle`` rejects a non-finite value when it is built.
"""

from __future__ import annotations

import csv
import math
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import ConfigError, DimensionMismatchError, DomainError, _count

__all__ = [
    "Oracle",
    "TableOracle",
    "SymmetricSliceOracle",
    "KnapsackOracle",
    "make_knapsack",
    "ProblemSpec",
    "parse_problem",
]


class Oracle:
    """Base class: dimension, vectorised evaluation, call counting."""

    def __init__(self, d: int):
        self.d = _count("oracle dimension", d)
        self._lock = threading.Lock()
        self._calls = 0

    # ---------- queries ----------

    def query(self, y) -> float:
        """Evaluate one vertex; increments the counter by exactly 1."""
        return float(self.query_batch(np.asarray(y)[None, :])[0])

    def query_batch(self, ys) -> np.ndarray:
        """Evaluate a (n, d) batch under the oracle's lock; increments
        the counter by n."""
        ys = self._checked(ys)
        with self._lock:
            self._count(ys.shape[0])
            return self._values(ys)

    def _count(self, n: int) -> None:
        """Credit n evaluated vertices to the counter; the lock is held."""
        self._calls += n

    def _checked(self, ys) -> np.ndarray:
        """Bool (n, d) keys: as given.  Any other dtype: scanned for 0/1
        entries and converted to bool."""
        ys = np.asarray(ys)
        if ys.ndim != 2 or ys.shape[1] != self.d:
            raise DimensionMismatchError(
                f"expected keys of shape (n, {self.d}), got {ys.shape}"
            )
        if ys.dtype != np.bool_:
            ys = ys.astype(float)
            if not np.all((ys == 0.0) | (ys == 1.0)):
                raise DomainError("oracle keys must be 0/1 vectors")
            ys = ys.astype(np.bool_)
        return ys

    def _values(self, ys: np.ndarray) -> np.ndarray:
        """Values at checked (n, d) bool keys.

        Runs under the oracle's lock, one caller at a time, so it need
        not be thread-safe; it must not query its own oracle, whose lock
        it would wait for forever."""
        raise NotImplementedError

    # ---------- accounting ----------

    @property
    def call_count(self) -> int:
        with self._lock:
            return self._calls

    def reset_calls(self) -> None:
        with self._lock:
            self._calls = 0


class _Lookup(Oracle):
    """An objective whose value at key y is ``_table[y @ _weights]``;
    the constructor sets ``_weights`` (int64, shape (d,)) and the float
    ``_table``."""

    def _values(self, ys: np.ndarray) -> np.ndarray:
        return self._table[ys @ self._weights]


class TableOracle(_Lookup):
    """Dense table of 2^d values, indexed by the key's bit pattern.

    Key (y_1, ..., y_d) maps to the integer with y_1 as the most
    significant bit, matching the ``bits`` column of the CSV format
    (index 1 leftmost).
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=float).ravel()
        d = int(math.log2(values.size)) if values.size else 0
        if values.size < 2 or (1 << d) != values.size:
            raise DomainError("table length must be a power of two, at least 2")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DomainError(
                f"table value {float(values[bad[0]])} at key bits "
                f"{int(bad[0]):0{d}b} is not finite"
            )
        super().__init__(d)
        self._table = values
        self._weights = 1 << np.arange(d - 1, -1, -1, dtype=np.int64)

    @classmethod
    def from_csv(cls, path) -> "TableOracle":
        """Load a complete table from CSV with columns ``bits,value``."""
        rows: dict[str, float] = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"bits", "value"} <= set(
                reader.fieldnames
            ):
                raise ConfigError(f"{path}: expected CSV columns bits,value")
            for row in reader:
                bits = row["bits"].strip()
                if not bits or set(bits) - {"0", "1"}:
                    raise ConfigError(f"{path}: bad bits field {row['bits']!r}")
                if bits in rows:
                    raise ConfigError(f"{path}: duplicate bits {bits!r}")
                try:
                    value = float(row["value"])
                except ValueError as exc:
                    raise ConfigError(
                        f"{path}: bad value {row['value']!r} for bits {bits!r}"
                    ) from exc
                if not math.isfinite(value):
                    raise ConfigError(
                        f"{path}, line {reader.line_num}: value {row['value']!r} "
                        f"for bits {bits!r} is not finite"
                    )
                rows[bits] = value
        if not rows:
            raise ConfigError(f"{path}: empty table")
        d = len(next(iter(rows)))
        if any(len(b) != d for b in rows) or len(rows) != (1 << d):
            raise ConfigError(f"{path}: table must list all 2^{d} keys exactly once")
        values = np.empty(1 << d)
        for bits, val in rows.items():
            values[int(bits, 2)] = val
        return cls(values)


class SymmetricSliceOracle(_Lookup):
    """Objective that depends on the key only through its hamming weight S.

    First matching branch wins:

    * S = d                      -> 3   (isolated spike at the top)
    * |S - floor(d/2)| <= floor(0.133 d) -> 18  (wide middle plateau)
    * S <= floor(0.233 d)        -> -2  (penalised bottom band)
    * otherwise                  -> 0
    """

    def __init__(self, d: int):
        super().__init__(d)
        half = self.d // 2
        band = math.floor(0.133 * self.d)
        low = math.floor(0.233 * self.d)

        def value(s: int) -> float:
            if s == self.d:
                return 3.0
            if abs(s - half) <= band:
                return 18.0
            if s <= low:
                return -2.0
            return 0.0

        self._table = np.array([value(s) for s in range(self.d + 1)])
        self._weights = np.ones(self.d, dtype=np.int64)


class KnapsackOracle(_Lookup):
    """Reward for packing close to half the total weight.

    With weights w and target T = floor(sum(w) / 2), a key of packed
    weight S scores 20 when |S - T| <= 2, -5 when S > T + 2 (overfull),
    and 0 when S < T - 2 (underfull).
    """

    def __init__(self, weights):
        weights = np.asarray(weights)
        if weights.ndim != 1 or weights.size < 1:
            raise DomainError("weights must be a nonempty 1-D array")
        if not np.all((weights == weights.astype(int)) & (weights >= 1)):
            raise DomainError("weights must be positive integers")
        super().__init__(weights.size)
        self.weights = self._weights = weights.astype(np.int64)
        total = int(self.weights.sum())
        self.target = t = total // 2
        packed = np.arange(total + 1)
        self._table = np.where(packed > t + 2, -5.0, np.where(packed >= t - 2, 20.0, 0.0))


class _TrialOracles(Oracle):
    """One oracle per row block: a lockstep group's per-trial instances.

    Row block i of a trial-major (m * q, d) batch is answered by member
    i, and member i's counter moves by q.  Queries go through the
    inherited ``query_batch``, so the keys are checked once and the
    batch is one call; the stack's own counter stays at zero, the
    members hold the count.  The members must share one dimension.

    The stack gives its members one lock, its own, when it is built: a
    stacked query credits every member and answers under that one lock,
    so each member's counter stays exact at every read and all move
    together.
    A member must belong to one stack in use at a time; the lockstep
    groups build theirs from fresh per-group instances.

    When every member answers with the generic lookup, whatever its
    class, the stack is one lookup too: block i is packed with member
    i's weights in one ``matmul`` and offset into the members' tables,
    laid end to end in one flat table, built here once; it holds the
    sum of the members' table sizes.  Otherwise each member's
    ``_values`` answers its own block.
    """

    def __init__(self, members: list):
        super().__init__(members[0].d)
        self.members = list(members)
        for o in self.members:
            o._lock = self._lock
        self._table = None
        if all(type(o)._values is _Lookup._values for o in self.members):
            sizes = np.array([o._table.size for o in self.members], dtype=np.int64)
            self._table = np.concatenate([o._table for o in self.members])
            self._weights = np.stack([o._weights for o in self.members])[:, :, None]
            self._offsets = (np.cumsum(sizes) - sizes)[:, None]

    def _checked(self, ys) -> np.ndarray:
        ys = super()._checked(ys)
        if ys.shape[0] % len(self.members):
            raise DimensionMismatchError(
                f"{ys.shape[0]} keys do not split into {len(self.members)} equal blocks"
            )
        return ys

    def _count(self, n: int) -> None:
        per_member = n // len(self.members)
        for o in self.members:
            o._calls += per_member

    def _values(self, ys: np.ndarray) -> np.ndarray:
        blocks = ys.reshape(len(self.members), -1, self.d)
        if self._table is None:
            return np.concatenate([o._values(b) for o, b in zip(self.members, blocks)])
        packed = np.matmul(blocks, self._weights)[:, :, 0]
        return self._table.take(packed + self._offsets).ravel()


def make_knapsack(d: int, rng: np.random.Generator) -> KnapsackOracle:
    """Fresh knapsack instance with weights drawn uniformly from {1..9}."""
    return KnapsackOracle(rng.integers(1, 10, size=_count("d", d)))


def _unseeded(cls, arg, rng: np.random.Generator) -> Oracle:
    """``cls(arg)``, a fresh instance of a family that takes no randomness."""
    return cls(arg)


@dataclass(frozen=True)
class ProblemSpec:
    """A named problem family; ``make`` builds one instance per trial.

    ``randomized`` marks families whose instances depend on the
    generator (knapsack draws fresh weights per trial); for the others
    every trial may share a single oracle object.  A parsed spec pickles.
    """

    name: str
    d: int
    randomized: bool
    make: Callable[[np.random.Generator], Oracle]


def parse_problem(text: str) -> ProblemSpec:
    """Parse ``slice:<d>``, ``knapsack:<d>`` or ``table:<path>``; a table
    is read here, once, and each ``make`` gives it a fresh counter."""
    text = str(text).strip()
    kind, sep, arg = text.partition(":")
    kind = kind.lower()
    if not sep or not arg:
        raise ConfigError(f"cannot parse problem {text!r}")
    if kind in ("slice", "knapsack"):
        try:
            d = int(arg)
        except ValueError as exc:
            raise ConfigError(f"bad dimension in {text!r}") from exc
        if d < 1:
            raise ConfigError(f"dimension must be positive in {text!r}")
        if kind == "slice":
            return ProblemSpec(text, d, False, partial(_unseeded, SymmetricSliceOracle, d))
        return ProblemSpec(text, d, True, partial(make_knapsack, d))
    if kind == "table":
        try:
            oracle = TableOracle.from_csv(arg)
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise ConfigError(f"cannot read table {arg!r}: {exc}") from exc
        return ProblemSpec(text, oracle.d, False, partial(_unseeded, TableOracle, oracle._table))
    raise ConfigError(f"unknown problem kind {kind!r} in {text!r}")
