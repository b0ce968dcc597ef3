"""Set-function oracles over {0,1}^d with exact query accounting.

Every oracle counts each evaluated vertex, atomically, whether queries
arrive one at a time or in batches.  ``query_batch`` is the one counted
entry point (``query`` is its one-row form); subclasses supply only
``_values``, the answers at checked keys.  Estimator code never peeks
inside an oracle; the counter is the ground truth for query budgets.

A lockstep group whose trials each have their own instance queries
them as one stack: row block i of a trial-major batch goes to member i,
in one ``query_batch`` call that checks the keys once and credits each
member's counter with its own rows.

Keys are checked once, where they enter ``query``/``query_batch``.  The
shape is checked for every dtype.  Bool keys are binary by type and are
trusted without a scan; this is what the estimators build.  Keys of any
other dtype are converted to float and scanned for 0/1 entries.

``TableOracle`` rejects a non-finite value when it is built.  The slice
and knapsack objectives look their values up in a table of constants,
built once and indexed by the key's weight.
"""

from __future__ import annotations

import csv
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DimensionMismatchError, DomainError

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
        if int(d) < 1:
            raise DomainError("oracle dimension must be at least 1")
        self.d = int(d)
        self._lock = threading.Lock()
        self._calls = 0

    # ---------- queries ----------

    def query(self, y) -> float:
        """Evaluate one vertex; increments the counter by exactly 1."""
        y = self._checked(np.asarray(y)[None, :])
        self._count(1)
        return float(self._values(y)[0])

    def query_batch(self, ys) -> np.ndarray:
        """Evaluate a (n, d) batch; increments the counter by n."""
        ys = self._checked(ys)
        self._count(ys.shape[0])
        return self._values(ys)

    def _count(self, n: int) -> None:
        """Credit n evaluated vertices to the counter."""
        with self._lock:
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
        """Values at checked (n, d) bool keys."""
        raise NotImplementedError

    @classmethod
    def _stacked_values(cls, members: list) -> Callable | None:
        """A vectorised ``_values`` for a stack of instances of this
        class: it maps (m, q, d) keys, block i for member i, to the
        trial-major (m * q,) values.  None: query each member in turn."""
        return None

    # ---------- accounting ----------

    @property
    def call_count(self) -> int:
        with self._lock:
            return self._calls

    def reset_calls(self) -> None:
        with self._lock:
            self._calls = 0


class TableOracle(Oracle):
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
        self._powers = 1 << np.arange(d - 1, -1, -1, dtype=np.int64)

    @classmethod
    def from_function(cls, d: int, fn: Callable) -> "TableOracle":
        """Tabulate fn over all vertices (fn never sees the counter)."""
        if not 1 <= int(d) <= 25:
            raise DomainError("from_function supports 1 <= d <= 25")
        d = int(d)
        shifts = np.arange(d - 1, -1, -1, dtype=np.int64)
        idx = np.arange(1 << d, dtype=np.int64)
        bits = ((idx[:, None] >> shifts[None, :]) & 1).astype(float)
        values = np.array([float(fn(row)) for row in bits])
        return cls(values)

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

    def _values(self, ys: np.ndarray) -> np.ndarray:
        return self._table[ys @ self._powers]


class SymmetricSliceOracle(Oracle):
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

        self._by_weight = np.array([value(s) for s in range(self.d + 1)])

    def _values(self, ys: np.ndarray) -> np.ndarray:
        return self._by_weight[ys.sum(axis=1)]


class KnapsackOracle(Oracle):
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
        self.weights = weights.astype(np.int64)
        total = int(self.weights.sum())
        self.target = t = total // 2

        def value(s: int) -> float:
            if abs(s - t) <= 2:
                return 20.0
            if s > t + 2:
                return -5.0
            return 0.0

        self._by_weight = np.array([value(s) for s in range(total + 1)])

    def _values(self, ys: np.ndarray) -> np.ndarray:
        return self._by_weight[ys @ self.weights]

    @classmethod
    def _stacked_values(cls, members: list) -> Callable:
        # One matmul packs every block with its member's weights; the
        # value tables, zero-padded to one width, are looked up flat.
        width = max(o._by_weight.size for o in members)
        table = np.zeros((len(members), width))
        for row, o in zip(table, members):
            row[: o._by_weight.size] = o._by_weight
        table = table.ravel()
        weights = np.stack([o.weights for o in members])[:, :, None]
        offsets = np.arange(0, table.size, width, dtype=np.int64)[:, None]

        def values(keys: np.ndarray) -> np.ndarray:
            packed = np.matmul(keys, weights)[:, :, 0]
            return table.take(packed + offsets).ravel()

        return values


class _TrialOracles(Oracle):
    """One oracle per row block: a lockstep group's per-trial instances.

    Row block i of a trial-major (m * q, d) batch is answered by member
    i, and member i's counter moves by q.  Queries go through the
    inherited ``query_batch``, so the keys are checked once and the
    batch is one call; the stack's own counter stays at zero, the
    members hold the count.  The members must share one dimension.
    """

    def __init__(self, members: list):
        super().__init__(members[0].d)
        self.members = list(members)
        kind = type(members[0])
        same_kind = all(type(o) is kind for o in members)
        self._stacked = kind._stacked_values(self.members) if same_kind else None

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
            o._count(per_member)

    def _values(self, ys: np.ndarray) -> np.ndarray:
        blocks = ys.reshape(len(self.members), -1, self.d)
        if self._stacked is not None:
            return self._stacked(blocks)
        return np.concatenate([o._values(b) for o, b in zip(self.members, blocks)])


def make_knapsack(d: int, rng: np.random.Generator) -> KnapsackOracle:
    """Fresh knapsack instance with weights drawn uniformly from {1..9}."""
    if int(d) < 1:
        raise DomainError("d must be at least 1")
    return KnapsackOracle(rng.integers(1, 10, size=int(d)))


@dataclass(frozen=True)
class ProblemSpec:
    """A named problem family; ``make`` builds one instance per trial.

    ``randomized`` marks families whose instances depend on the
    generator (knapsack draws fresh weights per trial); for the others
    every trial may share a single oracle object.
    """

    name: str
    d: int
    randomized: bool
    make: Callable[[np.random.Generator], Oracle]


def parse_problem(text: str) -> ProblemSpec:
    """Parse ``slice:<d>``, ``knapsack:<d>`` or ``table:<path>``."""
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
            return ProblemSpec(text, d, False, lambda rng: SymmetricSliceOracle(d))
        return ProblemSpec(text, d, True, lambda rng: make_knapsack(d, rng))
    if kind == "table":
        try:
            oracle = TableOracle.from_csv(arg)
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise ConfigError(f"cannot read table {arg!r}: {exc}") from exc

        def _clone(rng: np.random.Generator, _table=oracle._table) -> Oracle:
            return TableOracle(_table)

        return ProblemSpec(text, oracle.d, False, _clone)
    raise ConfigError(f"unknown problem kind {kind!r} in {text!r}")
