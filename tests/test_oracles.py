import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgrad.errors import ConfigError, DimensionMismatchError, DomainError
from sqgrad.oracles import (
    KnapsackOracle,
    Oracle,
    SymmetricSliceOracle,
    TableOracle,
    _TrialOracles,
    make_knapsack,
    parse_problem,
)


def test_table_oracle_bit_order():
    # First coordinate is the most significant bit.
    oracle = TableOracle([10.0, 20.0, 30.0, 40.0])
    assert oracle.query(np.array([0, 0])) == 10.0
    assert oracle.query(np.array([0, 1])) == 20.0
    assert oracle.query(np.array([1, 0])) == 30.0
    assert oracle.query(np.array([1, 1])) == 40.0


def test_table_oracle_validation():
    with pytest.raises(DomainError):
        TableOracle([1.0])
    with pytest.raises(DomainError):
        TableOracle([1.0, 2.0, 3.0])
    oracle = TableOracle([0.0, 1.0])
    with pytest.raises(DomainError):
        oracle.query(np.array([0.5]))
    with pytest.raises(DimensionMismatchError):
        oracle.query(np.array([0, 1]))


def test_table_oracle_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("bits,value\n00,1.5\n01,-2\n10,0\n11,7\n")
    oracle = TableOracle.from_csv(path)
    assert oracle.d == 2
    assert oracle.query(np.array([0, 1])) == -2.0
    assert oracle.query(np.array([1, 1])) == 7.0


@pytest.mark.parametrize(
    "body",
    [
        "bits,value\n00,1\n01,2\n10,3\n",  # incomplete
        "bits,value\n00,1\n00,2\n10,3\n11,4\n",  # duplicate
        "bits,value\n0a,1\n01,2\n10,3\n11,4\n",  # bad bits
        "bits,value\n00,x\n01,2\n10,3\n11,4\n",  # bad value
        "wrong,header\n00,1\n",
        "",
    ],
)
def test_table_oracle_csv_errors(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ConfigError):
        TableOracle.from_csv(path)


def vertex_of_weight(d, s):
    y = np.zeros(d)
    y[:s] = 1.0
    return y


def test_slice_oracle_d10_landscape():
    # d = 10: plateau at |S - 5| <= 1, penalty at S <= 2, spike at S = 10.
    oracle = SymmetricSliceOracle(10)
    expected = {0: -2.0, 1: -2.0, 2: -2.0, 3: 0.0, 4: 18.0, 5: 18.0,
                6: 18.0, 7: 0.0, 8: 0.0, 9: 0.0, 10: 3.0}
    for s, val in expected.items():
        assert oracle.query(vertex_of_weight(10, s)) == val, s


def test_slice_oracle_first_match_precedence():
    # d = 3: the top vertex is in the plateau band arithmetically, but
    # the spike branch must win.
    oracle = SymmetricSliceOracle(3)
    assert oracle.query(vertex_of_weight(3, 3)) == 3.0
    assert oracle.query(vertex_of_weight(3, 1)) == 18.0
    assert oracle.query(vertex_of_weight(3, 0)) == -2.0
    assert oracle.query(vertex_of_weight(3, 2)) == 0.0


def test_slice_oracle_d30_band():
    oracle = SymmetricSliceOracle(30)
    # floor(0.133 * 30) = 3, floor(0.233 * 30) = 6.
    for s, val in [(12, 18.0), (18, 18.0), (11, 0.0), (19, 0.0),
                   (6, -2.0), (7, 0.0), (30, 3.0)]:
        assert oracle.query(vertex_of_weight(30, s)) == val, s


def test_knapsack_oracle_bands():
    oracle = KnapsackOracle([3, 3, 3, 3])  # total 12, target 6
    assert oracle.target == 6
    assert oracle.query(np.array([1, 1, 0, 0])) == 20.0  # S = 6
    assert oracle.query(np.array([1, 1, 1, 0])) == -5.0  # S = 9 > 8
    assert oracle.query(np.array([1, 0, 0, 0])) == 0.0  # S = 3 < 4
    assert oracle.query(np.array([0, 0, 0, 0])) == 0.0


def _knapsack_table_by_loop(weights) -> np.ndarray:
    """The knapsack value table, one packed weight at a time."""
    total = int(np.sum(weights))
    t = total // 2

    def value(s: int) -> float:
        if abs(s - t) <= 2:
            return 20.0
        if s > t + 2:
            return -5.0
        return 0.0

    return np.array([value(s) for s in range(total + 1)])


def test_knapsack_table_matches_the_loop():
    rng = np.random.default_rng(12)
    cases = [[1], [1, 1], [2, 3], [1] * 5]
    cases += [rng.integers(1, 10, size=int(rng.integers(1, 40))) for _ in range(100)]
    for weights in cases:
        got, want = KnapsackOracle(weights)._table, _knapsack_table_by_loop(weights)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), weights


def test_knapsack_weight_validation():
    with pytest.raises(DomainError):
        KnapsackOracle([])
    with pytest.raises(DomainError):
        KnapsackOracle([1.5, 2.0])
    with pytest.raises(DomainError):
        KnapsackOracle([0, 3])


def test_make_knapsack_reproducible():
    w1 = make_knapsack(12, np.random.default_rng(33)).weights
    w2 = make_knapsack(12, np.random.default_rng(33)).weights
    assert np.array_equal(w1, w2)
    assert np.all((w1 >= 1) & (w1 <= 9))


def test_call_counting_and_reset():
    oracle = SymmetricSliceOracle(6)
    oracle.query(np.ones(6))
    oracle.query_batch(np.ones((5, 6)))
    assert oracle.call_count == 6
    oracle.reset_calls()
    assert oracle.call_count == 0


def test_call_counter_is_thread_safe():
    oracle = SymmetricSliceOracle(4)
    ys = np.ones((100, 4))

    def work():
        for _ in range(50):
            oracle.query_batch(ys)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert oracle.call_count == 8 * 50 * 100


def test_query_batch_shape_checks():
    oracle = SymmetricSliceOracle(4)
    with pytest.raises(DimensionMismatchError):
        oracle.query_batch(np.ones(4))  # must be 2-D
    with pytest.raises(DimensionMismatchError):
        oracle.query_batch(np.ones((2, 5)))
    with pytest.raises(DomainError):
        oracle.query_batch(np.full((2, 4), 0.3))
    with pytest.raises(DomainError):
        oracle.query_batch(np.array([[0.0, 1.0, 2.0, 1.0]]))
    # Bool keys are binary by type; the shape is still checked.
    keys = np.array([[True, False, True, True], [False] * 4])
    np.testing.assert_array_equal(
        oracle.query_batch(keys), oracle.query_batch(keys.astype(float))
    )
    assert oracle.query(keys[0]) == oracle.query(keys[0].astype(int))
    with pytest.raises(DimensionMismatchError):
        oracle.query_batch(np.ones(4, dtype=bool))
    with pytest.raises(DimensionMismatchError):
        oracle.query_batch(np.ones((2, 5), dtype=bool))
    with pytest.raises(DimensionMismatchError):
        oracle.query(np.ones(3, dtype=bool))
    assert oracle.call_count == 6  # rejected keys are not counted


def _slice_formula(d, s):
    """The slice objective written as its first-match select."""
    s = np.asarray(s)
    return np.select(
        [
            s == d,
            np.abs(s - d // 2) <= np.floor(0.133 * d),
            s <= np.floor(0.233 * d),
        ],
        [3.0, 18.0, -2.0],
        default=0.0,
    )


def _knapsack_formula(target, s):
    s = np.asarray(s)
    return np.select(
        [np.abs(s - target) <= 2, s > target + 2], [20.0, -5.0], default=0.0
    )


@pytest.mark.parametrize("d", [1, 2, 3, 7, 10, 24, 30, 101])
def test_slice_value_table_matches_formula(d):
    oracle = SymmetricSliceOracle(d)
    weights = np.arange(d + 1)
    expected = _slice_formula(d, weights)
    assert oracle._table.tobytes() == expected.tobytes()
    keys = np.arange(d)[None, :] < weights[:, None]  # one key per weight
    assert oracle.query_batch(keys).tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_knapsack_value_table_matches_formula(seed):
    rng = np.random.default_rng(seed)
    oracle = make_knapsack(int(rng.integers(1, 30)), rng)
    weights = np.arange(int(oracle.weights.sum()) + 1)
    expected = _knapsack_formula(oracle.target, weights)
    assert oracle._table.tobytes() == expected.tobytes()
    keys = rng.random((200, oracle.d)) < 0.5
    want = _knapsack_formula(oracle.target, keys @ oracle.weights)
    assert oracle.query_batch(keys).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_table_oracle_rejects_non_finite_values(bad):
    values = np.arange(8.0)
    values[5] = bad
    with pytest.raises(DomainError, match="101"):
        TableOracle(values)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_table_oracle_csv_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "bad.csv"
    path.write_text(f"bits,value\n00,1\n01,{bad}\n10,3\n11,4\n")
    with pytest.raises(ConfigError, match="line 3.*'01'"):
        TableOracle.from_csv(path)


def test_parse_problem():
    slice_spec = parse_problem("slice:10")
    assert slice_spec.d == 10 and not slice_spec.randomized
    assert isinstance(slice_spec.make(np.random.default_rng(0)), SymmetricSliceOracle)

    knap_spec = parse_problem("knapsack:6")
    assert knap_spec.d == 6 and knap_spec.randomized
    a = knap_spec.make(np.random.default_rng(1))
    b = knap_spec.make(np.random.default_rng(2))
    assert isinstance(a, KnapsackOracle)
    assert not np.array_equal(a.weights, b.weights)

    for bad in ("slice", "slice:x", "slice:0", "mystery:4", "table:", "table:/absent.csv"):
        with pytest.raises(ConfigError):
            parse_problem(bad)


def test_parse_problem_table_clones_counters(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("bits,value\n0,0\n1,5\n")
    spec = parse_problem(f"table:{path}")
    assert spec.d == 1 and not spec.randomized
    a = spec.make(np.random.default_rng(0))
    b = spec.make(np.random.default_rng(0))
    a.query(np.array([1]))
    assert a.call_count == 1 and b.call_count == 0
    assert b.query(np.array([1])) == 5.0


@pytest.mark.parametrize("kind", ["slice:5", "knapsack:5", "table"])
def test_parsed_problems_pickle(tmp_path, kind):
    # A pool worker gets the parsed problem, not its text: the copy
    # builds the same instances, each with its own counter.
    if kind == "table":
        path = tmp_path / "t.csv"
        path.write_text("bits,value\n00,1\n01,-2\n10,3.5\n11,4\n")
        kind = f"table:{path}"
    spec = parse_problem(kind)
    copy = pickle.loads(pickle.dumps(spec))
    assert (copy.name, copy.d, copy.randomized) == (spec.name, spec.d, spec.randomized)
    a, b = spec.make(np.random.default_rng(3)), copy.make(np.random.default_rng(3))
    assert type(a) is type(b)
    np.testing.assert_array_equal(a._table, b._table)
    np.testing.assert_array_equal(a._weights, b._weights)
    b.query(np.ones(spec.d))
    assert (a.call_count, b.call_count) == (0, 1)
    assert copy.make(np.random.default_rng(3)).call_count == 0


def _knapsack_members():
    # Unequal weight totals, so the value tables differ in size.
    rng = np.random.default_rng(4)
    return [KnapsackOracle(np.full(6, 9)), KnapsackOracle(np.ones(6, dtype=int)),
            make_knapsack(6, rng), make_knapsack(6, rng)]


def _mixed_members():
    rng = np.random.default_rng(5)
    return [TableOracle(rng.normal(size=64)), TableOracle(rng.normal(size=64)),
            make_knapsack(6, rng)]


class _ParityOracle(Oracle):
    """Not a table lookup: answers the parity of the key's weight."""

    def _values(self, ys):
        return (ys.sum(axis=1) % 2).astype(float)


def _custom_members():
    rng = np.random.default_rng(7)
    return [TableOracle(rng.normal(size=64)), _ParityOracle(6), make_knapsack(6, rng)]


@pytest.mark.parametrize("members, vectorised", [
    (_knapsack_members, True), (_mixed_members, True), (_custom_members, False)])
def test_trial_oracles_answer_each_block_with_its_member(members, vectorised):
    members, q, d = members(), 5, 6
    stack = _TrialOracles(members)
    assert (stack._table is not None) == vectorised
    rng = np.random.default_rng(6)
    keys = rng.random((len(members), q, d)) < 0.5
    keys[:, 0] = True  # each member's largest packed weight
    keys[:, 1] = False
    out = stack.query_batch(keys.reshape(-1, d))
    assert [o.call_count for o in members] == [q] * len(members)
    want = np.concatenate([o.query_batch(block) for o, block in zip(members, keys)])
    assert out.tobytes() == want.tobytes()
    # 0/1 float keys are checked once, on the whole batch.
    again = stack.query_batch(keys.reshape(-1, d).astype(float))
    assert again.tobytes() == want.tobytes()


@st.composite
def _shipped_stacks(draw):
    """1-6 shipped oracles of one dimension in mixed classes, one of
    them possibly repeated."""
    d = draw(st.integers(1, 8))
    members = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["table", "slice", "knapsack"]))
        if kind == "table":
            seed = draw(st.integers(0, 2**32 - 1))
            members.append(TableOracle(np.random.default_rng(seed).normal(size=1 << d)))
        elif kind == "slice":
            members.append(SymmetricSliceOracle(d))
        else:
            weights = draw(st.lists(st.integers(1, 9), min_size=d, max_size=d))
            members.append(KnapsackOracle(weights))
    if len(members) > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, len(members) - 1), min_size=2,
                             max_size=2, unique=True))
        members[j] = members[i]
    return d, members


@settings(max_examples=150, deadline=None)
@given(stack=_shipped_stacks(), q=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stacked_shipped_oracles_are_one_lookup(stack, q, seed):
    d, members = stack
    blocks = np.random.default_rng(seed).random((len(members), q, d)) < 0.5
    want = np.concatenate([o.query_batch(b) for o, b in zip(members, blocks)])
    for o in members:
        o.reset_calls()
    trial = _TrialOracles(members)
    assert trial._table is not None
    out = trial.query_batch(blocks.reshape(-1, d))
    assert out.tobytes() == want.tobytes()
    for o in members:
        assert o.call_count == q * sum(p is o for p in members)
    assert trial.call_count == 0


def test_stacked_counters_are_exact_at_every_read():
    # Two threads make stacked queries and a third queries the last
    # member alone, while a fourth reads the members' counters in member
    # order.  One stacked query credits every member at once, so a read
    # sees each counter at a whole number of queries, never ahead of a
    # later member's, and never going back; no query is lost.
    m, q, d, rounds = 20, 3, 6, 400
    members = [make_knapsack(d, np.random.default_rng(i)) for i in range(m)]
    stack = _TrialOracles(members)
    assert all(o._lock is stack._lock for o in members)
    keys = np.random.default_rng(0).random((m * q, d)) < 0.5
    writing = threading.Event()
    bad = []

    def write():
        for _ in range(rounds):
            stack.query_batch(keys)

    def write_last():
        for _ in range(rounds):
            members[-1].query_batch(keys[:q])

    def read():
        last = [0] * m
        while writing.is_set():
            counts = [o.call_count for o in members]
            if (any(c % q for c in counts) or counts != sorted(counts)
                    or any(c < b for c, b in zip(counts, last))):
                bad.append(counts)
            last = counts

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writing.set()
        reader = threading.Thread(target=read)
        writers = [threading.Thread(target=f) for f in (write, write, write_last)]
        reader.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        writing.clear()
        reader.join()
    finally:
        sys.setswitchinterval(old_interval)
    assert not bad, bad[:3]
    assert [o.call_count for o in members] == [2 * rounds * q] * (m - 1) + [3 * rounds * q]
    assert stack.call_count == 0


def test_trial_oracles_reject_uneven_blocks():
    members = _knapsack_members()
    stack = _TrialOracles(members)
    with pytest.raises(DimensionMismatchError):
        stack.query_batch(np.ones((len(members) + 1, 6), dtype=bool))
    with pytest.raises(DimensionMismatchError):
        stack.query(np.ones(6))
    assert [o.call_count for o in members] == [0] * len(members)


_BY_DIMENSION = {
    "slice": SymmetricSliceOracle,
    "knapsack": lambda d: make_knapsack(d, np.random.default_rng(0)),
}


@pytest.mark.parametrize("kind", _BY_DIMENSION)
@pytest.mark.parametrize("d", [2.5, 3.7, 0])
def test_oracle_dimension_must_be_a_positive_integer(kind, d):
    with pytest.raises(DomainError):
        _BY_DIMENSION[kind](d)


@pytest.mark.parametrize("kind", _BY_DIMENSION)
def test_oracle_dimension_accepts_an_integral_float(kind):
    assert _BY_DIMENSION[kind](3.0).d == 3
