"""The leaf layer against the engine's own scalar leaf.

`_LeafBatch` closes leaf parents (prefixes of d - 2 primes).  The search
hands it each node of d - 3 primes (`add_children`), which is cut when
its residue class of w = p * p' * q is empty and otherwise forms its
children's leaf parents: one class count each, then `_route` for a class
that is not empty.  `add_parent` makes those two calls for a parent the
test chooses.  `_complete_final`, run on each candidate of a parent's
slice after the descent's prune, is the scalar leaf the batch replaces.
Both are run here on the same parents and must emit the same numbers.
At or below 2**62 the batch queues a parent and closes it in int64
numpy through its slice or through the residue class of p * q.  Above
2**62 `_route` closes it at once in Python ints: an empty class cuts it
first, a class of fewer than `_CLASS_RATIO` values is walked, and any
other parent loops its slice.  The route tests force each route through
`_CLASS_RATIO` = 0 and 10**9.  A walk keeps w = p * q through the first
slice candidate p dividing it; every completion N = P * p * q has w in
the class, and the slice candidates dividing w are p and possibly
q > p, so p is that first candidate, which the tests check on
completions whose q lies in the slice.
"""

import math
import random
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from carmichael import enumerator
from carmichael.arith import iroot
from carmichael.catalog import write_catalog
from carmichael.enumerator import (
    _build_tables,
    _class_values,
    _complete_final,
    _inverse_mod,
    _LeafBatch,
    _run_task_impl,
    _seed_tasks,
    _spf_table,
    _Tables,
    enumerate_carmichael,
    max_factor_count,
)
from carmichael.korselt import korselt_witness
from carmichael.primes import factorize, is_prime


def fibonacci_below(bound):
    a, b = 1, 2
    while b < bound:
        a, b = b, a + b
    return a, b - a  # the two largest Fibonacci numbers below bound


def test_inverse_mod_matches_pow():
    rng = random.Random(62)
    top = 1 << 62
    f_hi, f_lo = fibonacci_below(top)  # the longest Euclid chain below 2**62
    pairs = [(1, 2), (1, 3), (2, 3), (f_lo, f_hi), (f_hi - f_lo, f_hi)]
    for m in (top - 1, top - 3, top - 57, 5, 97, 1 << 40):
        pairs += [(1, m), (m - 1, m), (m + 1, m), (top - 1, m)]
    while len(pairs) < 20000:
        m = rng.randrange(2, 1 << rng.randint(2, 62))
        a = rng.randrange(1, m)
        pairs.append((a, m))
    pairs = [(a, m) for a, m in pairs if math.gcd(a, m) == 1]
    a = np.array([a for a, _ in pairs], dtype=np.int64)
    m = np.array([m for _, m in pairs], dtype=np.int64)
    got = _inverse_mod(a, m).tolist()
    assert got == [pow(a, -1, m) for a, m in pairs]


def test_inverse_mod_raises_on_a_lane_without_inverse():
    # gcd(6, 9) = 3: that lane's remainder falls to 3, then 0, never 1.
    with pytest.raises(ArithmeticError, match="6 has no inverse modulo 9"):
        _inverse_mod(np.array([6, 2], dtype=np.int64),
                     np.array([9, 7], dtype=np.int64))


class _Recorder(_LeafBatch):
    """A `_LeafBatch` that keeps what the search hands it, and queues
    nothing: the nodes of d - 3 primes (`add_children`) and the leaf
    parents their loop routes."""

    def __init__(self, limit, tables):
        super().__init__(limit, tables)
        self.nodes, self.routed = [], []

    def add_children(self, primes, product, carry, reach, lo, hi):
        assert reach == (self.limit - 1) // product
        self.nodes.append((primes, product, carry, lo, hi))
        super().add_children(primes, product, carry, reach, lo, hi)

    def _route(self, primes, product, carry, reach, lo, hi, start, count):
        assert reach == (self.limit - 1) // product
        self.routed.append((primes, product, carry, lo, hi))


def scalar_leaves(parents, limit, tables):
    """Each candidate p pruned as `_descend` does, then `_complete_final`."""
    out = []
    for primes, product, carry, lo, hi in parents:
        for p in tables.sieve[lo:hi]:
            if carry % p == 0 or math.gcd(product, p - 1) != 1:
                continue
            _complete_final(primes + (p,), product * p, math.lcm(carry, p - 1),
                            limit, out)
    return sorted(out)


def add_parent(batch, parent):
    """Close or queue a parent (primes, product, carry, lo, hi) by the two
    calls the loop of `add_children` makes: its class count, then
    `_route` when the class is not empty."""
    primes, product, carry, lo, hi = parent
    reach = (batch.limit - 1) // product
    if lo < hi:
        floor = batch.tables.sieve[lo] ** 2
        start, count = _class_values(product, carry, floor, reach)
        if count:
            batch._route(primes, product, carry, reach, lo, hi, start, count)


def batched_leaves(parents, limit, tables):
    batch = _LeafBatch(limit, tables)
    for parent in parents:
        add_parent(batch, parent)
    batch.flush()
    return sorted(batch.out)


def record(limit, tables, d=None):
    """A `_Recorder` of a whole search below limit, for every factor count
    or for d alone."""
    recorder = _Recorder(limit, tables)
    for task in _seed_tasks(limit, d or 3, d or max_factor_count(limit),
                            tables):
        _run_task_impl(task, recorder, False)
    return recorder


def every_leaf_parent(limit, tables, d=None):
    """The leaf parents the search routes below limit: those the loop of
    `add_children` forms whose class is not empty."""
    return record(limit, tables, d).routed


def children(nodes, limit, tables):
    """The leaf parents below nodes of d - 3 primes: each child p pruned
    as `_descend` does, with its slice ended at isqrt(R / p), if not
    empty.  Of a recorded search's nodes, every leaf parent with a
    non-empty slice, those below the nodes the cut closes included."""
    sieve, parents = tables.sieve, []
    for primes, product, carry, lo, hi in nodes:
        for after, p in enumerate(sieve[lo:hi], lo + 1):
            if carry % p == 0 or math.gcd(product, p - 1) != 1:
                continue
            product2 = product * p
            end = bisect_right(sieve, math.isqrt((limit - 1) // product2))
            if after < end:
                parents.append((primes + (p,), product2,
                                math.lcm(carry, p - 1), after, end))
    return parents


def test_every_leaf_parent_below_1e9(monkeypatch):
    monkeypatch.setattr(enumerator, "_FLUSH", 1000)  # many flushes, split slices
    routes = RouteSpy(monkeypatch)
    limit = 10**9
    tables = _Tables.for_limit(limit)
    parents = every_leaf_parent(limit, tables)
    batched = batched_leaves(parents, limit, tables)
    assert batched == scalar_leaves(parents, limit, tables)
    assert len(batched) == 646  # C(10**9): every entry closes one parent
    assert routes.classes and routes.slices  # the engine's ratio takes both


def test_one_class_count_routes_each_parent_below_2_62(monkeypatch):
    # No flush: each parent's queue shows the route `_route` chose.
    monkeypatch.setattr(enumerator, "_FLUSH", 1 << 62)
    limit = 10**9
    tables = _Tables.for_limit(limit)
    routes = {"class": 0, "slice": 0, "empty": 0, "below the estimate": 0}
    for parent in children(record(limit, tables).nodes, limit, tables):
        primes, product, carry, lo, hi = parent
        batch, reach = _LeafBatch(limit, tables), (limit - 1) // product
        add_parent(batch, parent)
        count = class_size(parent, limit, tables)
        by_class = (reach < tables.spf_limit
                    and count < enumerator._CLASS_RATIO * (hi - lo))
        queued = "empty" if count == 0 else "class" if by_class else "slice"
        assert (bool(batch.classes), bool(batch.parents)) == (
            queued == "class", queued == "slice")
        routes[queued] += 1
        # Counted over all of [1, R] instead of (pmin**2, R], some classes
        # would be too long for the class route.
        if by_class and reach // carry + 1 >= enumerator._CLASS_RATIO * (hi - lo):
            routes["below the estimate"] += 1
    assert all(routes.values()), routes


@pytest.mark.parametrize("limit, d", [(10**9, None), (2**64, 12)])
def test_an_empty_class_closes_its_parent(monkeypatch, limit, d):
    routes = RouteSpy(monkeypatch)
    tables = _Tables.for_limit(limit, d or 3)
    recorder = record(limit, tables, d)
    parents = children(recorder.nodes, limit, tables)
    empty = []
    for primes, product, carry, lo, hi in parents:
        batch, closed = _LeafBatch(limit, tables), routes.closed_at_once()
        add_parent(batch, (primes, product, carry, lo, hi))
        # Queued at or below 2**62, walked or looped above it.
        closed = (batch.pending + batch.class_pending
                  + routes.closed_at_once() - closed)
        # The first w = p * q = P^-1 (mod L) above pmin**2, against R.
        floor, c = tables.sieve[lo] ** 2, pow(product, -1, carry)
        w = floor + 1 + (c - floor - 1) % carry
        if w > (limit - 1) // product:
            assert closed == 0
            empty.append((primes, product, carry, lo, hi))
        else:
            assert closed > 0
    # Exact: the parents the cut closes have no completion.
    assert 0 < len(empty) < len(parents)
    assert scalar_leaves(empty, limit, tables) == []
    assert not routes.slices and not routes.classes
    # The others still close every completion: at 2**64 by walks and loops.
    batched = batched_leaves(parents, limit, tables)
    assert batched == scalar_leaves(parents, limit, tables)
    assert len(batched) == (646 if d is None else 5)
    if d is None:
        assert sum(hi - lo for *_, lo, hi in routes.slices) > 0
    else:
        assert routes.walks and routes.loops
    # The search routes parents with a class only; the others it drops
    # lie below the nodes the cut closes, and have no completion either.
    routed, live = set(recorder.routed), set(parents) - set(empty)
    assert routed <= live
    assert scalar_leaves(live - routed, limit, tables) == []


class ClassSpy:
    """The (floor, count) of every `_class_values` call."""

    def __init__(self, monkeypatch):
        self.calls = []
        class_values = enumerator._class_values

        def spy(product, carry, floor, reach):
            start, count = class_values(product, carry, floor, reach)
            self.calls.append((floor, count))
            return start, count

        monkeypatch.setattr(enumerator, "_class_values", spy)


def add_node(batch, node):
    """`batch.add_children` of a node (primes, product, carry, lo, hi)."""
    primes, product, carry, lo, hi = node
    batch.add_children(primes, product, carry, (batch.limit - 1) // product,
                       lo, hi)


@pytest.mark.parametrize("limit, d", [(10**9, None), (2**64, 12)])
def test_an_empty_class_of_three_primes_closes_its_node(monkeypatch, limit,
                                                        d):
    tables = _Tables.for_limit(limit, d or 3)
    nodes = record(limit, tables, d).nodes
    windows, spy = tables.windows[3], ClassSpy(monkeypatch)
    cut = []
    for node in nodes:
        primes, product, carry, lo, hi = node
        spy.calls.clear()
        batch = _Recorder(limit, tables)
        add_node(batch, node)
        # The first w = p * p' * q = P^-1 (mod L) from the product of the
        # three consecutive primes from sieve[lo], against R.
        c = pow(product, -1, carry)
        w = windows[lo] + (c - windows[lo]) % carry
        floor, count = spy.calls[0]
        assert floor == windows[lo] - 1
        assert (count > 0) == (w <= (limit - 1) // product)
        if not count:
            # One class count, and no child formed.
            assert len(spy.calls) == 1 and not batch.routed
            cut.append(node)
    # Exact: the nodes the cut closes have no completion.
    assert 0 < len(cut) < len(nodes)
    assert scalar_leaves(children(cut, limit, tables), limit, tables) == []


def test_past_the_window_lists_the_cut_takes_sieve_lo_cubed(monkeypatch):
    # Primes to 2**10: every window of three fits R >= 1019**3, so the
    # root bound ends the children, and the window list stops two short
    # of the sieve.  Each node (a, 1013) hands on its children from
    # sieve[lo] = 1019, where p * p' * q > 1019**3.
    tables = _Tables(2**10, *_build_tables.__wrapped__(2**10), 4096,
                     _spf_table.__wrapped__(4096))
    sieve, spy = tables.sieve, ClassSpy(monkeypatch)
    lo = bisect_right(sieve, 1013)
    nodes = cut = 0
    for reach in (1019**3 + 10**5, 1021**3 + 10**5):
        for a in sieve[1:lo - 1]:
            product, carry = a * 1013, math.lcm(a - 1, 1012)
            if math.gcd(product, carry) != 1:
                continue
            limit = product * reach + 1
            hi = tables.child_end(reach, 3)
            assert len(tables.windows[3]) <= lo < hi
            node = ((a, 1013), product, carry, lo, hi)
            spy.calls.clear()
            batch = _LeafBatch(limit, tables)
            add_node(batch, node)
            batch.flush()
            floor, count = spy.calls[0]
            assert floor == 1019**3
            parents = children([node], limit, tables)
            assert sorted(batch.out) == scalar_leaves(parents, limit, tables)
            nodes += 1
            if not count:
                assert len(spy.calls) == 1
                cut += 1
    assert 0 < cut < nodes


def chernick_parents(limit, tables, count, factors=3):
    """Parents of (6k+1)(12k+1)(18k+1), or of that times 36k+1 when
    factors=4, whose slice holds 12k+1 (or 18k+1), closed by the last."""
    sieve = tables.sieve
    k = min(iroot(limit // 1296, 3), (sieve[-1] - 1) // (6 * factors - 6) - 4)
    parents, expected = [], []
    while len(parents) < count and k > 0:
        primes = (6 * k + 1, 12 * k + 1, 18 * k + 1, 36 * k + 1)[:factors]
        if math.prod(primes) < limit and all(map(is_prime, primes)):
            head = primes[:-2]
            i = bisect_left(sieve, primes[-2])
            lo = max(bisect_right(sieve, head[-1]), i - 20)
            parents.append((head, math.prod(head),
                            math.lcm(*(p - 1 for p in head)), lo,
                            min(i + 20, len(sieve))))
            expected.append((math.prod(primes), primes))
        k -= 1
    return parents, expected


def random_parents(rng, limit, tables, count):
    """Prefixes of 1 to 4 small odd primes with gcd(P, L) = 1."""
    sieve = tables.sieve
    parents = []
    while len(parents) < count:
        idx = sorted(rng.sample(range(1, 2000), rng.randint(1, 4)))
        primes = tuple(sieve[i] for i in idx)
        product = math.prod(primes)
        carry = math.lcm(*(p - 1 for p in primes))
        if math.gcd(product, carry) != 1:
            continue
        lo = idx[-1] + 1
        top = bisect_right(sieve, math.isqrt((limit - 1) // product))
        hi = min(top, lo + rng.randint(1, 1500))
        if lo < hi:
            parents.append((primes, product, carry, lo, hi))
    return parents


# 852863868951625009 = 521887 * 1043773 * 1565659 (k = 86981): one above it,
# its last prime is exactly rmax = (limit - 1) // (P * p).
@pytest.mark.parametrize(
    "limit", [10**12, 3 * 10**15 + 1, 852863868951625010, 2**61 + 12345, 2**62]
)
def test_random_leaf_parents_up_to_2_62(monkeypatch, limit):
    monkeypatch.setattr(enumerator, "_FLUSH", 4096)
    # The tables of 10**12 (primes to 2**20); slices stop at their top.
    tables = _Tables.for_limit(10**12)
    parents, expected = chernick_parents(limit, tables, 5)
    parents += random_parents(random.Random(limit), limit, tables, 40)
    random.Random(limit).shuffle(parents)
    batched = batched_leaves(parents, limit, tables)
    assert batched == scalar_leaves(parents, limit, tables)
    assert len(expected) == 5
    assert set(expected) <= set(batched)


def leaf_spans(parents, limit, tables):
    """(rmax - t) // L2 + 1, as `flush` measures it, for every leaf with
    rmax > p and t <= rmax, where rmax is capped at (P2 + 1) // 2."""
    spans = []
    for primes, product, carry, lo, hi in parents:
        for p in tables.sieve[lo:hi]:
            if carry % p == 0 or math.gcd(product, p - 1) != 1:
                continue
            product2, carry2 = product * p, math.lcm(carry, p - 1)
            rmax = min((limit - 1) // product2, (product2 + 1) // 2)
            t = pow(product2 % carry2, -1, carry2)
            if rmax > p and rmax >= t:
                spans.append((rmax - t) // carry2 + 1)
    return spans


def test_a_flush_of_parents_with_different_d(monkeypatch):
    limit = 10**9
    tables = _Tables.for_limit(limit)
    parents = every_leaf_parent(limit, tables)
    random.Random(9).shuffle(parents)  # every close mixes the factor counts
    routes = RouteSpy(monkeypatch)
    batched = batched_leaves(parents, limit, tables)
    assert batched == scalar_leaves(parents, limit, tables)
    assert len(batched) == 646
    # A class of one parent can fill much of a close, so each close of
    # either queue mixes at least three of the factor counts, not all.
    for queues in routes.closes.values():
        widths = [{len(x[0]) for x in queue} for _, queue in queues]
        assert len(widths) > 1 and all(len(w) >= 3 for w in widths)
        assert {1, 2, 3, 4} <= set().union(*widths)


@pytest.mark.parametrize("limit, flush", [(10**9, 1000), (10**10, None)])
def test_each_queue_closes_only_when_it_is_full(monkeypatch, limit, flush):
    # A full queue closes itself alone, so every close but a batch's last
    # of each queue gets exactly _FLUSH lanes; one queue filling never
    # closes the other early.
    if flush is not None:
        monkeypatch.setattr(enumerator, "_FLUSH", flush)
    routes = RouteSpy(monkeypatch)
    catalog = enumerate_carmichael(limit)
    assert len(catalog.entries) == {10**9: 646, 10**10: 1547}[limit]
    for name, queues in routes.closes.items():
        batches: dict = {}
        for batch, queue in queues:
            lanes = sum(hi - lo for *_, lo, hi in queue)
            batches.setdefault(id(batch), []).append(lanes)
        assert len(batches) > 1, name
        full = [lanes for sizes in batches.values() for lanes in sizes[:-1]]
        assert len(full) > len(batches), name
        assert set(full) == {enumerator._FLUSH}, name


# 2741311 = 1171 * 2341 = P2 of the Chernick number 1171 * 2341 * 3511
# (k = 195): with L2 = 2340 the terms run t = 1171, 3511, ..., and
# (P2 + 1) // 2 caps them at 586, so spans of 512 and 513 both fit.
@pytest.mark.parametrize("span, scalar", [(512, 0), (513, 1)])
def test_progressions_of_up_to_512_terms_stay_in_the_batch(monkeypatch, span,
                                                           scalar):
    head, p, q = (1171,), 2341, 3511
    product2, carry2 = math.prod(head) * p, math.lcm(1170, 2340)
    t = pow(product2 % carry2, -1, carry2)
    limit = product2 * (t + (span - 1) * carry2) + 1  # rmax: the span-th term
    assert (limit - 1) // product2 < (product2 + 1) // 2  # the cap is slack
    tables = _Tables.for_limit(10**12)
    i = bisect_left(tables.sieve, p)
    parents = [(head, math.prod(head), 1170, i, i + 1)]
    assert leaf_spans(parents, limit, tables) == [span]
    calls = []
    complete = enumerator._complete_final

    def spy(primes, *rest):
        calls.append(primes)
        complete(primes, *rest)

    monkeypatch.setattr(enumerator, "_complete_final", spy)
    batched = batched_leaves(parents, limit, tables)
    assert batched == scalar_leaves(parents, limit, tables)
    assert (product2 * q, head + (p, q)) in batched
    assert len(calls) == scalar


def smooth_parents(rng, limit, tables, count):
    """Prefixes of 2 or 3 primes p > 3 with p - 1 of the form 2**a * 3**b:
    their L is small against P, so the cap (P2 + 1) // 2 still leaves
    progressions of more than 24, and some of more than 512, terms."""
    parents = []
    while len(parents) < count:
        primes = tuple(sorted(rng.sample((5, 7, 13, 17, 19, 37, 73, 97),
                                         rng.randint(2, 3))))
        product = math.prod(primes)
        lo = bisect_right(tables.sieve, primes[-1])
        hi = bisect_right(tables.sieve, math.isqrt((limit - 1) // product))
        if lo < hi:
            parents.append((primes, product,
                            math.lcm(*(p - 1 for p in primes)), lo, hi))
    return parents


@pytest.mark.parametrize("limit", [10**10, 10**12])
def test_random_parents_with_long_progressions(monkeypatch, limit):
    monkeypatch.setattr(enumerator, "_FLUSH", 4096)
    tables = _Tables.for_limit(10**12)
    rng = random.Random(limit)
    parents = (random_parents(rng, limit, tables, 40)
               + smooth_parents(rng, limit, tables, 20))
    spans = leaf_spans(parents, limit, tables)
    # Short, batched long and scalar long progressions all occur.
    assert min(spans) <= 24 and max(spans) > 512
    assert sum(24 < s <= 512 for s in spans) > 300
    assert batched_leaves(parents, limit, tables) == scalar_leaves(
        parents, limit, tables)


def plain_completions(primes, limit):
    """P * q for every q in (p_last, (limit - 1) // P] that is prime and
    meets Korselt's criterion: no cap, residue class or divisor."""
    product, out = math.prod(primes), []
    for q in range(primes[-1] + 1, (limit - 1) // product + 1):
        n = product * q
        if korselt_witness(n, primes + (q,)) is None and is_prime(q):
            out.append((n, primes + (q,)))
    return out


# Prefixes whose last prime is exactly the cap (P + 1) // 2 (k = 2):
# 561 = 3 * 11 * 17, 8911 = 7 * 19 * 67, 10585 = 5 * 29 * 73,
# 115921 = 13 * 37 * 241, 6313681 = 11 * 17 * 19 * 1777,
# 8134561 = 37 * 109 * 2017 and 32914441 = 7 * 19 * 61 * 4057.
AT_THE_CAP = [(3, 11), (7, 19), (5, 29), (13, 37), (11, 17, 19), (37, 109),
              (7, 19, 61)]
# L = 72 and P = 4670029: at 2 * 10**11 the leaf's progression has about
# 594 terms below the cap, so it takes the divisor route.
LONG = (7, 13, 19, 37, 73)
# L = 240 and P = 306617311: P - 1 = 2 * 3**2 * 5 * 1321 * 2579 lies above
# every smallest-factor table, and `factorize` splits 1321 * 2579 by rho,
# past its trial division.  At 4 * 10**13 the leaf's progression has 544
# terms, so it takes the divisor route, and q - 1 = 2 * 3 * 5 * 1321
# completes it.
ABOVE_THE_TABLES = (7, 11, 13, 31, 41, 241)
# The prefix that each limit above 10**9 sends to the divisor route.
DIVISOR_ROUTE = {2 * 10**11: LONG, 4 * 10**13: ABOVE_THE_TABLES}


def small_prefixes(rng, limit, tables, count, most):
    """Prefixes of 2 to 4 odd primes, p1 < 50, with gcd(P, L) = 1 and at
    most `most` values q in (p_last, (limit - 1) // P]."""
    sieve, prefixes = tables.sieve, []
    while len(prefixes) < count:
        first = rng.randrange(1, 15)
        idx = sorted({first, *rng.sample(range(first + 1, 400),
                                         rng.randint(1, 3))})
        primes = tuple(sieve[i] for i in idx)
        product = math.prod(primes)
        if (math.gcd(product, math.lcm(*(p - 1 for p in primes))) == 1
                and primes[-1] < (limit - 1) // product <= most):
            prefixes.append(primes)
    return prefixes


@pytest.mark.parametrize("limit, most", [(10**6, 10**4), (10**8, 3 * 10**4),
                                         (2 * 10**11, 5 * 10**4),
                                         (4 * 10**13, 15 * 10**4)])
def test_the_cap_on_the_last_prime_loses_no_completion(monkeypatch, limit,
                                                        most):
    # Ratio 0 sends every parent to the slice route, whose flush caps rmax.
    monkeypatch.setattr(enumerator, "_CLASS_RATIO", 0)
    tables = _Tables.for_limit(10**12)
    prefixes = [x for x in AT_THE_CAP + [LONG, ABOVE_THE_TABLES]
                if (limit - 1) // math.prod(x) <= most]
    prefixes += small_prefixes(random.Random(limit), limit, tables, 40, most)
    parents, expected, capped = {}, [], 0
    for primes in prefixes:
        product = math.prod(primes)
        carry = math.lcm(*(p - 1 for p in primes))
        plain = plain_completions(primes, limit)
        out: list = []
        _complete_final(primes, product, carry, limit, out)
        assert sorted(out) == plain, primes
        expected += plain
        capped += (limit - 1) // product > (product + 1) // 2
        head = primes[:-1]
        i = bisect_left(tables.sieve, primes[-1])
        parents[primes] = (head, math.prod(head),
                           math.lcm(*(p - 1 for p in head)), i, i + 1)
    batched = batched_leaves(list(parents.values()), limit, tables)
    assert batched == sorted(expected)
    if limit < 10**9:
        # The cap binds, and some completions sit exactly on it.
        assert capped and any(n == q * (2 * q - 1) for n, (*_, q) in expected)
    else:
        long = DIVISOR_ROUTE[limit]
        assert leaf_spans([parents[long]], limit, tables)[0] > 512


@pytest.mark.parametrize("piece", [1, 100])
def test_the_terms_are_expanded_in_many_pieces(monkeypatch, piece):
    # _PIECE = 1 gives every lane a piece of its own.
    monkeypatch.setattr(enumerator, "_PIECE", piece)
    limit = 10**12
    tables = _Tables.for_limit(limit)
    parents = random_parents(random.Random(piece), limit, tables, 40)
    batched = batched_leaves(parents, limit, tables)
    assert batched and batched == scalar_leaves(parents, limit, tables)


class RouteSpy:
    """What each close hands to the class route and to the slice route, and
    the parents `_route` walks or loops at once above 2**62.  `closes`
    keeps each close's batch and queue, per queue."""

    def __init__(self, monkeypatch):
        self.classes, self.slices, self.walks, self.loops = [], [], [], []
        self.closes = {"classes": [], "slices": []}
        close_classes = _LeafBatch._close_classes
        close_slices = _LeafBatch._close_slices
        walk, loop = _LeafBatch._walk_class, _LeafBatch._loop_slice

        def classes(batch, queue):
            self.classes.append([hi - lo for *_, lo, hi in queue])
            self.closes["classes"].append((batch, queue))
            close_classes(batch, queue)

        def slices(batch, queue):
            self.slices += queue
            self.closes["slices"].append((batch, queue))
            close_slices(batch, queue)

        def walks(batch, primes, product, values, candidates):
            self.walks.append((primes, len(values)))
            walk(batch, primes, product, values, candidates)

        def loops(batch, primes, product, carry, candidates):
            self.loops.append(primes)
            loop(batch, primes, product, carry, candidates)

        monkeypatch.setattr(_LeafBatch, "_close_classes", classes)
        monkeypatch.setattr(_LeafBatch, "_close_slices", slices)
        monkeypatch.setattr(_LeafBatch, "_walk_class", walks)
        monkeypatch.setattr(_LeafBatch, "_loop_slice", loops)

    def closed_at_once(self):
        return len(self.walks) + len(self.loops)

    def check(self, ratio, limit, tables):
        """Ratio 0 keeps the class route idle; 10**9 gives it every parent
        whose reach is inside the factor table."""
        if ratio == 0:
            assert not self.classes
        if ratio == 10**9:
            assert self.classes
            assert all((limit - 1) // product >= tables.spf_limit
                       for _, product, *_ in self.slices)


# 0: slices only; None: the engine's ratio; 10**9: classes wherever allowed.
ROUTES = pytest.mark.parametrize("ratio", [0, None, 10**9])


def set_ratio(monkeypatch, ratio):
    if ratio is not None:
        monkeypatch.setattr(enumerator, "_CLASS_RATIO", ratio)


@pytest.mark.parametrize("ratio", [0, 10**9])
def test_every_leaf_parent_below_1e9_by_either_route(monkeypatch, ratio):
    set_ratio(monkeypatch, ratio)
    routes = RouteSpy(monkeypatch)
    limit = 10**9
    tables = _Tables.for_limit(limit)
    parents = every_leaf_parent(limit, tables)
    batched = batched_leaves(parents, limit, tables)
    assert batched == scalar_leaves(parents, limit, tables)
    assert len(batched) == 646
    routes.check(ratio, limit, tables)


def cut_slices(rng, parents):
    """The parents, then each again with its slice cut at both ends."""
    cut = []
    for primes, product, carry, lo, hi in parents:
        a, b = sorted(rng.randint(lo, hi) for _ in range(2))
        cut.append((primes, product, carry, a, b))
    return parents + cut


@ROUTES
@pytest.mark.parametrize("limit", [10**10, 10**12])
def test_random_partial_slices_by_either_route(monkeypatch, limit, ratio):
    monkeypatch.setattr(enumerator, "_FLUSH", 4096)
    set_ratio(monkeypatch, ratio)
    routes = RouteSpy(monkeypatch)
    tables = _Tables.for_limit(10**12)
    rng = random.Random(limit)
    parents, expected = chernick_parents(limit, tables, 5)
    parents = cut_slices(rng, parents + random_parents(rng, limit, tables, 60))
    rng.shuffle(parents)
    batched = batched_leaves(parents, limit, tables)
    assert batched == scalar_leaves(parents, limit, tables)
    assert len(expected) == 5 and set(expected) <= set(batched)
    routes.check(ratio, limit, tables)


def test_a_d3_class_spans_several_flush_pieces(monkeypatch):
    # p1 = 131 closes 5 Carmichael numbers below 10**9; its class of p * q
    # holds about R / 130 = 58719 values, its slice 335 candidates.
    monkeypatch.setattr(enumerator, "_CLASS_RATIO", 10**9)
    routes = RouteSpy(monkeypatch)
    limit, p1 = 10**9, 131
    tables = _Tables.for_limit(limit)
    reach = (limit - 1) // p1
    lo = bisect_right(tables.sieve, p1)
    hi = bisect_right(tables.sieve, math.isqrt(reach))
    parents = [((p1,), p1, p1 - 1, lo, hi)]
    batched = batched_leaves(parents, limit, tables)
    assert len(batched) == 5
    assert batched == scalar_leaves(parents, limit, tables)
    floor, c = tables.sieve[lo] ** 2, pow(p1, -1, p1 - 1)
    pieces = [n for flush in routes.classes for n in flush]
    assert len(pieces) >= 3 and max(pieces) <= enumerator._FLUSH
    assert sum(pieces) == sum(w > floor for w in range(c, reach + 1, p1 - 1))
    assert not routes.slices


@ROUTES
def test_a_slice_cut_at_a_completion_closes_it_once(monkeypatch, ratio):
    # Each of p1 = 131's five numbers 131 * p * q is closed by the half
    # of the slice that holds p, and only by that half.
    set_ratio(monkeypatch, ratio)
    limit, p1 = 10**9, 131
    tables = _Tables.for_limit(limit)
    lo = bisect_right(tables.sieve, p1)
    hi = bisect_right(tables.sieve, math.isqrt((limit - 1) // p1))
    whole = [((p1,), p1, p1 - 1, lo, hi)]
    expected = scalar_leaves(whole, limit, tables)
    assert len(expected) == 5
    for _, (_, p, _) in expected:
        i = bisect_left(tables.sieve, p)
        for cut in (i, i + 1):
            halves = [((p1,), p1, p1 - 1, lo, cut), ((p1,), p1, p1 - 1, cut, hi)]
            assert batched_leaves(halves, limit, tables) == expected


def test_catalogs_from_one_and_two_workers_are_byte_identical(tmp_path):
    paths = []
    for workers in (1, 2):
        path = tmp_path / f"j{workers}.txt"
        write_catalog(enumerate_carmichael(10**8, worker_count=workers), path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def class_size(parent, limit, tables):
    primes, product, carry, lo, hi = parent
    return _class_values(product, carry, tables.sieve[lo] ** 2,
                         (limit - 1) // product)[1]


# The factor count of a search below each limit whose leaf parents take
# every route above 2**62: most are cut, many walked and some, at 2**64,
# looped.
DEEP = {2**64: 12, 2**80: 15, 2**96: 17}


@pytest.mark.parametrize("limit, factors", [(2**64, 3), (2**80, 3), (2**96, 4)])
def test_random_leaf_parents_above_2_62(monkeypatch, limit, factors):
    routes = RouteSpy(monkeypatch)
    tables = _Tables.for_limit(10**12)
    # Chernick and random parents have long classes: the slice loop.
    parents, expected = chernick_parents(limit, tables, 5, factors)
    assert len(expected) == 5
    parents += random_parents(random.Random(limit), limit, tables, 10)
    parents += children(record(limit, tables, DEEP[limit]).nodes, limit,
                        tables)
    reference = scalar_leaves(parents, limit, tables)
    assert set(expected) <= set(reference)
    sizes = [class_size(x, limit, tables) for x in parents]
    cut = sum(size == 0 for size in sizes)
    assert 0 < cut < len(parents)
    assert batched_leaves(parents, limit, tables) == reference
    ratio = enumerator._CLASS_RATIO
    assert len(routes.walks) == sum(0 < size < ratio for size in sizes) > 0
    assert len(routes.loops) == sum(size >= ratio for size in sizes) > 0
    # Ratio 0 loops every parent the cut leaves; 10**9 walks every one, and
    # is given the parents whose classes are short enough to walk here.
    for ratio, kept in ((0, parents),
                        (10**9, [x for x, size in zip(parents, sizes)
                                 if size < 1000])):
        set_ratio(monkeypatch, ratio)
        walks, loops = len(routes.walks), len(routes.loops)
        assert batched_leaves(kept, limit, tables) == scalar_leaves(
            kept, limit, tables)
        walks, loops = len(routes.walks) - walks, len(routes.loops) - loops
        live = sum(class_size(x, limit, tables) > 0 for x in kept)
        assert (walks, loops) == ((0, live) if ratio == 0 else (live, 0))
    assert not routes.slices and not routes.classes


def leaf_parent(n, limit, tables):
    """The leaf parent the search forms for the Carmichael number n
    below limit, and n's primes."""
    primes = tuple(p for p, _ in factorize(n).factors)
    head = primes[:-2]
    product = math.prod(head)
    lo = bisect_right(tables.sieve, head[-1])
    hi = tables.child_end((limit - 1) // product, 2)
    return (head, product, math.lcm(*(p - 1 for p in head)), lo, hi), primes


# The smallest Carmichael numbers with 14 and 17 factors, and one with 12.
@pytest.mark.parametrize("limit, n", [
    (2**64, 7156857700403137441),
    (2**80, 87674969936234821377601),
    (2**96, 35237869211718889547310642241),
])
def test_a_walk_takes_the_first_candidate_dividing_w(monkeypatch, limit, n):
    # Both p and q lie in the slice, so the slice candidates dividing
    # w = p * q are p and q; only p, the first, gives q = w // p > p.
    routes = RouteSpy(monkeypatch)
    tables = _Tables.for_limit(10**12)
    parent, primes = leaf_parent(n, limit, tables)
    head, product, carry, lo, hi = parent
    assert tables.sieve[lo] <= primes[-2] < primes[-1] <= tables.sieve[hi - 1]
    size = class_size(parent, limit, tables)
    assert 0 < size < enumerator._CLASS_RATIO
    batched = batched_leaves([parent], limit, tables)
    assert (n, primes) in batched
    assert routes.walks == [(head, size)]
    # The slice loop closes it too, and either route closes it once from
    # the halves of the slice cut on either side of p.
    i = bisect_left(tables.sieve, primes[-2])
    for ratio in (None, 0):
        set_ratio(monkeypatch, ratio)
        assert batched_leaves([parent], limit, tables) == batched
        for cut in (i, i + 1):
            halves = [(head, product, carry, lo, cut),
                      (head, product, carry, cut, hi)]
            assert batched_leaves(halves, limit, tables) == batched
    assert head in routes.loops


def test_limits_above_2_62_queue_nothing(monkeypatch):
    flushed = []
    flush = _LeafBatch.flush

    def spy(self):
        flushed.append(len(self.parents) + len(self.classes))
        flush(self)

    monkeypatch.setattr(_LeafBatch, "flush", spy)
    routes = RouteSpy(monkeypatch)
    batched = enumerate_carmichael(2**64, 12, 12).entries
    assert len(batched) == 5 and flushed and sum(flushed) == 0
    assert routes.walks and routes.loops
    for ratio in (0, 10**9):
        set_ratio(monkeypatch, ratio)
        walks, loops = len(routes.walks), len(routes.loops)
        assert enumerate_carmichael(2**64, 12, 12).entries == batched
        # Only the forced route runs: loops at ratio 0, walks at 10**9.
        walked, looped = len(routes.walks) > walks, len(routes.loops) > loops
        assert (walked, looped) == (ratio != 0, ratio == 0)
    assert sum(flushed) == 0 and not routes.slices and not routes.classes


def test_each_parent_above_2_62_takes_the_route_its_class_picks(monkeypatch):
    tables = _Tables.for_limit(2**64, 12)
    reference = enumerate_carmichael(2**64, 12, 12).entries
    routes = RouteSpy(monkeypatch)
    sizes, nodes = {}, []
    route, descend = _LeafBatch._route, enumerator._descend

    def route_spy(self, primes, product, carry, reach, lo, hi, start, count):
        assert reach == (self.limit - 1) // product
        # The slice `_descend` would give the parent, and its class count.
        assert lo < hi == tables.child_end(reach, 2)
        sizes[primes] = class_size((primes, product, carry, lo, hi),
                                   self.limit, tables)
        assert count == sizes[primes] > 0
        route(self, primes, product, carry, reach, lo, hi, start, count)

    def descend_spy(leaves, d, primes, *rest):
        nodes.append(len(primes))
        descend(leaves, d, primes, *rest)

    monkeypatch.setattr(_LeafBatch, "_route", route_spy)
    monkeypatch.setattr(enumerator, "_descend", descend_spy)
    assert enumerate_carmichael(2**64, 12, 12).entries == reference
    # `add_children` forms every leaf parent; no node of d - 2 primes is
    # visited.
    assert max(nodes) == 12 - 3
    ratio = enumerator._CLASS_RATIO
    assert sorted(p for p, _ in routes.walks) == sorted(
        p for p, size in sizes.items() if size < ratio)
    assert sorted(routes.loops) == sorted(
        p for p, size in sizes.items() if size >= ratio)
    assert all(size == sizes[p] for p, size in routes.walks)
