import ctypes
import functools
import math
import os
import random
import subprocess
import sys
from bisect import bisect_right
from types import SimpleNamespace

import pytest

from carmichael import enumerator
from carmichael.arith import iroot
from carmichael.catalog import write_catalog
from carmichael.enumerator import (
    _check_decades,
    _chunk,
    _complete_final,
    _run_task_impl,
    _LeafBatch,
    _seed_tasks,
    _Tables,
    enumerate_carmichael,
    max_factor_count,
)
from carmichael.extremal import smallest_with_factors
from carmichael.korselt import fermat_scan, oracle_enumerate


def completions(primes, limit):
    """Last primes q that `_complete_final` finds for the prefix."""
    out = []
    _complete_final(primes, math.prod(primes), math.lcm(*(p - 1 for p in primes)),
                    limit, out)
    return [fs[-1] for _, fs in out]


def by_factor_count(cat):
    out = {}
    for e in cat.entries:
        out[len(e.factors)] = out.get(len(e.factors), 0) + 1
    return out


def test_max_factor_count_known_points():
    assert max_factor_count(10**3) == 3
    assert max_factor_count(561) == 3
    # 3*5*...*43 = 6541380665835015 < 10**16, and appending 47 overshoots,
    # so the a-priori bound at 10**16 is 13.
    assert max_factor_count(10**16) == 13
    assert max_factor_count(6541380665835015) == 12
    assert max_factor_count(6541380665835016) == 13


def test_max_factor_count_rejects_small_limit():
    # No small limit is rejected: below 1155 = 3*5*7*11 the answer is 3,
    # the fewest factors a Carmichael number has.
    assert max_factor_count(560) == 3
    assert max_factor_count(100) == 3
    assert max_factor_count(1155) == 3
    assert max_factor_count(1156) == 4


def test_seed_tasks_cover_every_prefix():
    tables = _Tables.for_limit(10**3)
    # p1 <= iroot(999, 3) = 9, and p1 * p2 * p3 >= 7 * 11 * 13 = 1001
    # excludes p1 = 7: the root's children 3 and 5, one task each.
    assert _seed_tasks(10**3, 3, max_factor_count(10**3), tables) == [
        (3, (), 1, 2), (3, (), 2, 3)]
    limit = 10**6
    tables = _Tables.for_limit(limit)
    tasks = _seed_tasks(limit, 3, max_factor_count(limit), tables)
    # The root's range starts past the prime 2, which its prune passes.
    assert all(lo >= 1 for _, _, lo, _ in tasks)
    assert {len(prefix) for d, prefix, _, _ in tasks if d > 3} == {1}
    entries = oracle_enumerate(limit)
    assert {len(e.factors) for e in entries} == {3, 4, 5}
    for e in entries:
        # Each entry lies below exactly one task: its prefix, then a child
        # in the task's range.
        owners = [task for task in tasks if task[0] == len(e.factors)
                  and e.factors[:len(task[1])] == task[1]
                  and e.factors[len(task[1])] in tables.sieve[task[2]:task[3]]]
        assert len(owners) == 1, (e, owners)


def joined(tasks):
    """Each node's tasks joined into one task of all its children."""
    nodes = {}
    for d, prefix, lo, hi in tasks:
        start, end = nodes.get((d, prefix), (lo, lo))
        assert end == lo  # a node's tasks are neighbours, in order
        nodes[d, prefix] = (start, hi)
    return [(d, prefix, lo, hi) for (d, prefix), (lo, hi) in nodes.items()]


def cut(tasks, rng):
    """Each task's range cut at up to three random points, some pieces
    empty."""
    out = []
    for d, prefix, lo, hi in tasks:
        cuts = sorted(rng.randint(lo, hi) for _ in range(rng.randint(0, 3)))
        out += [(d, prefix, a, b) for a, b in zip([lo, *cuts], [*cuts, hi])]
    return out


@pytest.mark.parametrize("limit, d", [(10**7, None), (2**64, 12)])
def test_any_cut_of_the_task_ranges_gives_the_same_catalog(monkeypatch,
                                                           limit, d):
    reference = enumerate_carmichael(limit, d or 3, d).entries
    assert len(reference) == (105 if d is None else 5)
    seed, rng = enumerator._seed_tasks, random.Random(limit)
    for recut in (joined, lambda tasks: cut(joined(tasks), rng)):
        monkeypatch.setattr(enumerator, "_seed_tasks",
                            lambda *args: recut(seed(*args)))
        assert enumerate_carmichael(limit, d or 3, d).entries == reference


def brute_child_range(primes, d, limit, sieve):
    """Children p > primes[-1] with p**m <= R and, for m >= 3, the m
    consecutive primes from p (a window past the sieve's end fits) with
    product at most R = (limit - 1) // P."""
    reach, m = (limit - 1) // math.prod(primes), d - len(primes)
    lo = next(i for i, p in enumerate(sieve) if p > max(primes, default=2))
    hi = lo
    for i in range(lo, len(sieve)):
        window = sieve[i : i + m]
        if sieve[i] ** m > reach or (
                m >= 3 and len(window) == m and math.prod(window) > reach):
            break
        hi = i + 1
    return lo, hi


BRUTE_LIMITS = [10**4, 10**12, 2**64, 2**90]


def fresh_tables_to(top):
    """Uncached tables of the primes below top, with empty window lists
    and the smallest-factor table of 4096."""
    return _Tables(top, *enumerator._build_tables.__wrapped__(top), 4096,
                   enumerator._spf_table.__wrapped__(4096))


def child_range(primes, product, d, limit, tables):
    """The slice sieve[lo:hi] of primes that can follow the prefix: lo by
    bisection (index 1 for no prefix, past the prime 2) and hi by
    `child_end`, as the task seeds and `_descend` take them."""
    lo = bisect_right(tables.sieve, primes[-1]) if primes else 1
    return lo, tables.child_end((limit - 1) // product, d - len(primes))


def random_child_cuts(tables, limit, rng, cases):
    """`child_end` against the brute force on random prefixes; for each,
    how far the window bound cuts below the root bound."""
    sieve = tables.sieve
    cuts = []
    for _ in range(cases):
        d = rng.randint(3, max(3, min(20, limit.bit_length() // 4)))
        k = rng.randint(0, d - 2)
        idx = sorted(rng.sample(range(1, min(len(sieve), 60)), k))
        primes = tuple(sieve[i] for i in idx)
        product = math.prod(primes)
        if product >= limit:
            continue
        lo, hi = child_range(primes, product, d, limit, tables)
        # hi < lo when primes[-1] already exceeds the bound.
        assert sieve[lo:hi] == sieve[slice(
            *brute_child_range(primes, d, limit, sieve))]
        root = bisect_right(sieve, iroot((limit - 1) // product, d - k))
        cuts.append(root - max(lo, hi) if d - k >= 3 else 0)
    return cuts


@pytest.mark.parametrize("limit", BRUTE_LIMITS)
def test_child_range_against_brute_force(limit):
    rng = random.Random(limit)
    # Primes to 2**13 and to 2**10, whose ends the windows run past.  Each
    # table is fresh, so its window lists are first grown for this limit;
    # then the same table serves every limit ascending and descending, so
    # lists grown for a smaller limit serve a larger one and the other way.
    for top in (2**13, 2**10):
        tables = fresh_tables_to(top)
        cuts = random_child_cuts(tables, limit, rng, 300)
        # The window bound cuts below the root bound in many cases.
        assert sum(c > 0 for c in cuts) >= 10
        for other in BRUTE_LIMITS + BRUTE_LIMITS[::-1]:
            random_child_cuts(tables, other, rng, 40)


def test_child_range_is_tighter_than_the_root_bound():
    # 3 * 5 * 7 * 11 * 13 = 15015: iroot(15015, 5) = 6 would admit p1 = 5,
    # but 5 * 7 * 11 * 13 * 17 = 85085 > 15015.
    tables = _Tables.for_limit(10**6)
    sieve = tables.sieve
    assert child_range((), 1, 5, 15016, tables) == (1, 2)
    assert child_range((), 1, 5, 15015, tables) == (1, 1)
    # m = 2 keeps p <= isqrt(R): 11 * 13 = 143 > 130, yet 11**2 <= 130.
    assert [sieve[i] for i in range(*child_range((3,), 3, 3, 391, tables))] == [
        5, 7, 11]


def test_smallest_with_13_factors_visits_the_same_nodes(monkeypatch):
    # The `_descend` calls, the nodes of d - 3 primes and the leaf parents
    # whose class is counted over the bounds `smallest_with_factors(13)`
    # doubles through, as in BENCH_smallest.json: how a node bounds its
    # children may change, the nodes it visits may not.  Each task, one
    # child of a node (p1,), is one `_descend` call of that node.
    counts = {"nodes": 0, "grandparents": 0, "class counts": 0}

    def counting(name, fn):
        def spy(*args):
            counts[name] += 1
            return fn(*args)
        return spy

    monkeypatch.setattr(enumerator, "_descend",
                        counting("nodes", enumerator._descend))
    monkeypatch.setattr(enumerator, "_class_values",
                        counting("class counts", enumerator._class_values))
    monkeypatch.setattr(_LeafBatch, "add_children",
                        counting("grandparents", _LeafBatch.add_children))
    assert smallest_with_factors(13).value == 1791562810662585767521
    # One class count cuts or keeps each node of d - 3 primes; the rest
    # close or route leaf parents.
    assert counts["nodes"] == 66845
    assert counts["grandparents"] == 36415
    assert counts["class counts"] - counts["grandparents"] == 87044


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty table caches for the test, restored afterwards, so that the
    tables it builds are seen and freed."""
    for name in ("_build_tables", "_spf_table"):
        cached = getattr(enumerator, name)
        monkeypatch.setattr(enumerator, name, functools.lru_cache(
            **cached.cache_parameters())(cached.__wrapped__))


def test_tables_of_one_sieve_top_share_the_sieve(fresh_tables):
    # 60000 and 10**5 both sieve to 2**8, with factor tables of 2**15 and
    # 2**16: the sieve depends on sieve_top alone.
    a, b = _Tables.for_limit(60_000), _Tables.for_limit(10**5)
    assert a.sieve_top == b.sieve_top == 2**8
    assert (a.spf_limit, b.spf_limit) == (2**15, 2**16)
    assert a.sieve is b.sieve and a.sieve64 is b.sieve64
    assert a.windows is b.windows


def test_a_smallest_pass_builds_each_sieve_once_per_factor_count(
        monkeypatch):
    # Each d doubles its bound through sieve_tops 2**7 and up; a table of
    # another size does not rebuild a sieve.
    built, build = [], enumerator._build_tables

    def spy(sieve_top):
        built.append(sieve_top)
        return build.__wrapped__(sieve_top)

    monkeypatch.setattr(enumerator, "_build_tables", functools.lru_cache(
        **build.cache_parameters())(spy))
    for d in range(13, 18):
        start = len(built)
        smallest_with_factors(d)
        assert len(set(built[start:])) == len(built) - start
    assert len(built) == 49


def test_the_sieve_bound_admits_1e18_and_refuses_1e19(monkeypatch):
    # A full catalog at 10**18 sieves to 2**30, one at 10**19 to 2**31.
    built = []
    monkeypatch.setattr(enumerator, "_build_tables",
                        lambda top: built.append(top) or ([], None, None))
    monkeypatch.setattr(enumerator, "_spf_table", lambda size: None)
    assert _Tables.for_limit(10**18).sieve_top == 2**30
    for limit in (10**19, 10**20):
        with pytest.raises(ValueError, match=f"below {limit} .* {2**30}$"):
            _Tables.for_limit(limit)
    assert built == [2**30]


def test_the_full_catalog_table_steps_from_2_23_to_2_26_at_2_43():
    # perfbench's paper-1e11 routes by the table at 10**11: it must not move.
    assert _Tables.for_limit(10**11, 3).spf_limit == 2**23
    sizes = {limit: enumerator._spf_limit(limit, 3, (limit - 1) // 3)
             for limit in (10**12, 2**43 - 1, 2**43, 10**13, 2**62)}
    assert sizes == {10**12: 2**23, 2**43 - 1: 2**23, 2**43: 2**26,
                     10**13: 2**26, 2**62: 2**26}


@pytest.mark.parametrize("d", [11, 12])
def test_no_factor_table_above_2_62(d):
    # Only the class flush of the int64 batch reads the table, and above
    # 2**62 the batch queues nothing.
    assert _Tables.for_limit(2**63, d).spf_limit == 0
    assert _Tables.for_limit(2**62 + 1, d).spf_limit == 0


@pytest.mark.parametrize("limit, d, size", [
    (10**5, 3, 2**16), (10**7, 3, 2**22), (10**9, 7, 2**17),
    (2**52, 11, 2**21), (2**54, 11, 2**23)])
def test_the_factor_table_covers_what_the_run_reads(
        monkeypatch, fresh_tables, limit, d, size):
    # The table covers the largest leaf reach, up to the cap.
    tables = _Tables.for_limit(limit, d)
    assert tables.spf_limit == size
    reaches = []
    route = _LeafBatch._route

    def spy(batch, primes, product, carry, reach, *args):
        reaches.append(reach)
        return route(batch, primes, product, carry, reach, *args)

    monkeypatch.setattr(_LeafBatch, "_route", spy)
    enumerate_carmichael(limit, d, d)
    assert reaches and max(reaches) < size


def test_the_catalog_does_not_depend_on_the_factor_table(monkeypatch,
                                                         fresh_tables,
                                                         tmp_path):
    # Both routes are complete, and only the class route reads the table:
    # with none, every parent takes the slice route.
    sizes = [0, 2**21, 2**23, 2**25]
    for size in sizes:
        monkeypatch.setattr(enumerator, "_spf_limit", lambda *args: size)
        cat = enumerate_carmichael(10**9)
        assert _Tables.for_limit(10**9).spf_limit == size
        write_catalog(cat, tmp_path / f"{size}.txt")
    first = (tmp_path / f"{sizes[0]}.txt").read_bytes()
    assert first.count(b"\n") > 646
    for size in sizes[1:]:
        assert (tmp_path / f"{size}.txt").read_bytes() == first, size


def test_smallest_builds_only_small_factor_tables(monkeypatch, fresh_tables):
    # d = 15 searches only above 2**62; d = 13 also below, where a leaf
    # reaches at most (2**62 - 1) // (3 * 5 * ... * 37) < 2**21.
    built, build = [], enumerator.smallest_factor_table
    monkeypatch.setattr(enumerator, "smallest_factor_table",
                        lambda n: built.append(n) or build(n))
    assert smallest_with_factors(15).value == 6553130926752006031481761
    assert built == [0]
    assert smallest_with_factors(13).value == 1791562810662585767521
    assert 1 < len(built) and max(built) <= 2**21


def test_complete_final_completing_561():
    # The cap (P + 1) // 2 = 17 leaves the terms 7 and 17 of 7 mod 10.
    assert completions((3, 11), 10**6) == [17]


def test_complete_final_completing_1105():
    # 13 terms: the progression route.
    assert completions((5, 13), 10**4) == [17]


def test_complete_final_empty_for_3_5():
    # The cap (P + 1) // 2 = 8 leaves the terms 3 and 7 of 3 mod 4: 3 is
    # not above 5, and 7 - 1 does not divide 14.
    assert completions((3, 5), 10**16) == []


@pytest.mark.parametrize("batched", [False, True])
def test_descend_closes_prefixes_with_prime_pairs(monkeypatch, batched):
    if not batched:
        # Every limit is above the batch's: `_route` closes each parent at
        # once.
        monkeypatch.setattr(enumerator, "_BATCH_LIMIT", 0)

    def pairs(p1, limit):
        # The task of the root's child p1, for d = 3.
        leaves = _LeafBatch(limit, _Tables.for_limit(limit))
        i = leaves.tables.sieve.index(p1)
        out = _run_task_impl((3, (), i, i + 1), leaves, False)
        assert bool(leaves.slices.items) == batched
        leaves.flush()
        return sorted(fs[-2:] for _, fs in out + leaves.out)

    assert pairs(7, 10**4) == [(13, 19), (13, 31), (19, 67), (23, 41)]
    assert pairs(3, 10**4) == [(11, 17)]
    assert pairs(3, 560) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_a_crashing_search_task_names_itself(monkeypatch, workers):
    # The slice queue closes inside a task: when it fills, or at the end
    # of a batch's last task.
    def crash(batch, parents):
        raise ZeroDivisionError(f"boom at {parents[0][0]}")

    monkeypatch.setattr(enumerator._LeafBatch, "_close_slices", crash)
    with pytest.raises(
        RuntimeError,
        match=r"^search task d=\d+ prefix=\((\d+,)?\) children \[\d+, \d+\) "
              r"failed: boom at \("
    ) as info:
        enumerate_carmichael(10**6, worker_count=workers)
    if workers == 1:
        assert isinstance(info.value.__cause__, ZeroDivisionError)


def test_a_route_fault_stops_the_run(monkeypatch):
    # A class start outside its residue class breaks the flush's arithmetic;
    # the merge's validation must stop the run, not drop the bad numbers.
    class_values = enumerator._class_values

    def shifted(*args):
        start, count = class_values(*args)
        return start + 2, count

    monkeypatch.setattr(enumerator, "_class_values", shifted)
    with pytest.raises(RuntimeError, match="63895231") as info:
        enumerate_carmichael(10**8)
    assert isinstance(info.value.__cause__, ValueError)


def test_a_lost_number_stops_a_full_run(monkeypatch):
    # A class count one short loses numbers but emits only true ones, so
    # Korselt's check passes and only the published C(10**n) shows it.
    class_values = enumerator._class_values

    def short(*args):
        start, count = class_values(*args)
        return start, count - 1

    monkeypatch.setattr(enumerator, "_class_values", short)
    with pytest.raises(RuntimeError, match="the published count is 255"):
        enumerate_carmichael(10**8)


def test_the_decade_check_reads_published_counts_up_to_the_limit():
    numbers = [e.value for e in oracle_enumerate(10**6)]
    _check_decades(numbers, 10**6)
    _check_decades(numbers[:42], 999_999)  # C(10**6) is beyond the limit
    with pytest.raises(RuntimeError, match="found 42 .* below 10\\*\\*6"):
        _check_decades(numbers[:42], 10**6)
    with pytest.raises(RuntimeError, match="found 0 .* below 10\\*\\*3"):
        _check_decades(numbers[1:], 10**6)


@pytest.mark.parametrize("workers", [1, 2])
def test_progress_counts_finished_tasks(workers):
    tasks = _seed_tasks(10**7, 3, max_factor_count(10**7),
                        _Tables.for_limit(10**7))
    calls = []
    enumerate_carmichael(10**7, worker_count=workers,
                         progress=lambda *call: calls.append(call))
    # One call per batch, so more than one, each with the task total.
    assert len(calls) > 1
    assert all(total == len(tasks) for _, total in calls)
    done = [d for d, _ in calls]
    assert done == sorted(set(done))
    assert calls[-1] == (len(tasks), len(tasks))


def test_enumerate_small_limits():
    cat = enumerate_carmichael(10**4, 3, 3)
    assert len(cat) == 7
    cat = enumerate_carmichael(10**9, 7, 7)
    assert len(cat) == 0


def test_enumerate_matches_oracle_to_one_million():
    cat = enumerate_carmichael(10**6)
    oracle = oracle_enumerate(10**6)
    assert cat.entries == oracle


def test_enumerate_strict_upper_bound():
    assert len(enumerate_carmichael(561)) == 0
    assert len(enumerate_carmichael(562)) == 1


def test_enumerate_matches_oracle_to_ten_million():
    cat = enumerate_carmichael(10**7)
    assert len(cat) == 105
    assert cat.entries == oracle_enumerate(10**7)


def test_worker_counts_agree():
    reference = None
    for workers in (1, 4, 16):
        cat = enumerate_carmichael(10**6, worker_count=workers)
        if reference is None:
            reference = cat.entries
        assert cat.entries == reference


def test_workers_are_capped_at_the_cpu_count(monkeypatch):
    # A stub pool maps in this process, so no process is started.
    pools, batches = [], []

    class Pool:
        def __init__(self, processes):
            pools.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, jobs):
            return map(fn, jobs)

    run = enumerator._worker_run

    def worker_run(job):
        batches.append(job[2])
        return run(job)

    monkeypatch.setattr(enumerator, "get_context",
                        lambda method: SimpleNamespace(Pool=Pool))
    monkeypatch.setattr(enumerator, "_worker_run", worker_run)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cat = enumerate_carmichael(10**7, worker_count=100_000)
    assert pools == [2]
    tasks = _seed_tasks(10**7, 3, max_factor_count(10**7),
                        _Tables.for_limit(10**7))
    assert batches == _chunk(tasks, 2)
    assert cat.entries == oracle_enumerate(10**7)


@pytest.mark.parametrize("count", [0, 7, 17, 82_676])
@pytest.mark.parametrize("workers", [1, 2])
def test_the_batches_stripe_the_tasks(count, workers):
    tasks = list(range(count))
    batches = _chunk(tasks, workers)
    assert sorted(t for batch in batches for t in batch) == tasks
    assert len(batches) == min(count, 8 * workers)
    if batches:
        assert all(batches)
        assert max(map(len, batches)) - min(map(len, batches)) <= 1
        # A stripe: each batch takes every len(batches)-th task.
        assert batches[-1] == tasks[len(batches) - 1::len(batches)]


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


WARM_RUN = """
import resource
from carmichael.enumerator import enumerate_carmichael
enumerate_carmichael(10**10)  # builds the tables and warms the heap
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
cat = enumerate_carmichael(10**10)
print(len(cat), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
def test_a_warm_run_takes_few_page_faults():
    # At glibc's default thresholds every flush maps, faults in and unmaps
    # its 128 KiB temporaries: 14-16K minor faults on the second run.  A
    # fresh interpreter runs both, so what ran before in this process
    # does not count.
    done = subprocess.run([sys.executable, "-c", WARM_RUN],
                          capture_output=True, text=True, check=True)
    count, faults = map(int, done.stdout.split())
    assert count == 1547
    assert faults < 2000


@pytest.mark.parametrize("load", ["no mallopt", "no libc"])
def test_malloc_tuning_is_a_no_op_without_mallopt(monkeypatch, load):
    loads = []

    def cdll(name):
        loads.append(name)
        if load == "no libc":
            raise OSError("cannot load the C library")
        return SimpleNamespace()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert enumerator._tune_malloc() is None
    assert len(enumerate_carmichael(10**6)) == 43
    assert loads == [None, None]


def test_emitted_entries_satisfy_invariants():
    cat = enumerate_carmichael(10**7)
    for e in cat.entries:
        e.validate()  # ascending odd primes, square-free, Korselt
        assert e.value % 2 == 1
        assert fermat_scan(e.value, 64)
        assert e.factors[-1] ** 2 < e.value  # largest factor below sqrt(N)
        assert len(e.factors) <= max_factor_count(10**7)


def test_counts_by_d_at_1e8():
    cat = enumerate_carmichael(10**8)
    assert len(cat) == 255
    assert by_factor_count(cat) == {3: 84, 4: 144, 5: 27}


def test_catalog_provenance_header():
    cat = enumerate_carmichael(10**5)
    assert cat.provenance["limit"] == "100000"
    assert cat.provenance["count"] == "16"
    assert cat.provenance["d_min"] == "3"
    assert cat.provenance["d_max"] == "5"


@pytest.mark.parametrize("args, refusal", [
    ({"limit": 1}, "limit must be at least 2"),
    ({"limit": 10**6, "d_min": 2}, r"got \[2, 6\]"),
    ({"limit": 10**6, "d_min": 5, "d_max": 4}, r"got \[5, 4\]"),
    # max_factor_count(10**6) = 6: the product 3*5*...*17 is 255255
    ({"limit": 10**6, "d_max": 7}, r"\(limit\) = 6, got \[3, 7\]"),
    ({"limit": 10**6, "worker_count": 0}, "worker count must be positive"),
], ids=["limit 1", "d_min 2", "d_min above d_max", "d_max 7", "no worker"])
def test_bad_arguments_are_refused_before_any_table(monkeypatch, args,
                                                    refusal):
    calls = []
    for name in ("_tune_malloc", "_build_tables", "_spf_table"):
        monkeypatch.setattr(enumerator, name,
                            lambda *a, name=name: calls.append(name))
    with pytest.raises(ValueError, match=refusal):
        enumerate_carmichael(**args)
    assert calls == []


def test_the_largest_factor_count_is_accepted():
    assert len(enumerate_carmichael(10**6, d_max=6)) == 43
