"""Tests for the row-block runner: block order, worker count, and what
crosses the thread boundary (exceptions and numpy's errstate)."""

import threading
import warnings

import numpy as np
import pytest

from ssmfrac import _rows, dictionary, spectrum


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(_rows, "_usable_cpus", lambda: 2)


def test_results_come_back_in_block_order_from_two_threads(two_workers):
    """Seven blocks run as two contiguous spans, 0-2 and 3-6, at once: the
    first block of each waits for the other's."""
    threads = []
    both = threading.Barrier(2, timeout=30)

    def task(block):
        threads.append(threading.get_ident())
        if block in (0, 3):
            both.wait()
        return block * 10

    assert _rows.map_blocks(task, list(range(7))) == [
        0, 10, 20, 30, 40, 50, 60]
    assert len(set(threads)) == 2
    assert threading.get_ident() not in threads


@pytest.mark.parametrize("cpus, blocks", [(1, 5), (2, 1), (2, 0), (4, 1)])
def test_one_worker_or_one_block_runs_inline(monkeypatch, cpus, blocks):
    monkeypatch.setattr(_rows, "_usable_cpus", lambda: cpus)
    threads = []
    out = _rows.map_blocks(lambda b: threads.append(threading.get_ident())
                           or b, list(range(blocks)))
    assert out == list(range(blocks))
    assert set(threads) <= {threading.get_ident()}


def test_one_block_asks_for_no_cpu_count(monkeypatch):
    def refuse():
        raise AssertionError("the affinity mask was read for one block")

    monkeypatch.setattr(_rows, "_usable_cpus", refuse)
    assert _rows.map_blocks(lambda b: b + 1, [1]) == [2]


def test_worker_exception_reaches_the_caller_with_its_class(two_workers):
    class Odd(Exception):
        pass

    def task(block):
        if block == 5:
            raise Odd(block)
        return block

    before = threading.active_count()
    with pytest.raises(Odd):
        _rows.map_blocks(task, list(range(8)))
    assert threading.active_count() == before


def overflowing_samples():
    """A planar order-5 library at u = 1e100 over three row blocks: u^5
    overflows in every block."""
    d = dictionary.dictionary_flow_1d(
        spectrum.SpectralPartition(kind="flow", lam=(-1.0,), kappa=(-2.5,)),
        K=5)
    return d, np.full(2 * dictionary.EVAL_BLOCK_ROWS + 1, 1e100)


def test_errstate_raise_holds_in_the_workers(two_workers):
    """numpy's errstate is a context variable; a worker thread starts
    with an empty context, so only the copied one carries the caller's."""
    d, x = overflowing_samples()
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            d.evaluate(x)


def test_errstate_ignore_holds_in_the_workers(two_workers):
    d, x = overflowing_samples()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            values = d.evaluate(x)
    assert np.isinf(values[:, d.orders.index(5.0)]).all()
