"""Row blocks of one bulk array operation, run on the CPUs the process may
use.

``map_blocks(task, blocks)`` is ``[task(b) for b in blocks]``. With two or
more blocks and two or more usable CPUs (the process's affinity, which
``taskset`` limits), it splits the blocks into contiguous spans, one per
worker thread of a pool made for the call, min(CPUs, blocks) of them; each
span runs under a copy of the caller's context, so numpy's ``errstate``
holds in the workers, and a task's exception reaches the caller. The tasks'
numpy loops and LAPACK calls release the GIL, and every block is computed
by the same operations whichever thread runs it, so results are
bit-identical to the serial loop. One block runs inline, with no pool.
"""

import os


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity mask outside Linux
        return os.cpu_count() or 1


def map_blocks(task, blocks):
    """[task(b) for b in blocks], the sequence ``blocks`` (a list or a
    range) split over worker threads."""
    workers = min(_usable_cpus(), len(blocks)) if len(blocks) > 1 else 1
    if workers == 1:
        return list(map(task, blocks))
    import contextvars
    from concurrent.futures import ThreadPoolExecutor

    cuts = [len(blocks) * w // workers for w in range(workers + 1)]
    with ThreadPoolExecutor(workers) as pool:
        spans = [pool.submit(contextvars.copy_context().run,
                             lambda span: list(map(task, span)),
                             blocks[lo:hi])
                 for lo, hi in zip(cuts, cuts[1:])]
        return [out for span in spans for out in span.result()]
