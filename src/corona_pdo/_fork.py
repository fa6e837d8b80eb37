"""One process model for work that splits into independent items.

``fork_map(fn, items)`` is ``[fn(item) for item in items]`` spread over the
usable cores by ``os.fork``, with the results, the warnings and the first
exception of the serial loop.  No other module forks, reads the affinity mask
or reads ``CORONA_PDO_THREADS``.  Nothing is imported at module level, so
importing this module loads nothing more.
"""


def thread_cap():
    """``CORONA_PDO_THREADS`` as an integer >= 1 (the package hands it to the
    BLAS pools too), or None when it is unset or is anything else: a malformed
    value such as ``"0"`` or ``"abc"`` caps nothing."""
    import os

    try:
        cap = int(os.environ.get("CORONA_PDO_THREADS", ""))
    except ValueError:
        return None
    return cap if cap >= 1 else None


def part_count(n: int) -> int:
    """The number of contiguous parts that n items are cut into: the usable
    cores, at most ``thread_cap()``, at most n, and one where there is no
    affinity mask (Windows has no fork)."""
    import os

    parts = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(parts, thread_cap() or parts, n))


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]``, one contiguous part of the items per
    process (``part_count``).

    This process runs the last part and a forked child each earlier one.  A
    child runs its whole part, sends the results down a pipe as one pickle and
    always leaves through ``os._exit``; it closes every read end it inherits
    first, so when this process stops reading, a child blocked on a full pipe
    fails instead of waiting.  Every child is reaped, also when this process
    fails.

    A part runs its items with every warning recorded and stops at its first
    exception.  The parts come back in order, as if the items had run here one
    after another: each part's warnings are replayed through the caller's
    filters, then its exception is raised (a child's comes back pickled, as
    itself), so no warning of a later item is replayed.  A child
    that exits without sending its results is an ``OSError`` naming its first
    item.  ``fn``'s values and exceptions must pickle.
    """
    import itertools
    import os
    import pickle
    import warnings

    items = list(items)
    parts = part_count(len(items))
    bounds = [len(items) * k // parts for k in range(parts + 1)]

    def run(part):
        """(values, the exception or None, warnings) of a part, up to its first exception."""
        values, raised = [], None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                for item in part:
                    values.append(fn(item))
            except Exception as exc:
                raised = exc
        return values, raised, [(w.message, w.category, w.filename, w.lineno) for w in caught]

    def receive(proc):
        """A child's results; reaped at once when it sent none."""
        try:
            with open(proc[1], "rb", closefd=False) as pipe:
                return pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            status = os.waitstatus_to_exitcode(os.waitpid(proc[0], 0)[1])
            proc[0] = None
            raise OSError(
                f"the process running item {proc[2]} exited with status {status} "
                "without sending its results"
            ) from None

    procs = []  # [pid, read end, first item] of each child; pid None once reaped
    try:
        for lo, hi in zip(bounds, bounds[1:-1]):
            r, w = os.pipe()
            procs.append([None, r, lo])
            try:
                pid = os.fork()
            except OSError:
                os.close(w)
                raise
            if pid == 0:  # the child: run the part, send it, leave
                code = 1
                try:
                    for proc in procs:  # its own read end is the last one
                        os.close(proc[1])
                    data = pickle.dumps(run(items[lo:hi]), pickle.HIGHEST_PROTOCOL)
                    with open(w, "wb") as pipe:
                        pipe.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            procs[-1][0] = pid
        own = run(items[bounds[-2] :])
        values, registry = [], {}  # one registry: a "default" filter shows a warning once a call
        for done, raised, caught in itertools.chain(map(receive, procs), [own]):  # lazily, in order
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno, registry=registry)
            if raised is not None:
                raise raised
            values.extend(done)
        return values
    finally:
        for proc in procs:
            os.close(proc[1])  # the only read end: a child still writing gets a broken pipe
        for proc in procs:
            if proc[0] is not None:
                os.waitpid(proc[0], 0)
