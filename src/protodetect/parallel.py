"""Two jobs at once, one of them on a second CPU.

BLAS runs each product on one thread, so on a host with two or more
CPUs the others sit idle unless the program hands them work. numpy's
products and elementwise passes over large arrays, file reads and
hashlib's updates all release the interpreter lock, so two such jobs on
two threads run at the same time.

`in_parallel` starts one worker thread per call and joins it before it
returns, so no thread outlives the call. The worker runs in a copy of
the caller's context: numpy keeps `np.errstate` in a context variable,
and a thread started without it would turn an overflow that the caller
raises as FloatingPointError into a RuntimeWarning.
"""

import contextvars
import os
import threading


def has_second_cpu():
    """Whether this process may run on two or more CPUs: those of its
    affinity mask, or every CPU where the platform has no mask."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return n >= 2


def in_parallel(side, main):
    """(side(), main()): side on a worker thread, main on this one, at
    the same time. The worker is joined even when main raises. main's
    exception, if any, is raised first, then side's."""
    outcome = {}

    def run():
        try:
            outcome["result"] = side()
        except BaseException as e:   # handed to the caller, who raises it
            outcome["error"] = e

    worker = threading.Thread(target=contextvars.copy_context().run, args=(run,))
    worker.start()
    try:
        main_result = main()
    finally:
        worker.join()
    if "error" in outcome:
        raise outcome.pop("error")
    return outcome["result"], main_result
