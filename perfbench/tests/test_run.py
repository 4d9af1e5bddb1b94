from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing import resource_tracker

from perfbench.run import stop_children


def _sleep() -> None:
    time.sleep(60)


def test_stop_children_reaps_workers_and_the_resource_tracker() -> None:
    worker = multiprocessing.get_context("spawn").Process(target=_sleep, daemon=True)
    worker.start()
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None
    stop_children()
    assert not worker.is_alive()
    assert resource_tracker._resource_tracker._pid is None
    # Reaped, not only signalled: the pid no longer names a process.
    try:
        os.kill(tracker, 0)
    except ProcessLookupError:
        pass
    else:
        raise AssertionError(f"resource tracker {tracker} still running")
