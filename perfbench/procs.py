"""Leave no process behind: stop the helpers ``repro`` starts, reap the rest.

The procmpi backend creates shared-memory segments, and the first one
starts :mod:`multiprocessing`'s resource tracker, a helper process that
lives until its parent exits and then outlives it for a moment while it
cleans up.  The benchmark and its set-up probes therefore stop the
tracker themselves and wait for it, and the benchmark adopts any
orphaned grandchild (Linux ``PR_SET_CHILD_SUBREAPER``) so that it can
wait for that too before it exits.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import signal
import sys
import time
from typing import List

#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt orphaned descendants from now on; False where unsupported."""
    if not sys.platform.startswith("linux"):
        return False
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def release_resource_tracker() -> None:
    """Tell this process's resource tracker to exit, without waiting.

    Closing the tracker's pipe is how :mod:`multiprocessing` stops it;
    the tracker stays a child of this process, so :func:`reap_children`
    waits for it.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    fd = getattr(tracker, "_fd", None)
    if fd is None:
        return
    os.close(fd)
    tracker._fd = None
    tracker._pid = None


def child_pids() -> List[int]:
    """Children of this process that have not exited (Linux ``/proc``)."""
    me = os.getpid()
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if int(ppid) == me and state != "Z":
            out.append(int(name))
    return out


def reap_children(grace_s: float = 10.0) -> int:
    """Wait up to ``grace_s`` for every child to end, then kill the rest.

    Children adopted while waiting are waited for too.  Returns how many
    children had to be killed.
    """
    deadline = time.monotonic() + grace_s
    killed = 0
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() >= deadline:
            for pid in child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed += 1
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def stop_all(grace_s: float = 10.0) -> int:
    """Stop the resource tracker and wait for every child; see module doc."""
    release_resource_tracker()
    return reap_children(grace_s)
