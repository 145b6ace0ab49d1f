"""Span recording from outside the package.

The benchmark never edits `src/`. It replaces module attributes with thin
wrappers, so every call that resolves the name through the module (a
cross-module call such as `m4.innovations -> gausslin.simulate`, or an
intra-module call through the module globals such as
`hermite_expand -> gaussian_expectation`) records a span. A name bound with
`from ... import` lives in the importing module and is wrapped there too
(`pointproc._exceed_indicator`).

Spans are kept in memory as `[name, start, end, parent, info]` rows and
written out by the caller when the session ends. Times come from
`time.monotonic`, the clock the parent process uses to time set-up.
"""

from __future__ import annotations

import functools
import signal
import time


class SetupDone(BaseException):
    """Raised at the first unit of a set-up probe.

    A BaseException, so the package's per-replication `except Exception`
    handlers do not record it as a failed replication.
    """


# The machine this benchmark was written on (a 2-vCPU Intel Xeon VM shared
# with other tenants) runs up to half slower for tens of seconds at a time.
# Each session therefore runs its workload's calibration kernel (a fixed
# miniature of the workload's hot operations written against numpy and
# scipy, never the package) every CALIBRATE_EVERY_S, and the parent
# rescales the work around each kernel run by the kernel's reference time
# over its measured time.
CALIBRATE_EVERY_S = 0.25


class UnitClock:
    """Marks the start of every unit and samples the machine's speed.

    The first mark ends the set-up: it runs the calibration kernel and
    starts an interval timer whose handler runs it again every
    CALIBRATE_EVERY_S, between bytecodes wherever the workload is, so long
    units are sampled inside as well. `marks[i]` is when unit i started,
    `cals` holds `(start, duration)` of every kernel run and `end` is when
    the work finished. A probe stops at its first mark.
    """

    def __init__(self, probe: bool, kernel):
        self.probe = probe
        self.marks: list[float] = []
        self.cals: list[tuple[float, float]] = []
        self.end = None
        self._kernel = kernel
        kernel()  # allocate, fault in and plan before anything is timed

    def calibrate(self) -> None:
        start = time.monotonic()
        self._kernel()
        self.cals.append((start, time.monotonic() - start))

    def mark(self) -> None:
        self.marks.append(time.monotonic())
        if len(self.marks) > 1:
            return
        self.calibrate()
        if self.probe:
            raise SetupDone
        signal.signal(signal.SIGALRM, lambda *_: self.calibrate())
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def finish(self) -> None:
        self.end = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.calibrate()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap_fn(self, fn, name: str, info=None):
        """Return fn wrapped in a span called `name`.

        `info(args, kwargs)` may return a dict stored on the span (work
        sizes, cache keys); an exception leaves its class name under
        `raised`.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            meta = info(args, kwargs) if info else None
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, meta]
            spans.append(span)
            stack.append(sid)
            span[1] = time.monotonic()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = dict(meta or {}, raised=type(exc).__name__)
                raise
            finally:
                span[2] = time.monotonic()
                stack.pop()

        return wrapper

    def wrap(self, module, attr: str, name: str, info=None) -> None:
        setattr(module, attr, self.wrap_fn(getattr(module, attr), name, info))


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its children's."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
