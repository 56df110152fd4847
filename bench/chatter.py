"""Capture of solver chatter and Python warnings around benchmark tasks.

LSODA's messages come from compiled code that writes to file descriptors 1
and 2 directly, past ``sys.stdout``.  So each task runs with both
descriptors pointed at a log file, and the benchmark's own report, printed
after the task, stays machine-readable.  Python warnings raised inside a
task are recorded instead of printed.
"""

from __future__ import annotations

import ctypes
import os
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

_LIBC = ctypes.CDLL(None)
_LIBC.fflush.argtypes = [ctypes.c_void_p]
_LIBC.fflush.restype = ctypes.c_int


def count_messages(text: str) -> int:
    """Messages in captured output: lines that start in column 0 or 1.

    ODEPACK indents the continuation lines of a message by several spaces,
    so one LSODA warning of four lines counts once.
    """
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.startswith("  "))


class Chatter:
    """Log file that receives descriptors 1 and 2 while a task runs."""

    def __init__(self, path: Path) -> None:
        self._writer = open(path, "ab")
        self._reader = open(path, "rb")
        self.messages = 0
        self.warnings = 0
        #: called with no argument for each Python warning; the tracer sets it
        self.on_warning = None

    def close(self) -> None:
        self._writer.close()
        self._reader.close()

    @contextmanager
    def capture(self):
        sys.stdout.flush()
        sys.stderr.flush()
        saved = [os.dup(1), os.dup(2)]
        try:
            os.dup2(self._writer.fileno(), 1)
            os.dup2(self._writer.fileno(), 2)
            with warnings.catch_warnings():
                # "always" keeps the count the same on every pass; the
                # default filter reports each location once per process
                warnings.simplefilter("always")
                warnings.showwarning = self._record_warning
                yield
        finally:
            self.poll()
            os.dup2(saved[0], 1)
            os.dup2(saved[1], 2)
            for fd in saved:
                os.close(fd)

    def self_check(self) -> bool:
        """Whether a capture counts one warning and one message per stream.

        The counts are put back afterwards, so the check leaves no trace.
        """
        before = (self.messages, self.warnings)
        with self.capture():
            warnings.warn("chatter self-check")
            os.write(1, b"chatter self-check on descriptor 1\n")
            os.write(2, b"chatter self-check on descriptor 2\n")
        seen = (self.messages - before[0], self.warnings - before[1])
        self.messages, self.warnings = before
        return seen == (2, 1)

    def poll(self) -> int:
        """Count the messages written since the last poll."""
        sys.stdout.flush()
        sys.stderr.flush()
        _LIBC.fflush(None)
        text = self._reader.read().decode("utf-8", errors="replace")
        n = count_messages(text)
        self.messages += n
        return n

    def _record_warning(self, message, category, filename, lineno,
                        file=None, line=None) -> None:
        self.warnings += 1
        if self.on_warning is not None:
            self.on_warning()
