# lintpath: src/repro/service/fixture_good.py
"""Good: every post-``__init__`` mutation of guarded state holds the lock."""

import threading


class Dispatcher:
    def __init__(self):
        self._lock = threading.Lock()
        self.pending = []   # __init__ is exempt: no other thread exists yet
        self.aborted = False
        self.served = 0     # never mutated under the lock -> unguarded

    def enqueue(self, batch):
        with self._lock:
            self.pending.append(batch)
            self.aborted = False

    def abort(self):
        with self._lock:
            self.aborted = True

    def drain(self):
        self.pending: list  # bare annotation: declares, mutates nothing
        with self._lock:
            drained = list(self.pending)
            self.pending.clear()
        self.served += 1  # unguarded attribute: fine outside the lock
        return drained
