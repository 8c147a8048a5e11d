# lintpath: src/repro/service/fixture_bad.py
"""Bad: attributes guarded by the lock in one method, mutated bare in another."""

import threading


class Dispatcher:
    def __init__(self):
        self._lock = threading.Lock()
        self.pending = []
        self.aborted = False

    def enqueue(self, batch):
        with self._lock:
            self.pending.append(batch)
            self.aborted = False

    def abort(self):
        self.aborted = True  # raced: assigned under the lock in enqueue()

    def drain(self):
        drained = list(self.pending)
        self.pending.clear()  # raced: mutated under the lock in enqueue()
        return drained
