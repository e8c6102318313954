# invariant-scope: one-lru
"""Seeded violation for the one-lru rule (analyzer test fixture)."""

from collections import OrderedDict


class HandRolledLru:
    """A second LRU beside repro.lru.LruCache."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._entries = OrderedDict()

    def get(self, key):
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key, value):
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
