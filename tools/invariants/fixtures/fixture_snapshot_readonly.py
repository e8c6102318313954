# invariant-scope: snapshot-readonly
"""Seeded violations for the snapshot-readonly rule (test fixture)."""


class FakeAttached:
    def __init__(self, arrays, mapping):
        self.out_indptr = arrays["out_indptr"]
        self.out_labels = arrays["out_labels"]
        self.out_targets = arrays["out_targets"]
        self._mapping = mapping

    def ok_rebind(self, arrays):
        # Rebinding the attribute is allowed: it does not touch the
        # mapped pages, only the Python object graph.
        self.out_targets = arrays["out_targets"]
        local = self.out_targets
        return local[0]

    def bad_item_store(self):
        self.out_targets[0] = 7  # store through mapped array

    def bad_aug_store(self):
        self.out_targets[1] += 1  # in-place add on a mapped array

    def bad_delete(self):
        del self.out_labels[2]  # del through mapped array

    def bad_mutator(self):
        self.out_indptr.byteswap()  # in-place mutator

    def bad_close(self):
        self._mapping.close()  # explicit teardown of a held mapping
