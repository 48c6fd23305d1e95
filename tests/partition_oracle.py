"""The tests' enumeration oracle: every partition of n, by plain recursion.

The package generates member and rigid partitions directly; the tests
compare that generation with filtering this full list.
"""


def partitions_of(n, max_part=None):
    """All partitions of n with parts bounded by max_part, descending parts."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest
