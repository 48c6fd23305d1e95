"""The tests' oracles: every partition of n, and the running sign of the Sp rule.

The package generates member and rigid partitions directly; the tests
compare that generation with filtering the full list of partitions_of.
The package applies the running sign inside sp_map's one pass and stores
it nowhere; the tests' row-by-row restatements of the Sp rule read it from
prefix_signs.
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


def prefix_signs(values):
    """Sign +1/-1 per row: the parity of the box count through that row."""
    signs = []
    run = 0
    for v in values:
        run = (run + v) % 2
        signs.append(1 if run == 0 else -1)
    return tuple(signs)
