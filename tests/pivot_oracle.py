"""Unit elimination on a heap of (cost, row, column) tuples, kept as an oracle
for intlinalg._eliminate_units.

One lazy heap holds every candidate pivot: a popped cost that has grown is
pushed back with its current value, and +-1 fill-ins are pushed as they
appear.  _eliminate_units must pop the same pivots in the same order, so its
whole return value equals this one's.  events, when given, counts the
re-pushed grown costs under "regrown" and the +-1 entries that fill in where
the row had none under "fill".
"""

from heapq import heapify, heappop, heappush


def eliminate_units(rows, width, record=False, events=None):
    """(rows, cols, units, steps), as intlinalg._eliminate_units documents.

    It works on copies of the rows, so they stay as they were given.
    """
    if events is None:
        events = {}
    rows = [dict(row) for row in rows]
    cols = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v

    heap = [((len(rows[i]) - 1) * (len(col) - 1), i, j)
            for j, col in enumerate(cols) for i, v in col.items()
            if v == 1 or v == -1]
    heapify(heap)
    units = 0
    steps = [] if record else None
    while heap:
        cost, i, j = heappop(heap)
        pivot_row = rows[i]
        p = pivot_row.get(j)
        if p != 1 and p != -1:
            continue
        pivot_col = cols[j]
        now = (len(pivot_row) - 1) * (len(pivot_col) - 1)
        if now > cost:
            events["regrown"] = events.get("regrown", 0) + 1
            heappush(heap, (now, i, j))
            continue
        units += 1
        if record:
            steps.append((i, p, pivot_col))
        rows[i] = {}
        cols[j] = {}
        for c in pivot_row:
            if c != j:
                del cols[c][i]
        for r, a in pivot_col.items():
            if r == i:
                continue
            q = a * p
            row = rows[r]
            del row[j]
            for c, b in pivot_row.items():
                if c == j:
                    continue
                v = row.get(c, 0) - q * b
                if v:
                    if (v == 1 or v == -1) and c not in row:
                        events["fill"] = events.get("fill", 0) + 1
                    row[c] = cols[c][r] = v
                    if v == 1 or v == -1:
                        heappush(heap, ((len(row) - 1) * (len(cols[c]) - 1), r, c))
                elif c in row:
                    del row[c]
                    del cols[c][r]
    return rows, cols, units, steps
