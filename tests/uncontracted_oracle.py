"""The Smith diagonal by unit elimination of the whole matrix, with no
spanning forest contracted first, kept as an oracle for intlinalg.sparse_snf.

Every +-1 entry is a pivot candidate for intlinalg._eliminate_units, and
what no unit reaches goes to intlinalg._smith_diagonal.  sparse_snf must
return the same SnfResult, since the Smith diagonal is unique.
"""

from zncomplex.intlinalg import SnfResult, _eliminate_units, _smith_diagonal


def sparse_snf(rows, width):
    """SnfResult of the sparse rows, as intlinalg.sparse_snf documents.

    It checks and reads copies of the rows, so they stay as they were given.
    """
    clean = []
    for i, row in enumerate(rows):
        read = {}
        for j, v in row.items():
            if not 0 <= j < width:
                raise ValueError(f"column index {j} outside 0..{width - 1}")
            if v:
                if int(v) != v:
                    raise ValueError(f"entry {v!r} at row {i}, column {j} is not an integer")
                read[j] = int(v)
        clean.append(read)
    left, cols, units, _ = _eliminate_units(clean, width)
    live_cols = [j for j, col in enumerate(cols) if col]
    rest = [[row.get(j, 0) for j in live_cols] for row in left if row]
    nonzero = (1,) * units + _smith_diagonal(rest)
    limit = min(len(rows), width)
    return SnfResult(diagonal=nonzero + (0,) * (limit - len(nonzero)),
                     rank=len(nonzero))
