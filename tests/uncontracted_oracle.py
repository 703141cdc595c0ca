"""The Smith diagonal by unit elimination of the whole matrix, with no
spanning forest contracted first, kept as an oracle for intlinalg.sparse_snf.

Every +-1 entry is a pivot candidate for intlinalg._eliminate_units, and
what no unit reaches goes to intlinalg._smith_diagonal.  sparse_snf must
return the same SnfResult, since the Smith diagonal is unique.
"""

from zncomplex.intlinalg import SnfResult, _eliminate_units, _smith_diagonal


def sparse_snf(columns, row_count):
    """SnfResult of the sparse columns, as intlinalg.sparse_snf documents."""
    rows, cols, units, _ = _eliminate_units(columns, row_count)
    live_cols = [j for j, col in enumerate(cols) if col]
    rest = [[row.get(j, 0) for j in live_cols] for row in rows if row]
    nonzero = (1,) * units + _smith_diagonal(rest)
    limit = min(row_count, len(cols))
    return SnfResult(diagonal=nonzero + (0,) * (limit - len(nonzero)),
                     rank=len(nonzero))
