"""The per-face validity scan, kept as an oracle for simplicial.validate.

It visits every face once in set order: an empty face, a face that is not
strictly increasing, a vertex outside 0..count-1 and each missing facet are
recorded with the face, and the records are sorted stably by face.  The
vertices in no face follow, at most UNCOVERED_NAMED named and the rest
counted.  validate must give these violations, in this order.
"""

from itertools import combinations, islice

from zncomplex.simplicial import UNCOVERED_NAMED


def scan_violations(complex_) -> list[str]:
    """Every violation of the downward-closure, labeling and coverage rules."""
    faces = complex_.faces
    found = []
    covered = set()
    for f in faces:
        if len(f) == 0:
            found.append((f, "empty face stored"))
            continue
        if any(f[i] >= f[i + 1] for i in range(len(f) - 1)):
            found.append((f, f"face {f} is not strictly increasing"))
            continue
        if f[0] < 0 or f[-1] >= complex_.vertex_count:
            found.append((f, f"face {f} uses a vertex outside "
                             f"0..{complex_.vertex_count - 1}"))
        covered.update(f)
        if len(f) > 1:
            for sub in combinations(f, len(f) - 1):
                if sub not in faces:
                    found.append((f, f"missing subset {sub} of face {f}"))
    found.sort(key=lambda record: record[0])
    violations = [message for _, message in found]
    count = complex_.vertex_count
    uncovered = count - sum(1 for v in covered if 0 <= v < count)
    named = islice((v for v in range(count) if v not in covered), UNCOVERED_NAMED)
    violations.extend(f"vertex {v} appears in no face" for v in named)
    if uncovered > UNCOVERED_NAMED:
        violations.append(f"... and {uncovered - UNCOVERED_NAMED} more vertices "
                          f"appear in no face")
    return violations
