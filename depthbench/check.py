"""Row-by-row comparison of CLI output CSVs against recorded references.

Rows are matched by position (the CLI fixes the order: beta outer, x inner).
Integer, label and threshold columns must match exactly.  The χ columns and
the criterion must match within ``TOL`` absolute, the cross-route tolerance
of acceptance criteria 02 and 07, and the ratio within ``TOL`` relative (with
the same absolute floor, for ratios of vanishing χ_B).  CSV bytes are not
compared, so a change of numerical route that stays within tolerance passes.
"""

from __future__ import annotations

import math

TOL = 1e-8
EXACT = frozenset({"n", "x_ab", "threshold", "epsilon", "depth_lb"})
ABSOLUTE = frozenset({"chi_B", "chi_E", "criterion"})
RELATIVE = frozenset({"ratio"})
#: Input echoes identifying the row; the 1e-9 slack admits a different but
#: equivalent way of spelling out the same grid.
KEYS = frozenset({"beta", "g"})


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return [], []
    return [c.strip() for c in lines[0].split(",")], [[c.strip() for c in line.split(",")] for line in lines[1:]]


def _same(column: str, got: str, ref: str) -> bool:
    if column in EXACT | ABSOLUTE | RELATIVE | KEYS:
        try:
            a, b = float(got), float(ref)
        except ValueError:
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if column in EXACT:
            return a == b
        if column in ABSOLUTE:
            return abs(a - b) <= TOL
        if column in RELATIVE:
            return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return got == ref


def compare(got_text: str | None, ref_text: str) -> tuple[int, int]:
    """(attempted, failed) rows of one output file.

    A row fails when it is missing, extra, carries an error cell or differs
    from the reference; ``got_text`` None (the file was not written) fails
    every reference row.
    """
    ref_header, ref_rows = parse_csv(ref_text)
    if got_text is None:
        return len(ref_rows), len(ref_rows)
    header, rows = parse_csv(got_text)
    attempted = max(len(rows), len(ref_rows))
    if any(column not in header for column in ref_header):
        return attempted, attempted
    index = {column: i for i, column in enumerate(header)}
    error = index.get("error")
    failed = abs(len(rows) - len(ref_rows))
    for row, ref in zip(rows, ref_rows):
        if len(row) != len(header) or (error is not None and row[error]):
            failed += 1
        elif not all(_same(c, row[index[c]], r) for c, r in zip(ref_header, ref)):
            failed += 1
    return attempted, failed
