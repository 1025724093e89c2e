"""Acceptance suite: one test per numbered criterion, run via the public runner,
and the whole CSV against the pinned record tests/data/reproduce.csv.

Each criterion test prints the per-check rows (criterion, expected, observed) so
a verbose run shows exactly which claim was exercised, and fails if any row
does not pass.  Each suite runs once per test session, on first use (the
`suite_rows` fixture), so a suite that raises fails only the tests that read it.

The record is what `sugeo reproduce` prints.  A change that moves a printed
value rewrites the file in the same diff (`sugeo reproduce --out
tests/data/reproduce.csv`) and names the rows that moved.
"""

import csv
from pathlib import Path

import pytest

from sugeo import acceptance

RECORD = Path(__file__).resolve().parent / "data" / "reproduce.csv"

# Rows whose observed value is round-off: the residue of an identity that holds
# exactly, or a smoothing row near 1e-8 (a finite-difference residue, or the
# least Hessian eigenvalue of a norm smoothed by a small delta) whose third digit
# is not held across platforms.  Another BLAS may move their digits, so they are
# held within a factor of 10 of the record, and a residue of one ulp may come out
# as 0, so two values both at most ROUND_OFF_FLOOR match.  Every other row must
# match the record byte for byte.  The record was made on one platform (x86-64,
# OpenBLAS 0.3.31 as bundled with numpy) and has been checked on no other.
ROUND_OFF_FLOOR = 1e-14
ROUND_OFF = (
    "long-geodesic M=5 t=M",
    "long-geodesic M=9 t=M",
    "stabilizer-el FpDelta",
    "stabilizer-el Fq",
    "f2-shoot endpoint",
    "f2-shoot speed-drift",
    "circuit-bound endpoint",
    "coord su2-vs-vec forward",
    "coord su2-vs-vec backward",
    "coord filter-vs-series",
    "smoothing hessian-pd",
    "smoothing hessian-fd",
    "smoothing euler",
    "isometry catalogue (18 pairs)",
    "f2-length vs trace",
    "direct-sum additivity",
    "direct-sum product-geodesic",
)


@pytest.fixture(scope="session")
def suite_rows():
    """rows(name): the rows of one suite, computed on first use and kept for the session."""
    cache = {}

    def rows(name):
        if name not in cache:
            cache[name] = acceptance.run_all([name])
        return cache[name]

    return rows


def _differences(text: str, record: str) -> list:
    """The CSV lines of `text` that do not match `record` (ROUND_OFF rows within a factor of 10)."""
    lines, pinned = text.splitlines(), record.splitlines()
    if len(lines) != len(pinned):
        return [f"{len(lines)} lines against {len(pinned)} in the record"]
    return [f"{line} (record: {want})" for line, want in zip(lines, pinned)
            if line != want and not _round_off_match(line, want)]


def _round_off_match(line: str, want: str) -> bool:
    (row,), (pinned,) = csv.reader([line]), csv.reader([want])
    if row[0] not in ROUND_OFF or row[:2] + row[3:] != pinned[:2] + pinned[3:]:
        return False
    value, recorded = float(row[2]), float(pinned[2])
    if max(value, recorded) <= ROUND_OFF_FLOOR:
        return True
    return recorded / 10 <= value <= recorded * 10


@pytest.mark.parametrize("name", list(acceptance.SUITES))
def test_criterion(suite_rows, name):
    rows = suite_rows(name)
    assert rows, f"suite {name} produced no checks"
    failures = []
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"[{status}] {row.criterion}: expected {row.expected}, observed {row.observed}")
        if not row.passed:
            failures.append(row.criterion)
    assert not failures, f"failed checks: {failures}"


def _suite_csv(suite_rows) -> str:
    return acceptance.to_csv([row for name in acceptance.SUITES for row in suite_rows(name)])


def test_reproduce_matches_the_record(suite_rows):
    assert _differences(_suite_csv(suite_rows), RECORD.read_text()) == []


def test_every_round_off_row_is_in_the_record():
    recorded = [line.split(",")[0] for line in RECORD.read_text().splitlines()]
    assert set(ROUND_OFF) <= set(recorded)


def test_the_record_catches_a_moved_value(suite_rows):
    text, record = _suite_csv(suite_rows), RECORD.read_text()
    # an and-cvp value in its 12th significant digit
    assert "3.14159265359 (w=0" in text
    moved = text.replace("3.14159265359 (w=0", "3.14159265358 (w=0", 1)
    assert [d.split(",")[0] for d in _differences(moved, record)] == ["and-cvp n=2 k=4"]
    # a round-off row within a factor of 10 passes, one past it fails
    line = next(x for x in text.splitlines() if x.startswith("stabilizer-el Fq,"))
    value = float(line.split(",")[2])
    for factor, expected in ((5.0, []), (20.0, ["stabilizer-el Fq"]), (1 / 20, ["stabilizer-el Fq"])):
        shifted = text.replace(line, line.replace(line.split(",")[2], f"{value * factor:.3g}"))
        assert [d.split(",")[0] for d in _differences(shifted, record)] == expected
    # a one-ulp residue may come out as 0, but not as 1e-13
    line = next(x for x in text.splitlines() if x.startswith("f2-length vs trace,"))
    for value, expected in (("0", []), ("1e-13", ["f2-length vs trace"])):
        shifted = text.replace(line, line.replace(line.split(",")[2], value))
        assert [d.split(",")[0] for d in _differences(shifted, record)] == expected
