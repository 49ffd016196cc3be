"""The README's envelope table matches the named limits."""

from __future__ import annotations

import re
from pathlib import Path

from sumperfect.canon import CANON_MAX
from sumperfect.enumeration import ENUM_MAX
from sumperfect.graphs import MAX_VERTICES
from sumperfect.invariants import SUBSET_MAX

README = Path(__file__).resolve().parent.parent / "README.md"

EXPECTED = {
    "`Graph` capacity": f"{MAX_VERTICES} vertices",
    "`canonical_key` / `is_isomorphic`": str(CANON_MAX),
    "`contains_induced` pattern (any host)": str(CANON_MAX),
    "`max_deficiency`, `is_sum_perfect_definitional`, `is_perfect_lovasz`, "
    "`check_threshold_theorem`": str(SUBSET_MAX),
    "built-in enumeration": str(ENUM_MAX),
    "`mine`, `verify`, `count_hc_forbidden` max-n": f"1..{ENUM_MAX}",
}


def _envelope_rows() -> dict[str, str]:
    section = README.read_text(encoding="utf-8").split("## Envelopes", 1)[1]
    table = section.strip().split("\n\n", 1)[0]
    return dict(re.findall(r"^\| (.+?) \| (.+?) \|$", table, re.MULTILINE))


def test_readme_envelope_table_matches_constants():
    rows = _envelope_rows()
    for operation, bound in EXPECTED.items():
        assert rows.get(operation) == bound, operation

