"""The README's envelope table matches the named limits."""

from __future__ import annotations

import re
from pathlib import Path

from sumperfect.canon import CANON_MAX
from sumperfect.cli import _MINE_ENVELOPE, _VERIFY_ENVELOPE
from sumperfect.enumeration import ENUM_MAX
from sumperfect.graphs import MAX_VERTICES
from sumperfect.invariants import DEFICIENCY_MAX, LOVASZ_MAX
from sumperfect.mining import HC_MINE_MAX

README = Path(__file__).resolve().parent.parent / "README.md"

EXPECTED = {
    "`Graph` capacity": f"{MAX_VERTICES} vertices",
    "`canonical_key` / `is_isomorphic` / `contains_induced`": str(CANON_MAX),
    "`max_deficiency`, `is_sum_perfect_definitional`": str(DEFICIENCY_MAX),
    "`is_perfect_lovasz`, `check_threshold_theorem`": str(LOVASZ_MAX),
    "built-in enumeration": str(ENUM_MAX),
    "`count_hc_forbidden`": f"max_n {HC_MINE_MAX}",
    "`mine --max-n`": "{}..{}".format(*_MINE_ENVELOPE),
    **{
        f"`verify {target} --max-n`": "{}..{}".format(*bounds)
        for target, bounds in _VERIFY_ENVELOPE.items()
    },
}


def _envelope_rows() -> dict[str, str]:
    section = README.read_text(encoding="utf-8").split("## Envelopes", 1)[1]
    table = section.strip().split("\n\n", 1)[0]
    return dict(re.findall(r"^\| (.+?) \| (.+?) \|$", table, re.MULTILINE))


def test_readme_envelope_table_matches_constants():
    rows = _envelope_rows()
    for operation, bound in EXPECTED.items():
        assert rows.get(operation) == bound, operation

