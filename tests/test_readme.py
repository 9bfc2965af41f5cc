"""The constants README's module table states match the code."""

import re
from pathlib import Path

import pytest

from quasilattice import diffraction, substitution

README = Path(__file__).resolve().parents[1] / "README.md"


def _row(module: str) -> str:
    rows = [line for line in README.read_text().splitlines()
            if line.startswith(f"| `quasilattice.{module}` |")]
    assert len(rows) == 1, f"README has no single module-table row for {module}"
    return rows[0]


@pytest.mark.parametrize(
    "module, block",
    [("diffraction", diffraction._WEYL_BLOCK), ("substitution", substitution._M_BLOCK)],
)
def test_stated_block_size_matches_code(module, block):
    stated = re.findall(r"in blocks of 2\^(\d+)", _row(module))
    assert stated, f"README states no block size for {module}"
    assert [1 << int(e) for e in stated] == [block]
