"""README.md's Python examples run as written: its ```python blocks, in
order, in one namespace (a later block may use names an earlier one made)."""

import re
from pathlib import Path

from convgen.tensor import CEILINGS

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


def test_readme_python_blocks_run_in_order():
    namespace = {"__name__": "readme"}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"{README.name} python block {i}", "exec"), namespace)


def test_readme_ceiling_table_lists_exactly_the_table():
    rows = re.findall(r"^\| `(\w+)` \| (\d+)(?:\*\*(\d+))? \|", README.read_text(), re.M)
    listed = {name: int(base) ** int(power or 1) for name, base, power in rows}
    assert listed == {name: ceiling for name, (ceiling, _) in CEILINGS.items()}
    assert len(rows) == len(listed)  # no entry twice
