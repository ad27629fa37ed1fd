"""README's library quick tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs():
    tour = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    names = {}
    exec(compile(code, str(README), "exec"), names)
    assert len(names["draws"]) == 10
    assert names["product"]["ok"] and names["product"]["composed_count"] == 12
