"""The README's library quick tour runs as a doctest."""

from __future__ import annotations

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour():
    section = README.read_text().split("## Library quick tour\n", 1)[1]
    tour = section.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(tour, {}, "README quick tour", str(README), 0)
    report: list[str] = []
    failed, attempted = doctest.DocTestRunner().run(test, out=report.append)
    assert attempted >= 10 and failed == 0, "".join(report)
