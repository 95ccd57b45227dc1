"""README.md's Python example runs as written, from the repository root, and
its table DSL example parses."""

import pathlib
import re

from lingdist.subst import parse_table

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(monkeypatch, capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)
    assert blocks
    monkeypatch.chdir(ROOT)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("(")  # the printed Newick tree


def test_readme_table_example_parses():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^\*\*Substitution tables\*\*.*?^```\n(.*?)^```$", text,
                      flags=re.S | re.M).group(1)
    table = parse_table(block)
    assert table.cost("A", "a") == 0.1
    assert table.cost("a", "â") == 0.0
    assert table.cost("b", "p") == 0.2
