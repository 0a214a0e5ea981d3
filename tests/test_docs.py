"""README stays in step with the package: its library example runs, and
every top-level export is documented there."""

import re
from pathlib import Path

import heraldnet

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_section() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    return section.split("\n## ", 1)[0]


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", library_use_section(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    assert "('D', 'D', 'D')" in capsys.readouterr().out


def test_every_export_resolves_and_is_documented():
    section = library_use_section()
    for name in heraldnet.__all__:
        assert getattr(heraldnet, name) is not None
        assert re.search(rf"\b{name}\b", section), f"{name} is missing from README"
