"""README's examples run as written."""

import re
from pathlib import Path

from sqgrad.harness import load_experiment_spec

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def test_the_python_examples_run_in_order(capsys):
    blocks = _blocks("python")
    assert blocks
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    capsys.readouterr()


def test_the_spec_example_loads(tmp_path):
    (block,) = _blocks("json")
    path = tmp_path / "spec.json"
    path.write_text(block, encoding="utf-8")
    spec = load_experiment_spec(path)
    assert spec.name == "slice_d10" and len(spec.methods) == 2
