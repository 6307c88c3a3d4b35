"""README's ``python`` blocks run as written, and each line whose comment
starts with ``True`` or ``False`` gives that value."""

import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block):
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        claim = comment.split()[:1]
        if claim in (["True"], ["False"]):
            assert eval(code, namespace) is (claim == ["True"]), line
