"""The README's python blocks run, in order, in one namespace.

It imports nothing beyond the package, so `python tests/test_readme.py` also
runs the blocks against an install without the test extra.
"""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def run_readme_blocks(path: Path = README) -> int:
    """exec every ```python block of path in order, in one namespace, and
    return how many ran."""
    text = path.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(path), "exec"), namespace)
    return len(blocks)


def test_readme_python_blocks_run():
    assert run_readme_blocks() == README.read_text().count("```python")


if __name__ == "__main__":
    print(f"{run_readme_blocks()} README blocks ran")
