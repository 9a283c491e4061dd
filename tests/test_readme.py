import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    # the block uses only public names, so a removed name fails here
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README}:Library quick start", "exec"), {})
