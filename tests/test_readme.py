import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    # the Library section's example, against the names the package exports
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
