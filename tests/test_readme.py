import re
import shlex
from pathlib import Path

from ldimkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    # the Library section's example, against the names the package exports
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # the CLI section's commands, in order, in one directory
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```$", README.read_text(),
                      re.S | re.M)[1]
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines() if line.startswith("ldimkit ")]
    assert len(commands) > 10
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
