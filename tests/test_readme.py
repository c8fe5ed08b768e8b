"""Every fenced python block and every `cospow` line of the sh blocks in
README.md runs as written."""

import os
import re
import shlex

import pytest

from cospow import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_readme_has_python_examples():
    assert python_blocks()


@pytest.mark.parametrize("block", python_blocks())
def test_readme_python_block(block):
    exec(compile(block, "README.md", "exec"), {})


def cospow_lines():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("cospow ")]


def test_readme_has_cospow_examples():
    assert cospow_lines()


@pytest.mark.parametrize("line", cospow_lines())
def test_readme_cospow_line(line, capsys):
    # a line is one command, optionally followed by `; echo $?`
    argv = shlex.split(line.split(";")[0])[1:]
    want = 1 if "--inject-error" in argv else 0
    assert cli.main(argv) == want
    assert capsys.readouterr().out
