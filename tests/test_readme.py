"""Every fenced python block in README.md runs as written."""

import os
import re

import pytest

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
