"""Every fenced python block and every `cospow` line of the sh blocks in
README.md runs as written, and every served range README states is the
CLI's."""

import math
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


def limits_paragraph() -> str:
    """README's paragraph on exit codes and served ranges, one space
    between words."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("Exit codes:")
    return " ".join(text[start:text.index("\n\n", start)].split())


def _power_of_two(x: int) -> str:
    assert x == 1 << (x.bit_length() - 1)
    return f"2^{x.bit_length() - 1}"


def test_readme_limits_read_from_the_table():
    served = cli.SERVED
    minpoly_n = served["minpoly"]["n"]
    matrix, zeta, sums = served["matrix"], served["zeta"], served["sums"]
    printed, work = matrix["printed"].hi, zeta["work"]
    precision = served["verify"]["precision"]
    assert zeta["precision"] == sums["precision"] == precision

    def most_terms(n):
        d = 2 ** (n - 3)
        return math.isqrt(work // (d * (d + 64)))

    default = cli.build_parser().parse_args(
        ["zeta", "--s", "3", "--n", "5"]).max_terms
    top = max(n for n in range(zeta["n"].lo, zeta["n"].hi + 1)
              if most_terms(n) >= default)
    phrases = [
        f"`matrix` and `verify` take n <= {matrix['n'].hi} and "
        f"|r| <= {matrix['r'].hi}",
        f"`zeta` takes n {zeta['n'].span()} and a finite s in "
        f"({zeta['s'].lo}, {zeta['s'].hi}]",
        f"`sums` s {sums['s'].span()} and n {sums['n'].span()}",
        f"`group` n {served['group']['n'].span()}",
        f"`minpoly` n {minpoly_n.span()}",
        f"`minpoly --n {minpoly_n.hi} --form both`",
        f"(n = {minpoly_n.hi - 1}: ",
        f"n = {minpoly_n.hi + 1} would pass",
        f"`--precision` from {precision.lo} to {precision.hi} bits",
        f"T^2·d·(d + 64) <= {_power_of_two(work)}",
        f"the default {default:,} terms are served up to n = {top}",
        f"n = {zeta['n'].hi} takes T <= {most_terms(zeta['n'].hi)};",
        f"4^(n-2)·|r| <= {_power_of_two(printed)}",
        f"n = {matrix['n'].hi} takes "
        f"|r| <= {printed // 4 ** (matrix['n'].hi - 2)};",
    ]
    text = limits_paragraph()
    for phrase in phrases:
        assert phrase in text, phrase
