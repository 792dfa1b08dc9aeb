"""README's library example runs and says what it computes."""

import re
from fractions import Fraction
from pathlib import Path

import mpmath as mp

import gegentropy
from gegentropy import ExactEntropy, LogLinear

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_library_example_matches_its_comments():
    ns = {}
    exec(python_block(), ns)
    e = ns["e"]
    assert isinstance(e, ExactEntropy) and e.plain_part.is_zero()
    assert e.pi_part == LogLinear(Fraction(119, 240), {2: Fraction(-7)})
    assert mp.nstr(ns["value"], 5) == "-13.685"
    normed = ns["normed"]
    assert normed.pi_part.is_zero() and not normed.plain_part.is_zero()
    assert abs(ns["oracle"] - ns["value"]) < 1e-8


def test_public_names_resolve():
    text = README.read_text()
    for name in gegentropy.__all__:
        assert hasattr(gegentropy, name), name
        assert re.search(rf"\b{name}\b", text), f"{name} is not in README.md"
    imported = re.search(r"from gegentropy import \((.*?)\)", python_block(),
                         re.DOTALL).group(1)
    for name in re.findall(r"\w+", imported):
        assert name in gegentropy.__all__, name
