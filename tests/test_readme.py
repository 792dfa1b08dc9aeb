"""README's library and CLI examples run and say what they compute."""

import ast
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import gegentropy
from gegentropy import ExactEntropy, LogLinear, cli

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(gegentropy.__file__).resolve().parent


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


def test_every_public_definition_is_exported_or_used():
    # Helpers only the tests call belong in the tests.  A reference is a
    # name, attribute or import in the package; docstrings do not count.
    defined, referenced = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined |= {(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unused = sorted(f"{module}.{name}" for module, name in defined
                    if name not in gegentropy.__all__ and name not in referenced)
    assert unused == []


def cli_examples():
    """(argv, shown output or None) for each `$ gegentropy` line of README."""
    block = re.search(r"## CLI\n\n```\n(.*?)```", README.read_text(),
                      re.DOTALL).group(1)
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            argv = shlex.split(line[2:], comments=True)
            assert argv[0] == "gegentropy", line
            examples.append((argv[1:], []))
        elif line:
            examples[-1][1].append(line)
    return [(argv, "\n".join(shown) or None) for argv, shown in examples]


CLI_EXAMPLES = cli_examples()


@pytest.mark.parametrize("argv, shown", CLI_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in CLI_EXAMPLES])
def test_cli_example_runs_and_prints_what_is_shown(argv, shown, capsys,
                                                   monkeypatch):
    monkeypatch.delenv(cli.ENV_PRECISION, raising=False)
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.rstrip("\n")
    if shown is None:
        return
    if shown.startswith("{"):
        # "{...}" and "..." stand for values elided from the record.
        want = json.loads(shown.replace("{...}", "null").replace('"..."', "null"))
        got = json.loads(out)
        assert list(got) == list(want)
        for key, value in want.items():
            assert value is None or got[key] == value, key
    elif shown.endswith("..."):
        assert out.startswith(shown[:-3])
    else:
        assert out == shown
