"""The README examples, run as printed.

Every ``$ ncbinom ...`` line in a plain fenced block is run through
``ncbinom.cli.main``, and its stdout must equal the lines printed under it
byte for byte.  The ``python`` Library block is executed, so its asserts
must hold, and every name the package exports must be named in code.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

import ncbinom
from ncbinom.binomial import EXPAND_METHODS
from ncbinom.cli import build_parser, main
from ncbinom.verify import SUITES

README = Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def _blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return [body for lang, body in FENCE.findall(text) if lang == language]


def _cli_examples() -> list[tuple[str, str]]:
    """(command, expected stdout) for each ``$ ncbinom`` line."""
    examples = []
    for body in _blocks(""):
        for line in body.splitlines():
            if line.startswith("$ "):
                examples.append([line[2:], []])
            elif examples:
                examples[-1][1].append(line)
    return [
        (command, "\n".join(lines).rstrip("\n") + "\n")
        for command, lines in examples
    ]


EXAMPLES = _cli_examples()


@pytest.mark.parametrize("command, expected", EXAMPLES,
                         ids=[command for command, _ in EXAMPLES])
def test_cli_example(command, expected, capsys):
    argv = shlex.split(command)
    assert argv[0] == "ncbinom"
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out == expected


def test_library_example():
    (code,) = _blocks("python")
    exec(compile(code, str(README), "exec"), {})


def _listed_names(label: str) -> list[str]:
    """The backticked names of the README sentence that starts with ``label``."""
    text = README.read_text(encoding="utf-8")
    (sentence,) = re.findall(rf"^{label} (.*?)\.\s", text, re.MULTILINE | re.DOTALL)
    return re.findall(r"`([^`]+)`", sentence)


def test_listed_methods_and_suites_match_the_code():
    assert _listed_names("Methods:") == list(EXPAND_METHODS)
    assert _listed_names("Named verification suites:") == [*SUITES, "all"]
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    (method,) = [action for action in commands.choices["expand"]._actions
                 if action.dest == "method"]
    assert list(method.choices) == list(EXPAND_METHODS)
    (suite,) = [action for action in commands.choices["verify"]._actions
                if action.dest == "suite"]
    assert suite.choices == SUITES + ("all",)


def test_every_export_is_named():
    # as a whole name in a code span or a fenced block, not inside prose
    text = README.read_text(encoding="utf-8")
    code = [body for _, body in FENCE.findall(text)]
    code += re.findall(r"`([^`]+)`", FENCE.sub("", text))
    missing = [name for name in ncbinom.__all__ if name != "__version__"
               and not any(re.search(rf"(?<!\w){name}(?!\w)", span) for span in code)]
    assert missing == []
