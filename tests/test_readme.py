"""README.md stays runnable: its Python examples execute and its command
lines parse against the current command-line interface."""

import re
import shlex
from pathlib import Path

from tsppcong import cli

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_python_examples_run():
    examples = blocks("python")
    assert examples
    namespace = {}
    for code in examples:  # later blocks build on names from earlier ones
        exec(compile(code, "README.md", "exec"), namespace)


def test_command_lines_parse():
    (commands,) = [b for b in blocks("sh") if "tsppcong " in b]
    lines = [shlex.split(line, comments=True) for line in commands.splitlines()]
    argvs = [argv[1:] for argv in lines if argv and argv[0] == "tsppcong"]
    assert {argv[0] for argv in argvs} == {"expand", "prove", "regress"}
    parser = cli._build_parser()
    for argv in argvs:
        parser.parse_args(argv)  # exits 2 on an unknown option
