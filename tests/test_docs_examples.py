"""Execute every python code block in docs/TUTORIAL.md, and parse every
``repro`` command line shown in the shell blocks of README.md and docs/.

The tutorial promises its code runs; this test keeps that promise
mechanical.  Blocks execute in order in one shared namespace (the
tutorial is a single narrative), so a failure reports the block's
position and first line.
"""

import os
import re
import shlex

import pytest

DOCS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "docs")
TUTORIAL = os.path.join(DOCS_DIR, "TUTORIAL.md")

_BLOCK_RE = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def extract_python_blocks(path):
    """``(start_line, source)`` for every fenced python block."""
    with open(path) as f:
        text = f.read()
    blocks = []
    for match in _BLOCK_RE.finditer(text):
        start_line = text[:match.start()].count("\n") + 2
        blocks.append((start_line, match.group(1)))
    return blocks


def test_tutorial_has_blocks():
    assert len(extract_python_blocks(TUTORIAL)) >= 5


def test_tutorial_blocks_execute():
    namespace = {"__name__": "docs_tutorial"}
    for start_line, source in extract_python_blocks(TUTORIAL):
        code = compile(source, f"{TUTORIAL}:{start_line}", "exec")
        try:
            exec(code, namespace)
        except Exception as exc:
            first = source.strip().splitlines()[0]
            pytest.fail(
                f"tutorial block at line {start_line} ({first!r}) "
                f"raised {type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# Shell examples: every `repro` command line parses with the real CLI
# ----------------------------------------------------------------------

README = os.path.join(DOCS_DIR, os.pardir, "README.md")
_SHELL_BLOCK_RE = re.compile(r"^```(?:console|sh|shell|bash)\n(.*?)^```",
                             re.MULTILINE | re.DOTALL)


def shell_docs():
    return [README] + sorted(
        os.path.join(DOCS_DIR, name) for name in os.listdir(DOCS_DIR)
        if name.endswith(".md"))


def extract_repro_commands(path):
    """``(line, argv)`` for every ``repro`` invocation in the shell and
    console blocks of one markdown file: prompts, environment
    assignments, comments, a trailing ``&`` and ``\\`` continuations are
    dropped; ``argv`` is what follows ``repro``."""
    with open(path) as f:
        text = f.read()
    commands = []
    for match in _SHELL_BLOCK_RE.finditer(text):
        first_line = text[:match.start()].count("\n") + 2
        logical = ""
        for offset, line in enumerate(match.group(1).splitlines()):
            if not logical:
                line_no = first_line + offset
            logical += line.removeprefix("$ ")
            if logical.endswith("\\"):
                logical = logical[:-1] + " "
                continue
            words = shlex.split(logical, comments=True)
            logical = ""
            if words and words[-1] == "&":
                words.pop()
            if "repro" in words:
                commands.append((line_no,
                                 words[words.index("repro") + 1:]))
    return commands


def test_docs_show_repro_commands():
    assert len([c for path in shell_docs()
                for c in extract_repro_commands(path)]) >= 20


_FILE_NAME_RE = re.compile(r"^[\w-]+\.\w+$")


@pytest.mark.parametrize("path", shell_docs(), ids=os.path.basename)
def test_shell_examples_parse(path, capsys, tmp_path, monkeypatch):
    from repro.cli import build_parser
    from repro.common.registry import Registry
    parser = build_parser()
    # An optional backend this host lacks (numba) still names a
    # registered entry: accept it, as a host that has it would; unknown
    # names still fail.  Input-file arguments must exist: run where the
    # named files do.
    monkeypatch.setattr(Registry, "_usable", lambda self, entry: entry)
    monkeypatch.chdir(tmp_path)
    for line_no, argv in extract_repro_commands(path):
        for word in argv:
            if _FILE_NAME_RE.match(word):
                (tmp_path / word).touch()
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{os.path.basename(path)}:{line_no}: "
                        f"`repro {' '.join(argv)}` does not parse: "
                        f"{capsys.readouterr().err.strip()}")
