"""Docs lint: every link resolves, every named CLI command and flag exists.

Three checks over ``README.md`` and ``docs/*.md``:

* every *relative* markdown link (``[text](path)``) must point at a
  file or directory that exists in the repository (anchors and
  ``http(s)``/``mailto`` links are skipped; a ``path#anchor`` link is
  checked for the file part);
* every ``repro`` CLI subcommand the docs mention — ``python -m repro
  <sub>`` or inline ``repro <sub>`` code spans — must be a real
  subcommand of :func:`repro.cli.build_parser`, so the docs can never
  advertise a command the CLI does not have;
* every ``--flag`` such a mention passes (up to the end of the code
  span, the line, a pipe or a comment; ``\\`` continuation lines
  included) must be an option of that subcommand's parser, so a
  removed flag cannot live on in the docs.

Run directly (``python tools/check_docs.py``) or via the tier-1 suite
(``tests/test_docs.py``); CI runs both.  Exit code 0 = clean.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import Dict, List, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: [text](target) — excluding images; target captured up to ) or space
_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")

#: ``python -m repro <sub>`` in any code block or prose
_MODULE_CMD = re.compile(r"python(?:3)?\s+-m\s+repro\s+([a-z][a-z0-9-]*)")

#: inline code spans like ``repro campaign --repeat 3`` or `repro detect`
_INLINE_CMD = re.compile(r"`+\s*repro\s+([a-z][a-z0-9-]*)")

#: either mention form, plus the rest of the command it starts
_CMD_WITH_ARGS = re.compile(
    r"(?:python(?:3)?\s+-m\s+|`+\s*)repro\s+([a-z][a-z0-9-]*)([^`|#;&]*)"
)

#: a long option passed on such a command
_FLAG = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)")


def doc_files() -> List[pathlib.Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def _subparsers(parser: argparse.ArgumentParser) -> Dict[str, argparse.ArgumentParser]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _cli_parsers() -> Dict[str, argparse.ArgumentParser]:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.cli import build_parser

    parsers = _subparsers(build_parser())
    if not parsers:
        raise AssertionError("repro.cli.build_parser grew no subparsers?")
    return parsers


def _options(parser: argparse.ArgumentParser) -> set:
    """Option strings of *parser* and of any nested subcommand parsers."""
    options = set(parser._option_string_actions)
    for nested in _subparsers(parser).values():
        options |= _options(nested)
    return options


def cli_options() -> Dict[str, set]:
    """Subcommand -> every option string its parser accepts."""
    return {name: _options(parser) for name, parser in _cli_parsers().items()}


def _display(path: pathlib.Path) -> str:
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def check_links(path: pathlib.Path) -> List[str]:
    errors = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        for target in _LINK.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = (path.parent / file_part).resolve()
            if not resolved.exists():
                errors.append(
                    f"{_display(path)}:{number}: broken link "
                    f"-> {target}"
                )
    return errors


def check_cli_mentions(path: pathlib.Path, subcommands: set) -> List[str]:
    errors = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        mentioned = set(_MODULE_CMD.findall(line)) | set(_INLINE_CMD.findall(line))
        for name in mentioned - subcommands:
            errors.append(
                f"{_display(path)}:{number}: docs name a "
                f"'repro {name}' subcommand the CLI does not have "
                f"(known: {', '.join(sorted(subcommands))})"
            )
    return errors


def _logical_lines(path: pathlib.Path) -> List[Tuple[int, str]]:
    """Numbered lines with ``\\`` continuations joined onto their first."""
    lines: List[Tuple[int, str]] = []
    start, parts = 0, []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        start = start or number
        stripped = line.rstrip()
        if stripped.endswith("\\"):
            parts.append(stripped[:-1])
            continue
        lines.append((start, " ".join(parts + [line])))
        start, parts = 0, []
    if parts:
        lines.append((start, " ".join(parts)))
    return lines


def check_cli_flags(path: pathlib.Path, options: Dict[str, set]) -> List[str]:
    errors = []
    for number, line in _logical_lines(path):
        for name, rest in _CMD_WITH_ARGS.findall(line):
            if name not in options:
                continue  # check_cli_mentions reports unknown subcommands
            for flag in _FLAG.findall(rest):
                if flag not in options[name]:
                    errors.append(
                        f"{_display(path)}:{number}: docs pass "
                        f"'repro {name} {flag}', which the CLI does not accept"
                    )
    return errors


def run_checks() -> List[str]:
    options = cli_options()
    errors: List[str] = []
    for path in doc_files():
        errors.extend(check_links(path))
        errors.extend(check_cli_mentions(path, set(options)))
        errors.extend(check_cli_flags(path, options))
    return errors


def main() -> int:
    errors = run_checks()
    for error in errors:
        print(error, file=sys.stderr)
    checked = ", ".join(_display(p) for p in doc_files())
    if errors:
        print(f"{len(errors)} docs problem(s) in: {checked}", file=sys.stderr)
        return 1
    print(f"docs clean: {checked}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
