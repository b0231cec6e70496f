"""The docs lint (tools/check_docs.py) as a tier-1 test.

Every relative link in README.md and docs/*.md must resolve, and every
``repro`` CLI subcommand the docs mention, with every flag they pass
it, must exist in ``repro.cli.build_parser`` — so the docs cannot drift
from the code.
"""

import pathlib
import sys

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import check_docs  # noqa: E402


def test_docs_have_no_broken_links_or_phantom_commands():
    errors = check_docs.run_checks()
    assert not errors, "\n".join(errors)


def test_lint_actually_scans_the_docs():
    files = check_docs.doc_files()
    names = {path.name for path in files}
    assert "README.md" in names
    assert "parallelism.md" in names
    assert "performance.md" in names


def test_lint_catches_a_broken_link(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("see [missing](./no-such-file.md)\n", encoding="utf-8")
    errors = check_docs.check_links(page)
    assert len(errors) == 1
    assert "no-such-file.md" in errors[0]


def test_lint_catches_a_phantom_cli_command(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("run `repro frobnicate` to fix it\n", encoding="utf-8")
    errors = check_docs.check_cli_mentions(page, {"campaign", "detect"})
    assert len(errors) == 1
    assert "frobnicate" in errors[0]


def test_lint_accepts_known_commands_and_external_links(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "run `python -m repro campaign --pool` and see "
        "[the paper](https://example.com/paper.pdf)\n",
        encoding="utf-8",
    )
    assert check_docs.check_links(page) == []
    assert check_docs.check_cli_mentions(page, {"campaign"}) == []


def test_lint_catches_a_stale_cli_flag(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "run `repro campaign --frobnicate` or\n"
        "`repro campaign --repeat 3` or\n"
        "    python -m repro campaign --workers 2 \\\n"
        "        --frobnicate  # a continuation line\n",
        encoding="utf-8",
    )
    errors = check_docs.check_cli_flags(page, check_docs.cli_options())
    assert len(errors) == 2
    assert all("'repro campaign --frobnicate'" in error for error in errors)
    assert [error.split(":")[1] for error in errors] == ["1", "3"]
