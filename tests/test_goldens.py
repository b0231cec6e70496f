"""Golden-file regression tests: the rendered artifacts are pinned.

The simulation is deterministic, so the CLI's artifact renderings can
be compared byte-for-byte against checked-in goldens.  If a legitimate
change alters an artifact, regenerate with::

    python -m repro table3 --format csv > tests/goldens/table3.csv
    python -m repro table2 > tests/goldens/table2.txt
    python -m repro fig2   > tests/goldens/fig2.txt
    python -m repro table1 > tests/goldens/table1.txt
"""

import pathlib

import pytest

from repro.cli import main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "goldens"

CASES = {
    "table3.csv": ["table3", "--format", "csv"],
    "table2.txt": ["table2"],
    "fig2.txt": ["fig2"],
    "table1.txt": ["table1"],
}


@pytest.mark.parametrize("golden_name", sorted(CASES))
def test_artifact_matches_golden(golden_name, capsys):
    assert main(CASES[golden_name]) == 0
    rendered = capsys.readouterr().out
    expected = (GOLDEN_DIR / golden_name).read_text()
    assert rendered == expected, (
        f"{golden_name} drifted from its golden; if intentional, regenerate it"
    )


def test_goldens_exist_for_every_case():
    # ``fold/`` holds the observability fold goldens (tests/test_record_fold.py)
    on_disk = {path.name for path in GOLDEN_DIR.iterdir()}
    assert on_disk == set(CASES) | {"fold"}
