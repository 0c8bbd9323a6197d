"""README's "Paper claims" table matches what its commands print.

Each row's command runs through ``main``; every backquoted output must
appear in its stdout, each QI/CI ratio must be the quotient of the printed
ranges, each lossless ratio (1 + 1/N_s)^(1/4), and a claim's "under N m"
must hold for every range its rows print.
"""

import re
from pathlib import Path

import pytest

from qi_rangekit.cli import main

REPO = Path(__file__).resolve().parents[1]


def claims_section() -> str:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    return readme.split("## Paper claims\n", 1)[1].split("\n## ", 1)[0]


def claim_rows() -> list[tuple[str, str, str]]:
    """(claim, command, output) per table row; a row with an empty claim
    cell continues the claim above it."""
    rows, claim = [], ""
    for line in claims_section().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3 or cells[0] in ("claim", "---"):
            continue
        claim = cells[0] or claim
        rows.append((claim, cells[1].strip("`"), cells[2]))
    return rows


ROWS = claim_rows()


def test_the_table_is_read_whole():
    # six claims in nine rows, so a table the parser misreads fails here
    assert (len({claim for claim, _, _ in ROWS}), len(ROWS)) == (6, 9)


@pytest.mark.parametrize("claim, command, output", ROWS, ids=[row[1] for row in ROWS])
def test_each_claim_prints_what_the_table_says(tmp_path, capsys, monkeypatch, claim, command,
                                               output):
    config = re.search(r"```json\n(.*?)```", claims_section(), re.DOTALL).group(1)
    (tmp_path / "table.json").write_text(config, encoding="utf-8")
    argv = [str(tmp_path / arg) if arg == "table.json" else arg for arg in command.split()]
    monkeypatch.chdir(REPO)  # the config names the table relative to the checkout
    assert main(argv) == 0
    out = capsys.readouterr().out
    for quoted in re.findall(r"`([^`]+)`", output):
        assert quoted in out
    ranges = {mode: float(r) for mode, r in re.findall(r"^(ci|qi): r_max = (\S+) m", out,
                                                       flags=re.MULTILINE)}
    ratio = re.search(r"QI/CI (\S+),", output)
    if ratio:
        assert f"{ranges['qi'] / ranges['ci']:.3f}" == ratio.group(1)
    lossless = re.search(r"lossless (\S+)$", output)
    if lossless:
        n_s = float(argv[argv.index("--ns") + 1])
        assert f"{(1.0 + 1.0 / n_s) ** 0.25:.3f}" == lossless.group(1)
    bound = re.search(r"under (\d+) m", claim)
    if bound:
        assert ranges and max(ranges.values()) < float(bound.group(1))
