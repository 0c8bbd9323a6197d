"""The benchmark's attenuated scenario, on the package's own table.

``perfbench/configs/sweep_attenuated.json`` names the bundled table by a
path relative to the checkout root, so loading it as it stands reads the
checkout's copy, also where the suite runs against an installed package.
:func:`sweep_attenuated_config` keeps that config's frequencies and points
the table at the data file of the package this suite imports.
"""

import json
from pathlib import Path

from qi_rangekit import atmosphere

BUNDLED_CSV = str(Path(atmosphere.__file__).parent / "data" / atmosphere._BUNDLED_NAME)
SWEEP_ATTENUATED_JSON = (
    Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "sweep_attenuated.json"
)


def sweep_attenuated_config(directory: Path) -> Path:
    """Write the sweep_attenuated scenario, table path replaced by
    :data:`BUNDLED_CSV`, as a config file in ``directory``; return its path."""
    frequencies = json.loads(SWEEP_ATTENUATED_JSON.read_text(encoding="utf-8"))["frequencies_hz"]
    path = directory / "sweep_attenuated.json"
    path.write_text(json.dumps({"frequencies_hz": frequencies,
                                "attenuation_table_path": BUNDLED_CSV}), encoding="utf-8")
    return path
