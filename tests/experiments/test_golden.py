"""Golden regression fixtures for the reproduced numbers.

Small-size renderings of Figure 3, Figure 9 and Table 4 are checked
into ``tests/data/`` and compared byte-for-byte.  Any refactor of the
runner, the sweep harness, or the simulator that silently shifts a
reproduced number fails here first.

Volatile ``harness:`` notes (cache-hit counters, wall time) are
stripped before comparison; everything else — values, formatting,
column layout — must match exactly.  To regenerate after an
*intentional* change, run this module with ``REGENERATE_GOLDEN=1``.
"""

import os
import pathlib

import pytest

from repro.experiments import fig3_speedup, fig9_logicspeed, table4_model
from repro.experiments.results import ExperimentResult

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"

GOLDEN = {
    "fig3_golden.txt": lambda: fig3_speedup.run(
        apps=["array-insert", "database"], sweep=[1, 4]
    ),
    # Two logic divisors over sizes below (2, 8 pages) and above (32,
    # 256 pages) the conventional extrapolation cap: the points share
    # conventional baselines across divisors and across capped sizes.
    "fig9_golden.txt": lambda: fig9_logicspeed.run(
        apps=["matrix-simplex", "database"], divisors=[2, 10]
    ),
    "table4_golden.txt": lambda: table4_model.run(
        apps=["array-insert", "database"], sweep=[1, 4]
    ),
}


def stable_render(result: ExperimentResult) -> str:
    """``render()`` without the volatile sweep-accounting notes."""
    lines = [
        line
        for line in result.render().splitlines()
        if not line.startswith("note: harness:")
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fixture_name", sorted(GOLDEN))
def test_rendering_matches_golden(fixture_name):
    rendered = stable_render(GOLDEN[fixture_name]())
    path = DATA_DIR / fixture_name
    if os.environ.get("REGENERATE_GOLDEN") == "1":  # pragma: no cover
        path.write_text(rendered)
    expected = path.read_text()
    assert rendered == expected, (
        f"{fixture_name} drifted from the checked-in golden rendering; "
        "if the change is intentional, regenerate with REGENERATE_GOLDEN=1"
    )


def test_golden_fixtures_have_no_volatile_notes():
    for name in GOLDEN:
        content = (DATA_DIR / name).read_text()
        assert "harness:" not in content
