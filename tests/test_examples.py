"""Every script in ``examples/`` runs to completion.

Each example is a seeded, deterministic scenario; a few print a figure
that pins a calibrated behaviour, checked here as well.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))

#: example -> a line its output must contain.
EXPECTED = {
    "chaos_drill": "schedule: <ChaosSchedule crashes=1 partitions=1>",
    "hot_patch_service": "client stalled on stale binding for: 30.5 s",
    "observed_fleet": "dcdo.evolved",
}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    output = capsys.readouterr().out
    assert output
    assert EXPECTED.get(path.stem, "") in output
