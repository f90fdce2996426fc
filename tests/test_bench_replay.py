"""The benchmark's traced replay keeps working against the library.

``bench/spans.py::replay`` makes the library calls of each CLI call itself
(``PowerSolution`` from five arguments, the list form of ``member`` and
``pareto``, ``load_channel_file(validate_channel=False)``), so a library
change can break ``bench/run.py --trace 1`` while every CLI output stays the
same. This replays one round of the ``cli_small`` workload, untraced.
"""

import shutil
import sys
from pathlib import Path

import tinpower as tp
import tinpower.cli  # noqa: F401  (makes tp.cli available)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_cli_small_round_replays(tmp_path, monkeypatch):
    inputs = workloads.build("cli_small", 1, ROOT)
    inputs.write(tmp_path)
    shutil.copytree(ROOT / "channels", tmp_path / "channels")
    monkeypatch.chdir(tmp_path)
    for call in inputs.calls:
        spans.replay(tp, call, spans.NullRecorder())
