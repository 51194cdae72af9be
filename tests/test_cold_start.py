"""numpy stays out of the package import and of the CSI decision path.

Each check runs in a fresh interpreter, because this test process has
numpy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import v2vsec

SRC = Path(__file__).resolve().parents[1] / "src"

# The direct link fails its threshold on line.1, so the decision runs the
# relay ladder, and the relay power search with it.
SCENARIO_TEXT = """\
[link]
r_m = 150
alpha = 1.4
tau_s = 0.2
pn0_db = 60

[thresholds]
band.0 = 0, 25, 14
band.1 = 25, inf, 10.9

[relay.e]
h_rb = 2e-9
h_re = 8e-6
p_max = 3e9

[csi]
line.0 = CSI1|B|1|0|23|-60|-90|30|5
line.1 = CSI1|B|2|100|23|-60|-90|30|20
"""


def _numpy_loaded_after(code: str) -> bool:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    probe = code + "\nimport sys\nprint('numpy' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.splitlines()[-1] == "True"


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "ladder.ini"
    path.write_text(SCENARIO_TEXT, encoding="utf-8")
    return path


def test_package_import():
    assert not _numpy_loaded_after("import v2vsec")


def test_scenario_and_decisions(scenario_path):
    code = f"""
from v2vsec.protocol import ProtocolSession
from v2vsec.scenario import load_scenario
scenario = load_scenario({str(scenario_path)!r})
session = ProtocolSession(scenario=scenario.link, config=scenario.config)
modes = [session.process(msg).mode for msg in scenario.messages]
assert modes == ["direct", "relay"], modes
"""
    assert not _numpy_loaded_after(code)


def test_protocol_trace_command(scenario_path, tmp_path):
    out = tmp_path / "trace.csv"
    code = f"""
from v2vsec.cli import main
assert main(["protocol-trace", "--scenario", {str(scenario_path)!r}, "--out", {str(out)!r}]) == 0
"""
    assert not _numpy_loaded_after(code)
    assert out.read_text(encoding="utf-8").count("\n") == 3


def test_array_layers_still_load_numpy():
    assert _numpy_loaded_after("import v2vsec.ergodic")


class TestLazyNamespace:
    def test_every_export_resolves_to_its_submodule_object(self):
        import importlib

        for name, module in v2vsec._EXPORTS.items():
            owner = importlib.import_module(f"v2vsec.{module}")
            assert getattr(v2vsec, name) is getattr(owner, name), name

    def test_all_and_dir_come_from_the_table(self):
        assert set(v2vsec.__all__) == {*v2vsec._EXPORTS, "KERNEL_BACKEND", "__version__"}
        assert set(v2vsec.__all__) <= set(dir(v2vsec))

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'shannon_capacity'"):
            v2vsec.shannon_capacity  # noqa: B018

    def test_eager_names(self):
        assert v2vsec.KERNEL_BACKEND == "numpy"
        assert v2vsec.__version__ == "0.1.0"
