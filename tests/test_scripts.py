import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sundermeyer_cases_runs_every_regime(capsys):
    load_script("sundermeyer_cases").main()
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.strip() == "verdict: involutive"] \
        == ["  verdict: involutive"] * 4
