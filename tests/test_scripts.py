"""Smoke tests of the scripts under ``scripts/``, which import the library's
public training functions and would otherwise break unnoticed."""

import importlib.util
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("transform", ["identity", "dct"])
def test_run_planted_partition_reports_three_lines(transform, capsys):
    script = load_script("run_planted_partition")
    assert script.main(["--epochs", "2", "--patience", "2", "--transform", transform]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert re.fullmatch(r"graph: nodes=60 slots=8 edges=\d+", lines[0])
    assert re.fullmatch(r"stopped after 2 epoch\(s\); best validation F1 \d\.\d{4} at epoch [12]; \d+\.\ds", lines[1])
    assert re.fullmatch(r"test_f1=\d\.\d{4} test_accuracy=\d\.\d{4}", lines[2])
