"""The golden corpus: canonical reports, emitted files and quotient outputs
must stay byte-identical across refactors.  Regenerate deliberately with
tests/golden/make_golden.py."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).resolve().parent / "golden" / "make_golden.py"
)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


@pytest.mark.parametrize(
    "kind,name,argv", make_golden.CASES, ids=[name for _, name, _ in make_golden.CASES]
)
def test_golden(kind, name, argv):
    expected = make_golden.snapshot_path(name).read_text(encoding="utf-8")
    assert make_golden.render_case(kind, argv) == expected
