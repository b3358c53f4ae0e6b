import ast
import os
import pathlib

import numpy as np
import pytest

from adselect import util
from adselect.errors import ConfigError, DataError
from adselect.util import csv_text, read_csv, read_json, read_text, write_text


def test_csv_text_cell_rule():
    """Floats round-trip through fmt_float, NaN and None are empty cells,
    anything else is written as csv writes it; lines end in "\\n"."""
    row = ["halo", 3, 0.1, np.float64(1 / 3), 1e-7, np.nan, None, "", "a,b"]
    assert csv_text([["h"], row]) == 'h\nhalo,3,0.1,0.3333333333333333,1e-07,,,,"a,b"\n'
    assert float(csv_text([[np.float64(1 / 3)]])) == 1 / 3


@pytest.mark.parametrize("stop", ("write", "rename"))
def test_interrupted_write_keeps_the_previous_file(tmp_path, monkeypatch, stop):
    """A write stopped before its rename leaves the old bytes and no temporary file."""
    path = tmp_path / "meta.csv"
    write_text(str(path), "old\n")
    text = "new\n"
    if stop == "rename":
        def killed(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(util.os, "replace", killed)
    else:
        text = "new \ud800\n"  # a lone surrogate has no UTF-8 form: the write itself raises
    with pytest.raises((KeyboardInterrupt, UnicodeEncodeError)):
        write_text(str(path), text)
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["meta.csv"]



def test_write_text_creates_its_directory(tmp_path):
    write_text(str(tmp_path / "a" / "b" / "f.csv"), "x\n")
    assert (tmp_path / "a" / "b" / "f.csv").read_bytes() == b"x\n"


# calls that open or parse an input file
_READS = {"open", "io.open", "os.open", "os.fdopen", "csv.reader", "csv.DictReader", "json.load", "np.load",
          "np.loadtxt", "np.genfromtxt", "logging.FileHandler"}


def test_files_are_opened_and_parsed_only_in_util():
    """util.read_text and util.write_text hold the only opens in src/ and
    util.read_csv the only CSV parser; the --log-file handler is the one exception."""
    found = {}
    for path in sorted(pathlib.Path(util.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name in _READS or name.endswith(".open"):
                    found.setdefault(path.name, set()).add(name)
    assert found == {"util.py": {"open", "csv.reader"}, "cli.py": {"logging.FileHandler"}}


def test_read_text_keeps_line_ends_and_maps_failures(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\r\nb\rc\n")
    assert read_text(str(path), DataError, "test").encode("utf-8") == path.read_bytes()
    path.write_bytes(b"caf\xe9")
    with pytest.raises(ConfigError, match="cannot read test file"):
        read_text(str(path), ConfigError, "test")
    with pytest.raises(DataError, match="cannot read test file"):
        read_text(str(tmp_path / "absent"), DataError, "test")
    path.write_text("{")
    with pytest.raises(ConfigError, match="corrupt test file"):
        read_json(str(path), ConfigError, "test")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "header row required"),
        ("\na,b\n1,2\n", "header row required"),
        ("a,b\n\n", "no data rows"),
        ("a,b\n1,2\n3\n", "row 3 has 1 cells, expected 2"),
        ("a\n" + "x" * (1 << 18) + "\n", "malformed CSV"),  # past csv's field size limit
    ],
)
def test_read_csv_rejects(tmp_path, text, message):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=message):
        read_csv(str(path), "test")


def test_read_csv_numbers_records_and_skips_empty_rows(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text('a,b\r\n1,"x\ny"\r\n\r\n3,4\r\n')
    assert read_csv(str(path), "test") == (["a", "b"], [(2, ["1", "x\ny"]), (4, ["3", "4"])])
