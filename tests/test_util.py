import os

import numpy as np
import pytest

from adselect import util
from adselect.util import csv_text, write_text


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

