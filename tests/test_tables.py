"""Byte-stable CSV and JSON serialization of eigenvalue tables."""

import io
import json
import math

import numpy as np

from steklov_tubes.harmonics import ModeEigenvalue
from steklov_tubes.tables import mode_row, mode_rows, write_csv, write_json

# the header of every mode table: the key order of mode_row
MODE_HEADER = (
    "eps", "j", "k", "q", "family", "multiplicity",
    "sigma", "eps_sigma", "eps_logeps_sigma",
)


def test_mode_rows():
    eps = 0.01
    modes = [
        ModeEigenvalue(0.0, 0, 0, 0, 1, "SN"),
        ModeEigenvalue(120.5, 1, 0, 2, 4, "SD"),
    ]
    rows = mode_rows(eps, modes)
    assert len(rows) == 2
    assert tuple(rows[0]) == MODE_HEADER
    assert rows[0]["sigma"] == 0.0
    assert rows[0]["family"] == "SN"
    assert rows[1]["eps_sigma"] == eps * 120.5
    assert rows[1]["eps_logeps_sigma"] == eps * abs(math.log(eps)) * 120.5
    assert rows[1]["multiplicity"] == 4
    # eps "" marks a planar FEM domain: no scaled cells
    row = mode_row("", "", "", "", "Steklov", "", 2.5)
    assert tuple(row) == MODE_HEADER
    assert row["sigma"] == 2.5
    assert row["eps_sigma"] == "" and row["eps_logeps_sigma"] == ""


def test_csv_repr_roundtrip():
    # repr is the shortest form that parses back to the same float; numpy
    # 2 reprs np.float64 as "np.float64(...)", so those cells go through float
    value = 2.0831674483484426
    for sigma in (value, np.float64(value)):
        row = {"eps": 0.1, "sigma": sigma, "q": 3, "family": "SD", "note": ""}
        cols = ("eps", "sigma", "q", "family", "note")
        buf = io.StringIO()
        write_csv([row], cols, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "eps,sigma,q,family,note"
        cells = lines[1].split(",")
        assert cells[1] == repr(value)
        assert float(cells[1]) == value
        assert cells[2] == "3"
        assert cells[4] == ""
        # identical input gives identical bytes
        buf2 = io.StringIO()
        write_csv([row], cols, buf2)
        assert buf2.getvalue() == buf.getvalue()


def test_json_sorted_keys():
    buf = io.StringIO()
    write_json({"b": 1, "a": [1.5, 2], "c": {"z": 0.1, "y": None}}, buf)
    text = buf.getvalue()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert json.loads(text) == {"b": 1, "a": [1.5, 2], "c": {"z": 0.1, "y": None}}
    # two-space indent, stable across runs
    assert '\n  "a"' in text
