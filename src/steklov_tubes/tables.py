"""Flat-file output of eigenvalue tables (CSV and JSON).

Floats are written with repr(), the shortest round-trip form, so output
files are byte-stable across runs of the same inputs; numpy floats are
written as the plain floats they equal.  mode_row() builds every mode
table row, whether the sigma comes from a model mode, a sphere-cap
closed form or a FEM solve; its key order is the CSV header.
"""

from __future__ import annotations

import io
import json
import math

from .harmonics import ModeEigenvalue


def mode_row(eps, j, k, q, family, multiplicity, sigma) -> dict:
    """One mode table row; eps "" (a planar FEM domain) blanks the scaled cells."""
    scaled = eps != ""
    return {
        "eps": eps,
        "j": j,
        "k": k,
        "q": q,
        "family": family,
        "multiplicity": multiplicity,
        "sigma": sigma,
        "eps_sigma": eps * sigma if scaled else "",
        "eps_logeps_sigma": eps * abs(math.log(eps)) * sigma if scaled else "",
    }


def mode_rows(eps: float, modes: list[ModeEigenvalue]) -> list[dict]:
    return [
        mode_row(eps, m.j, m.k, m.q, m.family, m.multiplicity, m.value) for m in modes
    ]


def _cell(value) -> str:
    # float() first: numpy 2 spells repr(np.float64(x)) as "np.float64(x)"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(rows: list[dict], columns: tuple[str, ...], out: io.TextIOBase) -> None:
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_cell(row[c]) for c in columns) + "\n")


def write_json(obj, out: io.TextIOBase) -> None:
    json.dump(obj, out, indent=2, sort_keys=True)
    out.write("\n")
