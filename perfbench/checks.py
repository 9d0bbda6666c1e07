"""Output checks: closed forms where they exist, golden fingerprints elsewhere.

A golden fingerprint splits an output into its shape (every key, string and
integer, with floats blanked) and its floats.  The shape must match exactly,
because the program promises byte-stable JSON; floats match to rtol 1e-9.
Long float lists are stored as aggregates to keep ``golden.json`` small.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

RTOL = 1e-9
ATOL = 1e-12
MAX_STORED_FLOATS = 2000
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


def close(got: float, want: float, what: str, atol: float = 1e-10) -> None:
    if not (isinstance(got, (int, float)) and math.isfinite(got)):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")
    if abs(got - want) > max(atol, RTOL * abs(want)):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


def equal(got, want, what: str) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise CheckFailed("empty CSV output")
    try:
        return rows[0], [[float(v) for v in row] for row in rows[1:]]
    except ValueError as exc:
        raise CheckFailed(f"non-numeric CSV cell: {exc}") from exc


def _split(value, floats: list[float]):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        floats.append(value)
        return "~"
    if isinstance(value, dict):
        return {k: _split(v, floats) for k, v in value.items()}
    return [_split(v, floats) for v in value]


def fingerprint(kind: str, text: str) -> dict:
    """Shape digest plus floats (or float aggregates) of a JSON or CSV output."""
    floats: list[float] = []
    if kind == "json":
        shape = _split(json.loads(text), floats)
    else:
        header, rows = parse_csv(text)
        shape = [header, len(rows)]
        floats = [v for row in rows for v in row]
    digest = hashlib.sha256(json.dumps(shape, sort_keys=False).encode()).hexdigest()
    out: dict = {"shape": digest, "count": len(floats)}
    if len(floats) <= MAX_STORED_FLOATS:
        out["floats"] = floats
    else:
        out["abs_sum"] = math.fsum(abs(v) for v in floats)
        out["sq_sum"] = math.fsum(v * v for v in floats)
        out["weighted"] = math.fsum(v * (1 + i % 97) for i, v in enumerate(floats))
    return out


def compare_fingerprint(got: dict, want: dict, what: str) -> None:
    equal(got["shape"], want["shape"], f"{what}: output shape digest")
    equal(got["count"], want["count"], f"{what}: float count")
    if "floats" in want:
        for i, (g, w) in enumerate(zip(got["floats"], want["floats"])):
            close(g, w, f"{what}: float #{i}", atol=ATOL)
    else:
        for key in ("abs_sum", "sq_sum", "weighted"):
            close(got[key], want[key], f"{what}: {key}", atol=ATOL)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)
