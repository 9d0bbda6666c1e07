"""Command-line front end.

Loads states and pair selections, runs each analysis, and writes its result
through one writer, :func:`_emit`, to ``--output`` or stdout: JSON for every
analysis, CSV for a ``threshold --p-grid`` sweep and a text table for
``reproduce-paper``.  JSON is written in pieces as it renders, large members
column by column (:func:`_dump`), once every value has been checked, so a
result that is not a finite number writes nothing.  Each subcommand takes
``--output``; ``bound``, ``threshold`` and ``measure-plan`` share
``--r-set/--nr/--tau``.  Exit codes: 0 success, 1 analysis error (degenerate
selection, witness that cannot detect the target, a result that is not a
finite number), 2 input error.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import math
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from itertools import accumulate, chain, groupby
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .dicke_witness import (
    DickeWitnessSpec,
    dimensionality_certificate,
    em_bound_from_q,
    noise_threshold_q,
    q_witness,
)
from .entropy import gme_measure_pure
from .errors import AnalysisError, InvalidInputError, _check_nonnegative
from .indices import _chunks, cut_labels, digit_strings, rank_digits
from .observables import plan_settings
from .ppt import build_ppt_witness, compare_with_witness_bracket
from .reproduce import SEED, run_all
from .states import (
    ElementSource,
    NoisyPureState,
    PureState,
    _check_weights,
    embed_pure,
    load_state_json,
    make_dicke_state,
    make_ghz_state,
    make_max_entangled,
    make_singlet4,
    make_w_state,
)
from .witness import (
    NRVariant,
    PairSet,
    auto_select_R,
    check_xtol,
    compile_witness,
    evaluate,
    load_pairset_json,
    noise_threshold,
)

PRESETS = ("w", "ghz", "dicke", "singlet4", "isotropic")
# a --p-grid start:stop:count longer than this is refused before any point is built
MAX_GRID_POINTS = 10**6
# a measurement plan of more tensor terms than this (GHZ n = 10 has about
# 1.05e6) is refused before any term is built
MAX_PLAN_TERMS = 2**22
# options that several subcommands take, each declared here once
_SHARED_FLAGS: dict[str, dict[str, Any]] = {
    "--nr": dict(choices=("min", "max"), default="min",
                 help="N_R: the fewest (min) or most (max) pairs fixed by one cut"),
    "--tol": dict(type=float, default=1e-9,
                  help="round-off allowance: a bound detects GME above it, Q certifies past it"),
    "--delta": dict(choices=("all", "singles"), default="all",
                    help="noise images Q subtracts: all exchange classes or one-site (singles)"),
}


@dataclass(frozen=True)
class _Leaves:
    """A column of JSON leaves, or of lists of them: item i is the leaf
    ``data[i]``, or with a 2-D ``data`` the list of the leaves in row i.
    Numbers and strings are rendered by :func:`_scalar`, once per distinct
    value (per bit pattern for floats); with ``texts``, ``data`` holds codes
    and ``texts(codes)`` gives their JSON strings in the same shape."""

    data: np.ndarray
    texts: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class _Groups:
    """A column of lists: item i holds items ``bounds[i]`` to ``bounds[i + 1]``
    of the column ``items``."""

    items: Any
    bounds: Sequence[int]


@dataclass(frozen=True)
class _Records:
    """A column of objects with one set of keys: item i holds item i of each
    field's column."""

    fields: dict[str, Any]


@dataclass(frozen=True)
class _Take:
    """A column whose item i is item ``rows[i]`` of the column ``table``: the
    table's items are rendered once, however many rows name them.  Each is
    checked, so with any rows every table item must be named by one."""

    table: Any
    rows: np.ndarray


@dataclass(frozen=True)
class _Column:
    """The list of a column's items or, with ``keys``, the object that maps
    each key to its item; rendered column by column, in chunks of items."""

    items: Any
    keys: Sequence[str] | None = None


_CONTAINERS = (dict, list, tuple, _Column)


class _NotFinite(ValueError):
    """A float JSON cannot hold; ``keys`` collects the dict keys above it,
    innermost first, and ``item`` its item's position in a column."""

    def __init__(self, value: float, item: int | None = None) -> None:
        super().__init__(f"{value!r} is not a finite number")
        self.value = value
        self.item = item
        self.keys: list[str] = []


def _scalar(x: Any) -> str:
    """JSON text of a leaf; a float is first rounded to 12 significant digits."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        rounded = float(f"{x:.12g}")
        if not math.isfinite(rounded):
            raise _NotFinite(x)
        return float.__repr__(rounded)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _dump(obj: Any, pad: str = "") -> Iterator[str]:
    """The pieces of ``json.dumps(obj, indent=2, allow_nan=False)``, with
    every float at 12 significant digits (stable output), in one walk.

    Dict keys are strings; tuples render as lists and a :class:`_Column` as
    its list or object.  The walk runs and every value is checked before
    this returns; a column's chunks are rendered only as the pieces are read,
    and the texts between columns are joined into one piece each.
    """
    out: list[str | Iterator[str]] = []
    _write(obj, pad, out)
    return chain.from_iterable(
        ["".join(run)] if text else chain.from_iterable(run)
        for text, run in groupby(out, lambda piece: type(piece) is str)
    )


def _write(obj: Any, pad: str, out: list[str | Iterator[str]]) -> None:
    """Append the pieces of the text of ``obj`` at indent ``pad`` to ``out``:
    texts, and for a column the iterator of its chunk texts.  Leaves are
    rendered in place rather than through a call of their own."""
    if type(obj) is _Column:
        out.append(_column_chunks(obj, pad))
        return
    if not isinstance(obj, _CONTAINERS):
        out.append(_scalar(obj))
        return
    if not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
        return
    inner = pad + "  "
    if isinstance(obj, dict):
        head = "{\n" + inner
        for k, v in obj.items():
            key = head + encode_basestring_ascii(k) + ": "
            try:
                if isinstance(v, _CONTAINERS):
                    out.append(key)
                    _write(v, inner, out)
                else:
                    out.append(key + _scalar(v))
            except _NotFinite as exc:
                exc.keys.append(k)
                raise
            head = ",\n" + inner
        out.append("\n" + pad + "}")
    else:
        head = "[\n" + inner
        for v in obj:
            if isinstance(v, _CONTAINERS):
                out.append(head)
                _write(v, inner, out)
            else:
                out.append(head + _scalar(v))
            head = ",\n" + inner
        out.append("\n" + pad + "]")


def _numbers(values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The lookup from a chunk of the float, int or str array ``values`` to
    the JSON texts of its entries.  Each distinct bit pattern is rendered
    once, so ``-0.0`` keeps a text of its own; a value that is not finite
    raises :class:`_NotFinite` at the first item (row) that holds one."""
    bits = np.dtype(f"i{values.dtype.itemsize}") if values.dtype.kind == "f" else values.dtype
    distinct = np.unique(values.view(bits))
    try:
        texts = np.array([_scalar(v) for v in distinct.view(values.dtype).tolist()], dtype=object)
    except _NotFinite:
        rows = values.reshape(len(values), -1)
        item = int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
        raise _NotFinite(float(rows[item][~np.isfinite(rows[item])][0]), item) from None
    return lambda chunk: texts[distinct.searchsorted(chunk.view(bits))]


def _render(column: Any, pad: str) -> tuple[int, int, Callable[[slice], list[str]]]:
    """A column's item count, its leaves per item, and the function that
    gives the texts of a slice of its items at indent ``pad``.

    Every value is checked here, before any item is rendered: a value that is
    not finite raises :class:`_NotFinite` naming the first item that holds
    one, with the keys below that item.
    """
    inner = pad + "  "
    if type(column) is _Records:
        fields, errors = [], []
        for key, field in column.fields.items():
            try:
                fields.append((encode_basestring_ascii(key) + ": ", *_render(field, inner)))
            except _NotFinite as exc:
                exc.keys.append(key)
                errors.append(exc)
        if errors:  # the first in the walk: the lowest item, then the first field
            raise min(errors, key=lambda exc: exc.item)
        names = [name for name, _, _, _ in fields]
        head, sep, tail = "{\n" + inner, ",\n" + inner, "\n" + pad + "}"

        def records(items: slice) -> list[str]:
            columns = [render(items) for _, _, _, render in fields]
            return [head + sep.join(map(str.__add__, names, item)) + tail for item in zip(*columns)]

        return fields[0][1], sum(width for _, _, width, _ in fields), records
    if type(column) is _Groups:
        bounds = column.bounds
        try:
            _, width, render = _render(column.items, inner)
        except _NotFinite as exc:
            exc.item = bisect.bisect_right(bounds, exc.item) - 1
            raise
        head, sep, tail = "[\n" + inner, ",\n" + inner, "\n" + pad + "]"
        count = len(bounds) - 1

        def groups(items: slice) -> list[str]:
            # the inner items of these groups in spans of about one chunk,
            # each span's texts joined per group it meets
            ids = range(count)[items]
            parts: list[list[str]] = [[] for _ in ids]
            start, stop = bounds[ids.start], bounds[ids.stop]
            for chunk in _chunks(stop - start, width):
                span = slice(start + chunk.start, min(start + chunk.stop, stop))
                texts, at = render(span), span.start
                group = bisect.bisect_right(bounds, at, ids.start, ids.stop) - 1
                while at < span.stop:
                    end = min(bounds[group + 1], span.stop)
                    if end > at:
                        part = texts[at - span.start : end - span.start]
                        parts[group - ids.start].append(sep.join(part))
                    at, group = end, group + 1
            return [head + sep.join(part) + tail if part else "[]" for part in parts]

        return count, max(1, width * bounds[-1] // max(count, 1)), groups
    if type(column) is _Take:
        rows = column.rows
        if not len(rows):  # nothing of the table is written, so nothing is checked
            return 0, 1, lambda items: []
        try:
            count, width, render = _render(column.table, pad)
        except _NotFinite as exc:
            named = np.flatnonzero(rows == exc.item)
            if not len(named):
                raise ValueError(f"table item {exc.item} is named by no row") from exc
            exc.item = int(named[0])
            raise
        table = np.empty(count, dtype=object)
        for items in _chunks(count, width):
            table[items] = render(items)
        return len(rows), width, lambda items: table[rows[items]].tolist()
    data = column.data
    texts = column.texts or _numbers(data)
    if data.ndim == 1:
        return len(data), 1, lambda items: texts(data[items]).tolist()
    width = data.shape[1]
    if not width:
        return len(data), 1, lambda items: ["[]"] * len(range(len(data))[items])
    head, sep, tail = "[\n" + inner, ",\n" + inner, "\n" + pad + "]"
    return len(data), width, lambda items: [
        head + sep.join(row) + tail for row in texts(data[items]).tolist()
    ]


def _column_chunks(obj: _Column, pad: str) -> Iterator[str]:
    """The text of a :class:`_Column` at indent ``pad``, as an iterator of
    its chunks; its values are checked before this returns."""
    try:
        count, width, render = _render(obj.items, pad + "  ")
    except _NotFinite as exc:
        if obj.keys is not None:
            exc.keys.append(obj.keys[exc.item])
        raise
    opening, closing = "[]" if obj.keys is None else "{}"
    if not count:
        return iter([opening + closing])
    inner = pad + "  "
    sep = ",\n" + inner

    def chunks() -> Iterator[str]:
        head = opening + "\n" + inner
        for items in _chunks(count, width):
            texts = render(items)
            if obj.keys is not None:
                keys = map(encode_basestring_ascii, obj.keys[items])
                texts = [key + ": " + text for key, text in zip(keys, texts)]
            yield head + sep.join(texts)
            head = sep
        yield "\n" + pad + closing

    return chunks()


def _emit(document: dict[str, Any] | list[str], output: str | None) -> None:
    """Write a payload as JSON, or lines of preformatted text, each with a
    newline, to ``output`` or stdout, as it renders.  A value JSON cannot
    hold exits 1 naming its key and writes nothing (:func:`_dump` checks them
    first); another error while rendering can leave ``output`` half written."""
    if isinstance(document, list):
        pieces: Iterable[str] = (line + "\n" for line in document)
    else:
        try:
            pieces = chain(_dump(document), ["\n"])
        except _NotFinite as exc:
            where = "/".join(reversed(exc.keys))
            raise AnalysisError(f"output value {where!r} is {exc.value!r}, not finite") from None
    with open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout) as fh:
        fh.writelines(pieces)


def _build_preset(args: argparse.Namespace) -> PureState:
    for flag in ("n", "d"):
        value = getattr(args, flag)
        if value is not None and value < 2:
            raise InvalidInputError(f"--{flag} must be at least 2, got {value}")
    n = 3 if args.n is None else args.n
    name = args.preset
    if name == "w":
        return make_w_state(n)
    if name == "ghz":
        return make_ghz_state(n, 2 if args.d is None else args.d)
    if name == "dicke":
        if args.n is None or args.d is None or args.m is None:
            raise InvalidInputError("--preset dicke needs --n, --d and --m")
        return make_dicke_state(args.n, args.d, args.m)
    if name == "singlet4":
        return make_singlet4()
    return make_max_entangled(3 if args.d is None else args.d)  # isotropic


def _check_digit_strings(d: int) -> None:
    """Indices are read and printed one character per digit, so d must stay <= 10."""
    if d > 10:
        raise InvalidInputError(f"digit-string indices need d <= 10, got d={d}")


def _load_target(args: argparse.Namespace) -> tuple[PureState | None, ElementSource]:
    """Resolve --state/--preset (+ --p white-noise mixing) to a target.

    Returns the pure state when one is available (file of kind "pure" or a
    preset) alongside the state actually analyzed.
    """
    if args.state and args.preset:
        raise InvalidInputError("give either --state or --preset, not both")
    if args.state:
        rho = load_state_json(args.state)
        pure = rho if isinstance(rho, PureState) else None
    elif args.preset:
        pure = rho = _build_preset(args)
    else:
        raise InvalidInputError("no input state: give --state FILE or --preset NAME")
    _check_digit_strings(rho.d)

    if args.p != 1.0:
        if pure is None:
            raise InvalidInputError("--p mixes white noise into a pure state; input is mixed")
        rho = NoisyPureState(pure, args.p)
    return pure, rho


def _resolve_pairset(args: argparse.Namespace, pure: PureState | None, n: int, d: int):
    if args.r_set:
        return load_pairset_json(args.r_set, n, d)
    if pure is None:
        raise InvalidInputError("no --r-set given and the input is mixed; cannot auto-select")
    return auto_select_R(pure, tau=args.tau)


def _number(convert: Callable[[str], Any], field: str, flag: str) -> Any:
    """``convert(field)``, with a malformed number reported as an input error."""
    try:
        return convert(field)
    except ValueError:
        raise InvalidInputError(f"{flag}: {field!r} is not a number") from None


def _check_finite(args: argparse.Namespace) -> None:
    """A negative --tol would certify more than the data shows; --xtol is
    checked here too, so a sweep that finds no root refuses it all the same.
    ``run_all`` refuses a negative --seed itself."""
    for flag in ("tol", "tau"):
        value = getattr(args, flag, None)
        if value is not None and not math.isfinite(value):
            raise InvalidInputError(f"--{flag} must be finite, got {value}")
        if value is not None:
            _check_nonnegative(f"--{flag}", value)
    if hasattr(args, "xtol"):
        check_xtol(args.xtol)


def _parse_grid(text: str) -> list[float]:
    """Either comma-separated values or start:stop:count."""
    if ":" in text:
        fields = text.split(":")
        if len(fields) != 3:
            raise InvalidInputError(f"grid {text!r} is not start:stop:count")
        start, stop = (_number(float, f, "--p-grid") for f in fields[:2])
        count = _number(int, fields[2], "--p-grid")
        if count < 2:
            raise InvalidInputError("grid needs at least 2 points")
        if count > MAX_GRID_POINTS:
            raise InvalidInputError(f"grid of {count} points exceeds the limit of {MAX_GRID_POINTS}")
        step = (stop - start) / (count - 1)
        return [start + i * step for i in range(count)]
    return [_number(float, v, "--p-grid") for v in text.split(",")]


# ---------------------------------------------------------------------------
# subcommands


def _index_texts(n: int, d: int) -> Callable[[np.ndarray], np.ndarray]:
    """The JSON strings of the bare digit strings of an array of ranks, in its
    shape; digits need no escaping, so each is its text in quotes, built as
    one row of bytes per rank."""

    def texts(ranks: np.ndarray) -> np.ndarray:
        codes = np.full((ranks.size, n + 2), ord('"'), dtype=np.uint8)
        # the digits' bytes written in place: no second int64 array of them
        np.add(rank_digits(ranks.ravel(), n, d), ord("0"), out=codes[:, 1:-1], casting="unsafe")
        return codes.view(f"S{n + 2}").astype("U").reshape(ranks.shape)

    return texts


def _term_table(coeffs: np.ndarray, codes: np.ndarray, alphabet: Sequence[str]) -> _Records:
    """The records ``{"coeff": c, "labels": [...]}`` of a plan's term table,
    from its ``(T,)`` coefficients and ``(n, T)`` codes into ``alphabet``,
    whose labels are each encoded once."""
    names = np.array([encode_basestring_ascii(label) for label in alphabet], dtype=object)
    return _Records({"coeff": _Leaves(coeffs), "labels": _Leaves(codes.T, names.take)})


def cmd_entropy(args: argparse.Namespace) -> int:
    pure, _ = _load_target(args)
    if pure is None:
        raise InvalidInputError("entropy profile needs a pure state (kind == 'pure')")
    report = gme_measure_pure(pure, method=args.method)
    labels = cut_labels(pure.n)
    payload = {
        "n": pure.n,
        "d": pure.d,
        "method": args.method,
        "entropies": _Column(_Leaves(np.array(report.values, dtype=float)), labels),
        "minimizer": labels[report.best],
        "e_m": report.e_m,
    }
    _emit(payload, args.output)
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    pure, rho = _load_target(args)
    r = _resolve_pairset(args, pure, rho.n, rho.d)
    w = compile_witness(r, NRVariant(args.nr))
    value = evaluate(w, rho)
    n, d = rho.n, rho.d
    indices = _index_texts(n, d)
    first, second, bounds = w.reads.images
    images = np.stack((first, second), axis=1)
    # a column per pair, so a pair's image list is written chunk by chunk
    noise_images = {
        f"{a}~{b}": _Column(_Leaves(images[start:stop], indices))
        for (a, b), start, stop in zip(r.as_strings(), bounds, bounds[1:])
    }
    payload = {
        "n": n,
        "d": d,
        "variant": args.nr,
        "pairs": _Column(_Leaves(r.ranks, indices)),
        "n_r": w.n_r,
        "prefactor": w.prefactor,
        "n_eta": _Column(_Leaves(w.eta_counts), digit_strings(w.reads.diagonals, n, d)),
        "noise_images": noise_images,
        "uncounted_profile": _Column(_Leaves(w.profile), cut_labels(n)),
        "value": value,
        "detects_gme": bool(value > args.tol),
    }
    _emit(payload, args.output)
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    pure, _ = _load_target(args)
    if pure is None:
        raise InvalidInputError("threshold sweeps mix white noise into a pure target")
    spec = None
    if args.compare_dicke:
        if args.m is None:
            raise InvalidInputError("--compare-dicke needs --m (excitation number)")
        spec = DickeWitnessSpec(pure.n, pure.d, args.m, delta_subsets=args.delta)
    r = _resolve_pairset(args, pure, pure.n, pure.d)
    w = compile_witness(r, NRVariant(args.nr))

    if args.p_grid:
        grid = np.array(_parse_grid(args.p_grid))
        _check_weights(grid)  # the first point outside [0, 1] is refused before any is read
        sweeps = [(evaluate, w, w.reads.family(pure))]
        if spec is not None:
            sweeps.append((q_witness, spec, spec.reads.family(pure)))
        # stacks of grid points whose entries, over both families, stay near CHUNK_ENTRIES
        stacks = _chunks(len(grid), sum(len(family.rows) for *_, family in sweeps))
        columns = [grid] + [
            np.concatenate([value(witness, family.at(grid[rows])) for rows in stacks])
            for value, witness, family in sweeps
        ]
        lines = ["p,witness" if spec is None else "p,witness,q"]
        lines += [",".join(f"{v:.12g}" for v in row) for row in zip(*(c.tolist() for c in columns))]
        _emit(lines, args.output)
        return 0

    payload: dict[str, Any] = {
        "n": pure.n,
        "d": pure.d,
        "variant": args.nr,
        "pairs": r.as_strings(),
        "threshold": noise_threshold(w, pure, xtol=args.xtol),
    }
    if spec is not None:
        payload["dicke_m"] = args.m
        payload["dicke_threshold"] = noise_threshold_q(spec, pure, xtol=args.xtol)
    _emit(payload, args.output)
    return 0


def cmd_dicke(args: argparse.Namespace) -> int:
    if args.n is None or args.d is None or args.m is None:
        raise InvalidInputError("dicke needs --n, --d and --m")
    spec = DickeWitnessSpec(args.n, args.d, args.m, delta_subsets=args.delta)
    if args.state or args.preset:
        _, rho = _load_target(args)
    else:
        target = make_dicke_state(args.n, args.d, args.m)
        rho = NoisyPureState(target, args.p) if args.p != 1.0 else target
    q = q_witness(spec, rho)
    payload = {
        "n": args.n,
        "d": args.d,
        "m": args.m,
        "delta_subsets": args.delta,
        "q": q,
        "certificate": dimensionality_certificate(q, tol=args.tol),
        "noise_weight": spec.noise_weight,
        "em_bound": asdict(em_bound_from_q(spec, q, NRVariant(args.nr))),
    }
    _emit(payload, args.output)
    return 0


def cmd_ppt_compare(args: argparse.Namespace) -> int:
    _, rho = _load_target(args)
    fields = [s.strip() for s in args.pair.split(",")]
    if len(fields) != 2:
        raise InvalidInputError(f"--pair needs two indices 'a,b', got {args.pair!r}")
    # the lower index first, as in every pair selection
    pair = PairSet.from_strings([fields], rho.n, rho.d)
    listed = [_number(int, tok, "--gamma") for tok in args.gamma.split(",")]
    parties = sorted(set(listed))
    if len(parties) < len(listed):
        party = next(p for p, count in Counter(listed).items() if count > 1)
        raise InvalidInputError(f"--gamma names party {party} more than once")
    n = rho.n
    if n < 2:
        raise InvalidInputError(f"need at least 2 parties, got n={n}")
    if len(parties) >= n:
        raise InvalidInputError("gamma must be a nonempty proper subset of the parties")
    if not 1 <= parties[0] <= parties[-1] <= n:
        raise InvalidInputError(f"party labels {parties} out of range for n={n}")
    # the mask keeps the side given, which need not hold party 1
    gamma = [int(p in parties) for p in range(1, n + 1)]
    w = build_ppt_witness(pair.digits[0], rho.d, gamma)
    cmp = compare_with_witness_bracket(w, rho)
    payload = {
        "pair": pair.as_strings()[0],
        "gamma": parties,
        "omega": cmp.omega,
        "minus_w": cmp.minus_w,
        "dominance": cmp.dominance,
    }
    _emit(payload, args.output)
    return 0


def cmd_measure_plan(args: argparse.Namespace) -> int:
    if args.state or args.preset:
        pure, rho = _load_target(args)
        n, d = rho.n, rho.d
    else:
        pure, n, d = None, args.n, args.d
        if n is None or d is None:
            raise InvalidInputError("measure-plan needs --state/--preset or --r-set with --n --d")
        _check_digit_strings(d)
    r = _resolve_pairset(args, pure, n, d)
    w = compile_witness(r, NRVariant(args.nr))
    plan = plan_settings(w, include_imag=args.include_imag, max_terms=MAX_PLAN_TERMS)
    elements = plan.elements
    # one record per distinct (coeff, labels) term, shared by every element that has it
    table = _term_table(plan.coeffs, plan.codes, plan.alphabet)
    terms = _Take(table, np.concatenate([el.terms for el in elements]))
    indices = _Leaves(np.array([index for el in elements for index in el.indices]))
    payload = {
        "n": plan.n,
        "d": plan.d,
        "element_count": plan.element_count,
        "setting_count": plan.setting_count,
        "settings": plan.settings,
        "elements": _Column(_Records({
            "kind": _Leaves(np.array([el.kind for el in elements])),
            "indices": _Groups(indices, [0, *accumulate(len(el.indices) for el in elements)]),
            "terms": _Groups(terms, [0, *accumulate(len(el.terms) for el in elements)]),
        })),
    }
    _emit(payload, args.output)
    return 0


def cmd_dimensionality(args: argparse.Namespace) -> int:
    spec = DickeWitnessSpec(args.n, args.d, args.m, delta_subsets=args.delta)
    rows = []
    for f in range(1, args.d + 1):
        if f == 1:
            state = PureState(args.n, args.d, [[0] * args.n], [1.0])
        else:
            state = embed_pure(make_dicke_state(args.n, f, args.m), args.d)
        q = q_witness(spec, state)
        rows.append({"f": f, "q": q, "certificate": dimensionality_certificate(q, tol=args.tol)})
    payload = {"n": args.n, "d": args.d, "m": args.m, "rows": rows}
    _emit(payload, args.output)
    return 0


def cmd_reproduce_paper(args: argparse.Namespace) -> int:
    results = run_all(seed=args.seed)
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"[{status}] #{res.number} {res.name}  ({res.elapsed:.2f}s)")
        if not res.passed:
            lines.append(f"        {res.details}")
    passed = sum(res.passed for res in results)
    lines.append(f"{passed}/{len(results)} criteria passed")
    _emit(lines, args.output)
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# parser


def _add_state_flags(sub: argparse.ArgumentParser, with_mix: bool = True) -> None:
    sub.add_argument("--state", help="JSON state file")
    sub.add_argument("--preset", choices=PRESETS, help="named state instead of a file")
    sub.add_argument("--n", type=int, help="party count (presets)")
    sub.add_argument("--d", type=int, help="local dimension (presets)")
    sub.add_argument("--m", type=int, help="excitation number (dicke preset / witnesses)")
    if with_mix:
        sub.add_argument(
            "--p", type=float, default=1.0, help="white-noise mixing: p*rho + (1-p)*I/dim"
        )


def _add_selection_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--r-set", help="JSON pair-selection file (default: auto-select)")
    sub.add_argument("--nr", **_SHARED_FLAGS["--nr"])
    sub.add_argument("--tau", type=float, default=1e-6, help="auto-select amplitude cutoff")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmebound",
        description="Certified lower bounds on genuine multipartite entanglement "
        "for n-qudit states.",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name: str, text: str, *shared: str) -> argparse.ArgumentParser:
        # no prefix matching: "--p" must not stand for "--preset" where there is no --p
        sub = subs.add_parser(name, help=text, allow_abbrev=False)
        sub.add_argument("--output", help="write the output here instead of stdout")
        for flag in shared:
            sub.add_argument(flag, **_SHARED_FLAGS[flag])
        return sub

    sp = add("entropy", "per-bipartition linear entropies of a pure state")
    _add_state_flags(sp, with_mix=False)
    sp.add_argument("--method", choices=("coeff", "trace"), default="coeff")
    sp.set_defaults(func=cmd_entropy, p=1.0)

    sp = add("bound", "compile a witness and evaluate the GME bound", "--tol")
    _add_state_flags(sp)
    _add_selection_flags(sp)
    sp.set_defaults(func=cmd_bound)

    sp = add("threshold", "white-noise robustness of the witness", "--delta")
    _add_state_flags(sp, with_mix=False)
    _add_selection_flags(sp)
    sp.add_argument("--xtol", type=float, default=1e-12, help="root-finder tolerance")
    sp.add_argument("--compare-dicke", action="store_true", help="also cross the Q witness")
    sp.add_argument("--p-grid", help="sweep: comma values or start:stop:count (CSV output)")
    sp.set_defaults(func=cmd_threshold, p=1.0)

    sp = add("dicke", "dimensionality witness Q and E_m bounds", "--delta", "--nr", "--tol")
    _add_state_flags(sp)
    sp.set_defaults(func=cmd_dicke)

    sp = add("ppt-compare", "PPT operator vs witness bracket on one pair")
    _add_state_flags(sp)
    sp.add_argument("--pair", required=True, help='antipodal pair, e.g. "001,110"')
    sp.add_argument("--gamma", required=True, help='transposed parties, e.g. "1" or "1,2"')
    sp.set_defaults(func=cmd_ppt_compare)

    sp = add("measure-plan", "local-observable plan for a compiled witness")
    _add_state_flags(sp, with_mix=False)
    _add_selection_flags(sp)
    sp.add_argument("--include-imag", action="store_true")
    sp.set_defaults(func=cmd_measure_plan, p=1.0)

    sp = add("dimensionality", "q and certificate for embedded Dicke states", "--delta", "--tol")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.set_defaults(func=cmd_dimensionality)

    sp = add("reproduce-paper", "run the acceptance battery")
    sp.add_argument("--seed", type=int, default=SEED, help="re-seed the randomized checks")
    sp.set_defaults(func=cmd_reproduce_paper)

    return parser


# one parser per process, built on the first call of main rather than at import
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_finite(args)
        return args.func(args)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
