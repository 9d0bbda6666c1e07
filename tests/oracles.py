"""Independent verification routes used by the test suite.

Everything here is built from raw numpy on dense arrays, on purpose: these
functions must not share code paths with the package so that agreement
actually means something.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math

import numpy as np


def reduced_density(vec: np.ndarray, n: int, d: int, parties: frozenset[int]) -> np.ndarray:
    """Trace out the complement of ``parties`` (1-based) from a pure state."""
    tensor = vec.reshape((d,) * n)
    keep = sorted(p - 1 for p in parties)
    drop = [i for i in range(n) if i not in keep]
    psi = np.transpose(tensor, keep + drop).reshape(d ** len(keep), d ** len(drop))
    return psi @ psi.conj().T


def linear_entropy_dense(vec: np.ndarray, n: int, d: int, parties: frozenset[int]) -> float:
    rho = reduced_density(vec, n, d, parties)
    return float(2.0 * (1.0 - np.real(np.trace(rho @ rho))))


def gme_measure_eigen(vec: np.ndarray, n: int, d: int) -> float:
    """E_m via eigenvalues of every reduced density matrix."""
    best = math.inf
    for size in range(1, n):
        for rest in itertools.combinations(range(2, n + 1), size - 1):
            parties = frozenset((1,) + rest)
            ev = np.linalg.eigvalsh(reduced_density(vec, n, d, parties))
            s_lin = 2.0 * (1.0 - float(np.sum(ev**2)))
            best = min(best, math.sqrt(max(s_lin, 0.0)))
    return best


def _canonical_cuts(n: int) -> list[frozenset[int]]:
    cuts = []
    for size in range(1, n):
        for rest in itertools.combinations(range(2, n + 1), size - 1):
            cuts.append(frozenset((1,) + rest))
    cuts.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return cuts


def _swap_digits(a: str, b: str, cut: frozenset[int]) -> tuple[str, str]:
    a2 = "".join(b[i] if (i + 1) in cut else a[i] for i in range(len(a)))
    b2 = "".join(a[i] if (i + 1) in cut else b[i] for i in range(len(a)))
    return a2, b2


def witness_value_direct(
    pairs: list[tuple[str, str]],
    rho: np.ndarray,
    n: int,
    d: int,
    variant: str = "min",
) -> float:
    """Theorem-style bound recomputed from scratch on a dense matrix.

    Raises ValueError when |R| equals the chosen N_R (degenerate prefactor),
    mirroring the library's refusal.
    """
    pairs = [tuple(sorted(p)) for p in pairs]
    pair_set = {frozenset(p) for p in pairs}
    cuts = _canonical_cuts(n)

    def rank(s: str) -> int:
        return int(s, d) if d <= 10 else sum(int(c) * d**i for i, c in enumerate(reversed(s)))

    # per cut: how many selected pairs map back into the selection
    stays = {}
    for cut in cuts:
        stays[cut] = sum(
            1 for a, b in pairs if frozenset(_swap_digits(a, b, cut)) in pair_set
        )
    n_r = min(stays.values()) if variant == "min" else max(stays.values())
    if len(pairs) == n_r:
        raise ValueError("degenerate selection")
    pref = 2.0 / math.sqrt(len(pairs) - n_r)

    total = 0.0
    for a, b in pairs:
        total += abs(rho[rank(a), rank(b)])
        images = []
        for cut in cuts:
            img = frozenset(_swap_digits(a, b, cut))
            if img in pair_set or img in images:
                continue
            images.append(img)
            x, y = tuple(img)
            total -= math.sqrt(
                max(rho[rank(x), rank(x)].real, 0.0) * max(rho[rank(y), rank(y)].real, 0.0)
            )

    # diagonal penalty: multiplicities over the worst cut's surviving pairs
    budget = len(pairs) - n_r
    strings = sorted({s for p in pairs for s in p})
    for s in strings:
        worst = 0
        for cut in cuts:
            staying = [p for p in pairs if frozenset(_swap_digits(*p, cut)) in pair_set]
            if variant == "max":
                moving = [p for p in pairs if frozenset(_swap_digits(*p, cut)) not in pair_set]
                staying = staying + moving[budget:]
            worst = max(worst, sum(1 for p in staying if s in p))
        total -= 0.5 * worst * max(rho[rank(s), rank(s)].real, 0.0)
    return pref * total


def compiled_fields_direct(
    pairs: list[tuple[str, str]], n: int, d: int, variant: str = "min"
) -> dict:
    """What compiling a selection yields, recomputed on digit strings.

    Returns ``cuts`` (canonical order), ``profile`` (per cut: how many pairs
    map back into the selection), ``n_r``, ``noise_images`` (per pair in
    selection order: the distinct unordered images outside the selection, in
    order of the first cut producing each) and ``n_eta`` (string -> the most
    pairs holding it whose diagonal penalty survives at one cut).
    """
    pairs = [tuple(sorted(p)) for p in pairs]
    pair_set = {frozenset(p) for p in pairs}
    cuts = _canonical_cuts(n)
    stays = {
        cut: [p for p in pairs if frozenset(_swap_digits(*p, cut)) in pair_set] for cut in cuts
    }
    profile = [len(stays[cut]) for cut in cuts]
    n_r = min(profile) if variant == "min" else max(profile)

    noise_images = []
    for a, b in pairs:
        seen: list[tuple[str, str]] = []
        for cut in cuts:
            img = tuple(sorted(_swap_digits(a, b, cut)))
            if frozenset(img) not in pair_set and img not in seen:
                seen.append(img)
        noise_images.append(seen)

    budget = len(pairs) - n_r
    n_eta = {}
    for s in sorted({s for p in pairs for s in p}):
        worst = 0
        for cut in cuts:
            counted = list(stays[cut])
            if variant == "max":
                counted += [p for p in pairs if p not in stays[cut]][budget:]
            worst = max(worst, sum(1 for p in counted if s in p))
        n_eta[s] = worst
    return {
        "cuts": [tuple(sorted(c)) for c in cuts],
        "profile": profile,
        "n_r": n_r,
        "noise_images": noise_images,
        "n_eta": n_eta,
    }


def q_value_direct(
    rho: np.ndarray,
    n: int,
    d: int,
    m: int,
    sigma_ordered: bool = True,
    delta_subsets: str = "all",
) -> float:
    """The Dicke dimensionality witness Q recomputed on digit strings.

    For every level pair (l1, l2) and every pair of m-subsets alpha != beta
    sharing m - 1 sites (alpha before beta in combinations order unless
    ``sigma_ordered``), the patterns s1 (digit l1 + 1 on alpha, l1 elsewhere)
    and s2 (l2 + 1 on beta, l2 elsewhere) add |rho_{s1 s2}| and subtract
    sqrt(rho_xx rho_yy) for each distinct unordered image (x, y) reached by
    exchanging digits at a proper nonempty subset of the sites where they
    differ.  At l1 == l2 the one image is the (intersection, union) pair;
    with ``"singles"`` only one-site exchanges count, and none at alpha -
    beta when l2 < l1 or at beta - alpha when l2 > l1.  The noise weight
    (d-1) m (n-m-1) times the diagonal mass of every pattern is subtracted,
    and the total is divided by m.
    """

    def pattern(subset, level):
        return "".join(str(level + 1 if i in subset else level) for i in range(n))

    def diag(s):
        return rho[int(s, d), int(s, d)].real

    subsets = list(itertools.combinations(range(n), m))
    total = 0.0
    for l1 in range(d - 1):
        for l2 in range(d - 1):
            for ia, alpha in enumerate(subsets):
                for ib, beta in enumerate(subsets):
                    if ia == ib or len(set(alpha) & set(beta)) != m - 1:
                        continue
                    if not sigma_ordered and ib < ia:
                        continue
                    s1, s2 = pattern(alpha, l1), pattern(beta, l2)
                    total += abs(rho[int(s1, d), int(s2, d)])
                    diff = [i for i in range(n) if s1[i] != s2[i]]
                    if l1 == l2:
                        inter = set(alpha) & set(beta)
                        union = set(alpha) | set(beta)
                        images = {frozenset((pattern(inter, l1), pattern(union, l1)))}
                    elif len(diff) < 2:
                        images = set()
                    else:
                        if delta_subsets == "all":
                            moves = [
                                c
                                for size in range(1, len(diff))
                                for c in itertools.combinations(diff, size)
                            ]
                        else:
                            fixed = set(alpha) - set(beta) if l2 < l1 else set(beta) - set(alpha)
                            moves = [(i,) for i in diff if i not in fixed]
                        images = {
                            frozenset(_swap_digits(s1, s2, frozenset(i + 1 for i in move)))
                            for move in moves
                        }
                    for img in images:
                        x, y = sorted(img)
                        total -= math.sqrt(max(diag(x), 0.0) * max(diag(y), 0.0))
    mass = sum(diag(pattern(alpha, level)) for level in range(d - 1) for alpha in subsets)
    return (total - (d - 1) * m * (n - m - 1) * mass) / m


def r_sigma_direct(n: int, d: int, m: int) -> list[tuple[str, str]]:
    """The pair selection R_sigma behind Q, found among all digit strings.

    A string is the pattern (l, S) when its digits are l + 1 on the m sites
    of S and l elsewhere.  The patterns (l1, S1) and (l2, S2) form a pair of
    R_sigma when l1 <= l2 and S1 != S2 share m - 1 sites.  Returns each
    unordered pair once, as sorted strings, in sorted order.
    """
    patterns = {}
    for digits in itertools.product(range(d), repeat=n):
        for level in range(d - 1):
            excited = frozenset(i for i, x in enumerate(digits) if x == level + 1)
            if len(excited) == m and set(digits) <= {level, level + 1}:
                patterns["".join(map(str, digits))] = (level, excited)
    pairs = set()
    for (s1, (l1, a)), (s2, (l2, b)) in itertools.product(patterns.items(), repeat=2):
        if l1 <= l2 and a != b and len(a & b) == m - 1:
            pairs.add(tuple(sorted((s1, s2))))
    return sorted(pairs)


def ghz_pairs_direct(n: int, d: int) -> list[tuple[str, str]]:
    """Every antipodal pair (digits summing to d-1 at each site) as digit
    strings, lower string first, in the order of the lower string."""
    pairs = []
    for digits in itertools.product(range(d), repeat=n):
        mirror = tuple(d - 1 - x for x in digits)
        if digits < mirror:
            pairs.append(("".join(map(str, digits)), "".join(map(str, mirror))))
    return pairs


# hand-written local operator table (independent of the package's generator)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def local_op(label: str, d: int) -> np.ndarray:
    if label == "id":
        return np.eye(d, dtype=complex)
    if label.startswith("s"):
        j, k = (int(t) for t in label[1:].split(":"))
        out = np.zeros((d, d), dtype=complex)
        out[j, k] = out[k, j] = 1.0
        return out
    if label.startswith("a"):
        j, k = (int(t) for t in label[1:].split(":"))
        out = np.zeros((d, d), dtype=complex)
        out[j, k] = -1.0j
        out[k, j] = 1.0j
        return out
    if label.startswith("d"):
        l = int(label[1:])
        diag = [1.0] * l + [-float(l)] + [0.0] * (d - l - 1)
        return math.sqrt(2.0 / (l * (l + 1))) * np.diag(diag).astype(complex)
    raise ValueError(f"unknown label {label!r}")


def maximal_label_keys(keys) -> list[tuple[str, ...]]:
    """Label tuples that no other tuple covers, by an all-pairs scan.

    ``"id"`` is an identity slot: ``key`` folds into ``other`` when every
    committed slot of ``key`` holds the same label in ``other``.
    """
    keys = set(keys)

    def folds(key, other):
        return key != other and all(a == "id" or a == b for a, b in zip(key, other))

    maximal = [k for k in keys if not any(folds(k, other) for other in keys)]
    return sorted(maximal, key=lambda t: tuple("" if x == "id" else x for x in t))


def gell_mann_terms(first: str, second: str, d: int) -> list[tuple[complex, tuple[str, ...]]]:
    """Every tensor term of <first| rho |second> = Tr(rho |second><first|), for
    two digit strings, before any zero filter: a term-by-term loop over the
    per-site identities, in site order, the last site varying fastest.

    For j < k:  |k><j| = (s - i a)/2,  |j><k| = (s + i a)/2, and
    |j><j| = id/d + sum_{l >= max(j,1)} (d_l[j,j]/2) d_l with
    d_l[j,j] = sqrt(2/(l(l+1))) for j < l and -l sqrt(2/(l(l+1))) for j = l.
    """

    def site(a: int, b: int) -> list[tuple[complex, str]]:
        if a == b:
            out = [(1.0 / d, "id")]
            for l in range(max(a, 1), d):
                entry = math.sqrt(2.0 / (l * (l + 1))) * (1.0 if a < l else -l)
                out.append((entry / 2.0, f"d{l}"))
            return out
        j, k = min(a, b), max(a, b)
        a_weight = -0.5j if b == k else 0.5j  # |k><j| or |j><k|
        return [(0.5, f"s{j}:{k}"), (a_weight, f"a{j}:{k}")]

    terms = []
    sites = [site(int(a), int(b)) for a, b in zip(first, second)]
    for combo in itertools.product(*sites):
        z = 1.0 + 0.0j
        for weight, _ in combo:
            z *= weight
        terms.append((z, tuple(label for _, label in combo)))
    return terms


def measure_plan_direct(
    pairs: list[tuple[str, str]], n: int, d: int, include_imag: bool, variant: str = "min"
) -> dict:
    """The measure-plan document, recomputed from digit strings: each pair
    (lower index first, repeats dropped) as the real and, on request, the
    imaginary part of its coherence, then each diagonal the witness reads
    (every noise-image member and every index with a nonzero N_eta), in
    index order; each element's nonzero terms, and as settings the maximal
    label keys over all of them."""
    pairs = list(dict.fromkeys(tuple(sorted(p)) for p in pairs))
    fields = compiled_fields_direct(pairs, n, d, variant)
    diagonals = {s for images in fields["noise_images"] for img in images for s in img}
    diagonals |= {s for s, count in fields["n_eta"].items() if count > 0}
    elements = []
    for a, b in pairs:
        terms = gell_mann_terms(a, b, d)
        parts = [("offdiag_re", lambda z: z.real)]
        if include_imag:
            parts.append(("offdiag_im", lambda z: z.imag))
        for kind, part in parts:
            kept = [(part(z), labels) for z, labels in terms if part(z) != 0.0]
            elements.append((kind, [a, b], kept))
    for s in sorted(diagonals, key=lambda s: int(s, d)):
        kept = [(z.real, labels) for z, labels in gell_mann_terms(s, s, d) if z.real != 0.0]
        elements.append(("diag", [s], kept))
    settings = maximal_label_keys(labels for *_, kept in elements for _, labels in kept)
    return {
        "n": n,
        "d": d,
        "element_count": len(elements),
        "setting_count": len(settings),
        "settings": settings,
        "elements": [
            {
                "kind": kind,
                "indices": indices,
                "terms": [{"coeff": c, "labels": labels} for c, labels in kept],
            }
            for kind, indices, kept in elements
        ],
    }


def expectation(labels: tuple[str, ...], rho: np.ndarray, d: int) -> float:
    op = np.array([[1.0]], dtype=complex)
    for lab in labels:
        op = np.kron(op, local_op(lab, d))
    return float(np.real(np.trace(rho @ op)))


def random_pure_dense(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    return vec / np.linalg.norm(vec)


def random_density(n: int, d: int, rng: np.random.Generator, rank: int = 3) -> np.ndarray:
    dim = d**n
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def round12_oracle(obj):
    """The payload as the JSON output holds it: every float at 12 significant
    digits, tuples as lists, walked recursively (standard library only)."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round12_oracle(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12_oracle(v) for v in obj]
    return obj


def mixed_matrix_oracle(text: str) -> np.ndarray:
    """The matrix of a ``"kind": "mixed"`` state file, read with ``json`` and
    the strict entry rules: no key repeated in any object, ``d**n`` rows of
    ``d**n`` entries, each entry a list of exactly two finite JSON numbers
    (``true``/``false`` are not numbers), the entry being ``complex(re, im)``.
    Raises ValueError on anything else.  Trace, hermiticity and positivity
    are not checked."""

    def no_repeats(pairs):
        keys = [key for key, _ in pairs]
        if len(set(keys)) < len(keys):
            raise ValueError("repeated key")
        return dict(pairs)

    payload = json.loads(text, object_pairs_hook=no_repeats)
    try:
        dim = int(payload["d"]) ** int(payload["n"])
        if payload["kind"] != "mixed":
            raise ValueError("not a mixed state")
        rows = payload["matrix"]
        entries = []
        if not isinstance(rows, list) or len(rows) != dim:
            raise ValueError("wrong row count")
        for row in rows:
            if not isinstance(row, list) or len(row) != dim:
                raise ValueError("wrong entry count")
            for entry in row:
                if not isinstance(entry, list) or [type(x) in (int, float) for x in entry] != [True, True]:
                    raise ValueError("entry is not two numbers")
                z = complex(*entry)
                if not cmath.isfinite(z):
                    raise ValueError("not finite")
                entries.append(z)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(str(exc)) from exc
    return np.array(entries, dtype=complex).reshape(dim, dim)


def density_matrix_verdict(m: np.ndarray) -> bool:
    """Whether a square matrix is a density matrix: every entry within 1e-12
    (absolute) of the conjugate of its transpose, trace 1 within 1e-12, and
    no eigenvalue of the Hermitian matrix in its lower triangle below -1e-10."""
    m = np.asarray(m, dtype=complex)
    if not np.all(np.abs(m - m.conj().T) <= 1e-12):
        return False
    if not abs(np.trace(m).real - 1.0) <= 1e-12:
        return False
    return bool(np.linalg.eigvalsh(m).min() >= -1e-10)
