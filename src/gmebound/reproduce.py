"""End-to-end reproduction checks for the package's reference results.

Each check returns a :class:`CheckResult`; `run_all` executes the whole
battery.  The CLI's ``reproduce-paper`` subcommand and the acceptance test
suite both consume these, so the numbers live in exactly one place.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dicke_witness import (
    DickeWitnessSpec,
    em_bound_from_q,
    noise_threshold_q,
    q_witness,
    r_sigma_size,
)
from .entropy import gme_measure_pure, linear_entropy_coeff, linear_entropy_trace
from .errors import AnalysisError
from .indices import IndexPair, MultiIndex, cut_masks, rank_digits
from .observables import decompose_diagonal, decompose_offdiagonal, plan_settings, reconstruct
from .ppt import (
    build_ppt_witness,
    compare_with_witness_bracket,
    enumerate_ghz_pairs,
    ppt_expectation,
    ppt_expectation_elements,
)
from .states import (
    DensityMatrix,
    PureState,
    make_dicke_state,
    make_ghz_state,
    make_max_entangled,
    make_singlet4,
    make_w_state,
    partial_trace,
)
from .witness import (
    NRVariant,
    PairSet,
    auto_select_R,
    bipartite_bound_isotropic,
    compile_witness,
    evaluate,
    isotropic_pairset,
    noise_threshold,
)

SEED = 20260816


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    details: str


def _result(number: int, name: str, passed: bool, t0: float, details: str) -> CheckResult:
    return CheckResult(number, name, passed, time.perf_counter() - t0, details)


def _random_density(rng: np.random.Generator, n: int, d: int) -> DensityMatrix:
    """A @ A^dagger over its trace, A a complex Gaussian d**n x d**n matrix."""
    dim = d**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix(n, d, mat, validate=False)


def singlet_pairset() -> PairSet:
    return PairSet.from_strings(
        [["0011", "0101"], ["0011", "0110"], ["0011", "1001"], ["0011", "1010"]], 4, 2
    )


# ---------------------------------------------------------------------------


def check_singlet_threshold() -> CheckResult:
    """White-noise threshold of the four-qubit singlet witness: 21/29."""
    t0 = time.perf_counter()
    target = make_singlet4()
    thresholds = {}
    for variant in NRVariant:
        w = compile_witness(singlet_pairset(), variant)
        thresholds[variant.value] = noise_threshold(w, target)
    expect = 21.0 / 29.0
    worst = max(abs(v - expect) for v in thresholds.values())
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-6 and elapsed < 1.0
    details = (
        f"threshold min-variant {thresholds['min']:.12f}, max-variant "
        f"{thresholds['max']:.12f}, target 21/29 = {expect:.12f}, "
        f"elapsed {elapsed:.3f}s"
    )
    return CheckResult(1, "four-qubit singlet noise threshold", passed, elapsed, details)


def check_dimensionality_singlet_threshold() -> CheckResult:
    """Claimed Q zero-crossing 27/35 for white noise on the singlet."""
    t0 = time.perf_counter()
    target = make_singlet4()
    spec = DickeWitnessSpec(4, 2, 2)
    measured = noise_threshold_q(spec, target, xtol=1e-13)
    expect = 27.0 / 35.0
    elapsed = time.perf_counter() - t0
    passed = abs(measured - expect) <= 1e-6 and elapsed < 2.0
    details = (
        f"measured zero-crossing {measured:.12f}, quoted 27/35 = {expect:.12f} "
        f"(faithful evaluation gives 27/43 = {27/43:.12f}), elapsed {elapsed:.3f}s"
    )
    return CheckResult(2, "dimensionality-witness singlet threshold", passed, elapsed, details)


def check_isotropic() -> CheckResult:
    """Isotropic qutrit bound equals 2(4p-1)/sqrt(27) and is tight at p=1."""
    t0 = time.perf_counter()
    errs = []
    for p in (0.0, 0.25, 0.5, 1.0):
        got = bipartite_bound_isotropic(3, p)
        want = 2.0 * (4.0 * p - 1.0) / math.sqrt(27.0)
        errs.append(abs(got - want))
    e_m = gme_measure_pure(make_max_entangled(3)).e_m
    tight_err = abs(bipartite_bound_isotropic(3, 1.0) - e_m)
    passed = max(errs) <= 1e-10 and tight_err <= 1e-10
    details = (
        f"max formula error {max(errs):.2e} over p in (0, 1/4, 1/2, 1); "
        f"|bound(p=1) - E_m| = {tight_err:.2e}"
    )
    return _result(3, "isotropic qutrit closed form and tightness", passed, t0, details)


def check_dicke_calibration() -> CheckResult:
    """Q on the pure Dicke state equals d-1 for the six reference shapes."""
    t0 = time.perf_counter()
    tuples = [(3, 2, 1), (4, 2, 1), (4, 2, 2), (5, 2, 2), (3, 3, 1), (4, 3, 2)]
    errs = {}
    for n, d, m in tuples:
        q = q_witness(DickeWitnessSpec(n, d, m), make_dicke_state(n, d, m))
        errs[(n, d, m)] = abs(q - (d - 1))
    worst = max(errs.values())
    passed = worst <= 1e-9
    details = "worst |Q - (d-1)| = {:.2e} over {}".format(worst, list(errs))
    return _result(4, "Dicke witness calibration Q = d-1", passed, t0, details)


def check_w_chain() -> CheckResult:
    """W state: entropy routes, eigenvalue-oracle measure, witness value."""
    t0 = time.perf_counter()
    w = make_w_state(3)
    route_errs = []
    for g in cut_masks(3):
        route_errs.append(abs(linear_entropy_trace(w, g) - 8.0 / 9.0))
        route_errs.append(abs(linear_entropy_coeff(w, g) - 8.0 / 9.0))

    # independent oracle: reduce, diagonalize, sum eigenvalue squares
    rho = w.density()
    oracle = min(
        math.sqrt(2.0 * (1.0 - float((np.linalg.eigvalsh(partial_trace(rho, g).matrix) ** 2).sum())))
        for g in cut_masks(3)
    )
    e_m = gme_measure_pure(w).e_m
    em_err = max(abs(oracle - 2.0 * math.sqrt(2.0) / 3.0), abs(e_m - oracle))

    witness_val = evaluate(compile_witness(auto_select_R(w)), rho)
    wit_err = abs(witness_val - math.sqrt(2.0) / 2.0)

    passed = max(route_errs) <= 1e-10 and em_err <= 1e-10 and wit_err <= 1e-10
    details = (
        f"entropy route error {max(route_errs):.2e} vs 8/9; "
        f"E_m vs eigenvalue oracle error {em_err:.2e} (2*sqrt(2)/3); "
        f"witness {witness_val:.12f} vs sqrt(2)/2 (err {wit_err:.2e})"
    )
    return _result(5, "W-state entropy/measure/witness chain", passed, t0, details)


def check_ppt(seed: int = SEED) -> CheckResult:
    """PPT operator entries, route equality, and dominance over the bracket."""
    t0 = time.perf_counter()
    # the reference operator for pair (001,110), cut {1}
    op = build_ppt_witness(np.array([[0, 0, 1], [1, 1, 0]]), 2, np.array([1, 0, 0])).operator
    want = np.zeros((8, 8), dtype=complex)
    want[2, 2] = want[5, 5] = 0.5  # |010><010|, |101><101|
    want[1, 6] = want[6, 1] = -0.5  # |001><110| + h.c.
    entry_ok = np.allclose(op, want, atol=1e-15)

    rng = np.random.default_rng(seed)
    route_err = 0.0
    dominance_ok = True
    count = 0
    for _ in range(500):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4))
        rho = _random_density(rng, n, d)
        pairs = enumerate_ghz_pairs(n, d).digits
        p = pairs[int(rng.integers(len(pairs)))]
        masks = cut_masks(n)
        g = masks[int(rng.integers(len(masks)))]
        wt = build_ppt_witness(p, d, g)
        route_err = max(route_err, abs(ppt_expectation(wt, rho) - ppt_expectation_elements(wt, rho)))
        dominance_ok = dominance_ok and compare_with_witness_bracket(wt, rho).dominance
        count += 1
    passed = entry_ok and route_err <= 1e-12 and dominance_ok
    details = (
        f"reference operator entrywise: {entry_ok}; route |trace - elements| max "
        f"{route_err:.2e} over {count} states; dominance everywhere: {dominance_ok}"
    )
    return _result(6, "PPT witness entries, routes, dominance", passed, t0, details)


def check_measurement_plans(seed: int = SEED) -> CheckResult:
    """Plan sizes for the reference witnesses plus random reconstructions."""
    t0 = time.perf_counter()
    qutrit_plan = plan_settings(compile_witness(isotropic_pairset(3)))
    w_plan = plan_settings(compile_witness(auto_select_R(make_w_state(3))))
    counts_ok = (
        qutrit_plan.setting_count == 10
        and qutrit_plan.element_count == 9
        and w_plan.element_count == 10
        and w_plan.setting_count == 7
    )

    rng = np.random.default_rng(seed + 1)
    recon_err = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4))
        rho = _random_density(rng, n, d)
        r1 = int(rng.integers(d**n))
        r2 = int(rng.integers(d**n))
        e1, e2 = MultiIndex.from_rank(r1, n, d), MultiIndex.from_rank(r2, n, d)
        if e1 == e2:
            recon_err = max(
                recon_err, abs(reconstruct(decompose_diagonal(e1), rho) - rho.matrix[r1, r1].real)
            )
        else:
            p = IndexPair.of(e1, e2)
            truth = rho.matrix[min(r1, r2), max(r1, r2)]  # p's order: lower rank first
            recon_err = max(
                recon_err,
                abs(reconstruct(decompose_offdiagonal(p, "re"), rho) - truth.real),
                abs(reconstruct(decompose_offdiagonal(p, "im"), rho) - truth.imag),
            )
    passed = counts_ok and recon_err <= 1e-12
    details = (
        f"qutrit plan: {qutrit_plan.element_count} elements / {qutrit_plan.setting_count} "
        f"settings (want 9/10); W plan: {w_plan.element_count} elements / "
        f"{w_plan.setting_count} settings (want 10/7); reconstruction error {recon_err:.2e} "
        "over 100 states"
    )
    return _result(7, "measurement plan sizes and reconstructions", passed, t0, details)


# ---------------------------------------------------------------------------
# soundness sweeps


def _random_sparse_pure(rng: np.random.Generator, n: int, d: int) -> PureState:
    dim = d**n
    k = int(rng.integers(4, min(10, dim) + 1))
    ranks = rng.choice(dim, size=k, replace=False)
    amps = rng.normal(size=k) + 1j * rng.normal(size=k)
    amps /= np.linalg.norm(amps)
    return PureState(n, d, rank_digits(ranks, n, d), amps)


def random_product_state(d: int, gamma: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Statevector of a pure product across the cut with 0/1 mask row gamma."""
    ga, gb = np.flatnonzero(gamma), np.flatnonzero(gamma == 0)
    u = rng.normal(size=d ** len(ga)) + 1j * rng.normal(size=d ** len(ga))
    v = rng.normal(size=d ** len(gb)) + 1j * rng.normal(size=d ** len(gb))
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    t = np.tensordot(u.reshape((d,) * len(ga)), v.reshape((d,) * len(gb)), axes=0)
    # axis k of t holds party (ga, gb)[k]; put the parties back in order
    return t.transpose(np.argsort(np.concatenate([ga, gb]))).reshape(d ** len(gamma))


def _biseparable_states(
    n: int, d: int, rng: np.random.Generator, products: int, mixtures: int
) -> list[DensityMatrix]:
    masks = cut_masks(n)
    out = []
    for g in masks:
        for _ in range(products):
            vec = random_product_state(d, g, rng)
            out.append(DensityMatrix(n, d, np.outer(vec, vec.conj()), validate=False))
    for _ in range(mixtures):
        k = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(k))
        mat = np.zeros((d**n, d**n), dtype=complex)
        for wgt in weights:
            g = masks[int(rng.integers(len(masks)))]
            vec = random_product_state(d, g, rng)
            mat += wgt * np.outer(vec, vec.conj())
        out.append(DensityMatrix(n, d, mat, validate=False))
    return out


def check_soundness(seed: int = SEED) -> CheckResult:
    """Witness <= measure on pure states; nonpositivity on biseparable states;
    the averaging inequality; the Q ceiling."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 2)

    # (a) witness value never exceeds the pure-state measure
    shapes = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)]
    worst_gap = -math.inf
    evaluated = 0
    while evaluated < 300:
        n, d = shapes[int(rng.integers(len(shapes)))]
        psi = _random_sparse_pure(rng, n, d)
        try:
            r = auto_select_R(psi)
        except AnalysisError:
            continue
        e_m = gme_measure_pure(psi).e_m
        for variant in NRVariant:
            try:
                w = compile_witness(r, variant)
            except AnalysisError:
                continue
            worst_gap = max(worst_gap, evaluate(w, psi) - e_m)
        evaluated += 1
    pure_ok = worst_gap <= 1e-9

    # (b) nonpositivity on biseparable products and mixtures
    witnesses = {
        (3, 2): [
            compile_witness(auto_select_R(make_w_state(3))),
            compile_witness(auto_select_R(make_ghz_state(3))),
        ],
        (4, 2): [compile_witness(singlet_pairset(), v) for v in NRVariant],
        (2, 3): [compile_witness(PairSet.from_strings([["00", "11"], ["00", "22"], ["11", "22"]], 2, 3))],
        (3, 3): [compile_witness(auto_select_R(make_ghz_state(3, 3)))],
    }
    q_specs = {
        (3, 2): [DickeWitnessSpec(3, 2, 1)],
        (4, 2): [DickeWitnessSpec(4, 2, 2), DickeWitnessSpec(4, 2, 1)],
        (3, 3): [DickeWitnessSpec(3, 3, 1)],
    }
    bisep_max = -math.inf
    for (n, d), ws in witnesses.items():
        states = _biseparable_states(n, d, rng, products=6, mixtures=8)
        for rho in states:
            for w in ws:
                bisep_max = max(bisep_max, evaluate(w, rho))
            for spec in q_specs.get((n, d), []):
                bisep_max = max(bisep_max, q_witness(spec, rho))
    bisep_ok = bisep_max <= 1e-9

    # (c) |I| * sum |a_i|^2 >= |sum a_i|^2
    avg_ok = True
    for _ in range(1000):
        k = int(rng.integers(1, 17))
        a = rng.normal(size=k) + 1j * rng.normal(size=k)
        if k * float((np.abs(a) ** 2).sum()) < abs(a.sum()) ** 2 - 1e-12:
            avg_ok = False
            break

    # (d) Q never exceeds d-1 on random mixed states
    q_max_gap = -math.inf
    for spec in (DickeWitnessSpec(3, 2, 1), DickeWitnessSpec(3, 3, 1)):
        for _ in range(100):
            rho = _random_density(rng, spec.n, spec.d)
            q_max_gap = max(q_max_gap, q_witness(spec, rho) - (spec.d - 1))
    ceiling_ok = q_max_gap <= 1e-9

    passed = pure_ok and bisep_ok and avg_ok and ceiling_ok
    details = (
        f"pure-state max(witness - E_m) = {worst_gap:.2e} over 300 states; "
        f"biseparable max value = {bisep_max:.2e}; averaging inequality holds on "
        f"1000 draws: {avg_ok}; max(Q - (d-1)) = {q_max_gap:.2e} over 200 mixed states"
    )
    return _result(8, "soundness sweeps", passed, t0, details)


def check_dicke_em_bounds(seed: int = SEED) -> CheckResult:
    """|R_sigma| closed form and the measure bound recovered from Q."""
    t0 = time.perf_counter()
    tuples = [(3, 2, 1), (4, 2, 1), (4, 2, 2), (5, 2, 2), (3, 3, 1), (4, 3, 2)]
    sizes_ok = True
    for n, d, m in tuples:
        spec = DickeWitnessSpec(n, d, m)
        if em_bound_from_q(spec, 1.0).r_size != r_sigma_size(spec):  # |R_sigma| is Q-free
            sizes_ok = False

    rng = np.random.default_rng(seed + 3)
    worst_gap = -math.inf
    for spec in (DickeWitnessSpec(3, 2, 1), DickeWitnessSpec(4, 2, 2)):
        dim = spec.d**spec.n
        for _ in range(40):
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            vec /= np.linalg.norm(vec)
            support = np.flatnonzero(vec)
            psi = PureState(spec.n, spec.d, rank_digits(support, spec.n, spec.d), vec[support])
            q = q_witness(spec, psi)
            bound = em_bound_from_q(spec, q).weak
            worst_gap = max(worst_gap, bound - gme_measure_pure(psi).e_m)
    bound_ok = worst_gap <= 1e-9
    passed = sizes_ok and bound_ok
    details = (
        f"|R_sigma| closed form matches enumeration for all six shapes: {sizes_ok}; "
        f"max(m*sqrt(1/|R_sigma|)*Q - E_m) = {worst_gap:.2e} over 80 random pure states"
    )
    return _result(9, "pair-selection counts and Q-derived measure bounds", passed, t0, details)


ALL_CHECKS = [
    check_singlet_threshold,
    check_dimensionality_singlet_threshold,
    check_isotropic,
    check_dicke_calibration,
    check_w_chain,
    check_ppt,
    check_measurement_plans,
    check_soundness,
    check_dicke_em_bounds,
]


_RANDOMIZED = {check_ppt, check_measurement_plans, check_soundness, check_dicke_em_bounds}


def run_all(seed: int = SEED) -> list[CheckResult]:
    """Run the whole battery; ``seed`` re-seeds the randomized property checks."""
    return [fn(seed=seed) if fn in _RANDOMIZED else fn() for fn in ALL_CHECKS]
