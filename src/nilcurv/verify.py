"""Self-verification suite: each check exercises one headline numerical
or structural claim end to end and returns a machine-readable verdict.

Shared by the `verify-paper` CLI subcommand and the acceptance tests, so
the command line and the test suite can never disagree.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import classification as cls
from . import sign_sets as ss
from .catalog import build, list_catalog
from .curvature import (
    Metric,
    ricci_form_matrix,
    ricci_operator,
    sectional_K,
)
from .deformation import (
    DeformationSpec,
    candidate_e1u2,
    codim1_adapted_metric,
    convergence_check,
    lemma5_candidates,
    lemma5a_deformation,
    projective_distance,
    scaled_ricci_limit,
    sphere_grid,
    two_step_deformation,
    worst_gap,
)
from .frames import FRAME_KEYS, normal_form_frame
from .rational import integer_nullspace, rank


def _result(name: str, passed: bool, t0: float, details: dict,
            tolerances: dict) -> dict:
    return {"name": name, "passed": bool(passed),
            "runtime_s": round(time.perf_counter() - t0, 3),
            "details": details, "tolerances": tolerances}


def _nonabelian_entries():
    return [e for e in list_catalog() if not e.build().is_abelian()]


# ---------------------------------------------------------------------------
# 1. Heisenberg-family spectra


def check_heisenberg_spectrum(seed: int = 0) -> dict:
    t0 = time.perf_counter()
    tol = 1e-10
    failures = []
    a = build("heisenberg", m=1)
    spec = ricci_operator(a, Metric.identity(3)).eigenvalues
    if np.abs(spec - np.array([-0.5, -0.5, 0.5])).max() > tol:
        failures.append({"case": "h3", "spectrum": spec.tolist()})
    rng = np.random.default_rng(seed)
    for l, pad in ((1, 1), (1, 2), (2, 2)):
        alg = build("heisenberg_x_abelian", l=l, pad=pad)
        n = alg.n
        # frame E_i = X_i + Z_i + a_i X_{2l+1} (Z_i in the abelian part)
        basis = np.eye(n)
        for i in range(2 * l):
            zi = np.zeros(n)
            zi[2 * l + 1:] = rng.uniform(-1.0, 1.0, size=pad)
            basis[:, i] = basis[:, i] + zi + rng.uniform(-1, 1) \
                * np.eye(n)[:, 2 * l]
        metric = Metric.orthonormalizing(basis)
        spec = ricci_operator(alg, metric).eigenvalues
        expected = np.sort(np.concatenate(
            [-0.5 * np.ones(2 * l), np.zeros(pad), [l / 2.0]]))
        if np.abs(spec - expected).max() > tol:
            failures.append({"case": f"h{2*l+1}xA{pad}",
                             "spectrum": spec.tolist(),
                             "expected": expected.tolist()})
    return _result("heisenberg-spectrum", not failures, t0,
                   {"failures": failures}, {"spectrum_abs": tol})


# ---------------------------------------------------------------------------
# 2. Filiform-4 spectra


def check_filiform4_spectrum(seed: int = 0) -> dict:
    t0 = time.perf_counter()
    tol = 1e-10
    alg = build("filiform4")
    rng = np.random.default_rng(seed)
    expected = np.array([-1.0, -0.5, 0.0, 0.5])
    abc = rng.uniform(-2.0, 2.0, size=(10, 3))
    bases = np.tile(np.eye(4), (10, 1, 1))
    bases[:, 1:, 0] = abc                   # E1 = W + aX + bY + cZ
    spectra = ricci_operator(alg, Metric.orthonormalizing(bases)).eigenvalues
    failures = [{"abc": row, "spectrum": spec}
                for row, spec, bad in zip(
                    abc.tolist(), spectra.tolist(),
                    np.abs(spectra - expected).max(axis=-1) > tol) if bad]
    return _result("filiform4-spectrum", not failures, t0,
                   {"failures": failures}, {"spectrum_abs": tol})


# ---------------------------------------------------------------------------
# 3. Scaled-limit fidelity


def check_deformation_limit(seed: int = 0) -> dict:
    """The scaled Ricci limit phi0 against 2 exp(-t d) ric_t at a large t,
    and its spectrum against the blocks (A, 0, sum_k J_k^2), for 10 random
    (metric, exponent pattern) draws per catalog algebra with n <= 7. The
    draws of one algebra are one stacked spec with one pattern per row,
    whose limit gives phi0 and the deformed operator at each row's own t
    in one pass; A and J_k come from its view `limit[rows]` of the rows of
    one (p, q). Failures are listed in draw order."""
    t0 = time.perf_counter()
    mat_tol, eig_tol = 1e-6, 1e-9
    rng = np.random.default_rng(seed)
    failures = []
    worst_mat = worst_eig = 0.0
    for entry in list_catalog():
        alg = entry.build()
        n = alg.n
        if n > 7:
            continue
        factors, patterns = [], []
        for _ in range(10):
            factors.append(rng.uniform(-1.0, 1.0, size=(n, n)))
            p = int(rng.integers(1, max(2, n - 2)))
            q = int(rng.integers(2, max(3, n - p + 1)))
            patterns.append((p, q))
        lams = [np.concatenate([np.ones(p), np.zeros(n - p - q), -np.ones(q)])
                for p, q in patterns]
        limit = scaled_ricci_limit(DeformationSpec(
            base=Metric.from_factor(factors), lambdas=lams), alg)
        t = np.where(np.isfinite(limit.gap), 40.0 / limit.gap, 5.0)
        diffs = np.abs((2.0 * np.exp(-limit.d * t))[:, None, None]
                       * limit.deformed_ricci_frame(t)
                       - limit.phi0).max(axis=(-2, -1))
        ev, eig_diffs = limit.phi0_eigenvalues(), np.empty(10)
        for p, q in dict.fromkeys(patterns):
            rows = [i for i, pq in enumerate(patterns) if pq == (p, q)]
            group = limit[rows]
            block_ev = np.sort(np.concatenate(
                [np.linalg.eigvalsh(group.A),
                 np.zeros((len(rows), n - p - q)),
                 np.linalg.eigvalsh(group.sum_J_squared())], axis=-1))
            eig_diffs[rows] = np.abs(ev[rows] - block_ev).max(axis=-1)
        for (p, q), diff, eig_diff in zip(patterns, diffs.tolist(),
                                          eig_diffs.tolist()):
            worst_mat = max(worst_mat, diff)
            worst_eig = max(worst_eig, eig_diff)
            if diff > mat_tol or eig_diff > eig_tol:
                failures.append({"algebra": alg.name, "p": p, "q": q,
                                 "matrix_diff": diff, "eig_diff": eig_diff})
    return _result("deformation-limit", not failures, t0,
                   {"failures": failures, "worst_matrix_diff": worst_mat,
                    "worst_eig_diff": worst_eig},
                   {"matrix_sup": mat_tol, "eigenvalue_abs": eig_tol})


# ---------------------------------------------------------------------------
# 4. Extremal-direction convergence


def check_extremal_convergence(seed: int = 0) -> dict:
    t0 = time.perf_counter()
    target = 1e-4
    cases = []
    # h3: two-step candidate at e = Z, expected T = 2Z
    alg = build("heisenberg", m=1)
    metric = Metric.identity(3)
    e = np.array([0.0, 0.0, 1.0])
    spec, cand = two_step_deformation(alg, metric, e)
    trace = convergence_check(spec, alg, cand, target=target)
    cases.append({"case": "h3", "T": cand.T.tolist(),
                  "best_distance": trace.best_distance(),
                  "converged": trace.converged,
                  "T_matches_2Z": bool(
                      np.abs(cand.T - 2.0 * e).max() < 1e-12)})
    # filiform4: T = -X of e = Z, u1 = W, u2 = X, where <Z, [W, X]> = 0,
    # against the deformation of e tilted by 1e-5 toward [W, X] = Y
    alg = build("filiform4")
    metric = Metric.identity(4)
    w, x, y, z = (np.eye(4)[:, i] for i in range(4))
    e = z + 1e-5 * y
    spec, tilted = lemma5a_deformation(alg, metric,
                                       e / np.sqrt(metric.norm2(e)), w, x)
    cand = dataclasses.replace(
        tilted, T=candidate_e1u2(alg, metric, z, w, x).T)
    trace = convergence_check(spec, alg, cand, target=target)
    cases.append({"case": "filiform4", "T": cand.T.tolist(),
                  "best_distance": trace.best_distance(),
                  "converged": trace.converged,
                  "T_matches_minus_X": bool(
                      np.abs(cand.T + x).max() < 1e-12)})
    # L5_lemma7a: T2 from the explicit frame
    frame = normal_form_frame("L5_lemma7a", (1.0, 1.0, 1.0))
    cand = frame.candidate()
    trace = convergence_check(frame.spec(), frame.algebra, cand,
                              target=target)
    cases.append({"case": "L5_lemma7a",
                  "best_distance": trace.best_distance(),
                  "converged": trace.converged,
                  "display_distance": projective_distance(
                      cand.T, frame.expected_T)})
    ok = all(c["converged"] for c in cases) \
        and cases[0]["T_matches_2Z"] and cases[1]["T_matches_minus_X"] \
        and cases[2]["display_distance"] < 1e-6
    return _result("extremal-convergence", ok, t0, {"cases": cases},
                   {"projective_distance": target})


# ---------------------------------------------------------------------------
# 5. Ricci sign witnesses


def _random_central_derived(inter, rng):
    """A nonzero integer combination, coefficients in [-3, 3], of the
    basis of the subspace inter."""
    bs = inter.basis
    while True:
        coeffs = rng.integers(-3, 4, size=len(bs))
        if not np.any(coeffs):
            continue
        v = np.zeros(inter.n)
        for c, row in zip(coeffs, bs):
            v += float(c) * np.array([float(t) for t in row])
        return v


def _ric_witness_error(w) -> str | None:
    """Why one row of a Ricci witness search fails ric-sign-witnesses, or
    None: the error the row got, a value of the wrong sign, or a scaled
    limit off its target by more than sign_sets.SCALED_LIMIT_REL."""
    if isinstance(w, Exception):
        return str(w)
    if w.kind == "ric_negative":
        return "value not negative" if w.value >= ss.RIC_NEGATIVE_MAX else None
    if w.value <= 0:
        return "value not positive"
    if w.t is not None:
        rel = abs(w.scaled_value - w.scaled_target) / abs(w.scaled_target)
        if rel > ss.SCALED_LIMIT_REL:
            return f"scaled limit off by {rel:.3f}"
    return None


def check_ric_witnesses(seed: int = 0) -> dict:
    t0 = time.perf_counter()
    pos_tol, metrics_per_x = 1e-12, 50
    rng = np.random.default_rng(seed)
    failures = []
    for entry in _nonabelian_entries():
        alg = entry.build()
        n = alg.n
        z = alg.center()
        gp = alg.derived_algebra()
        central_derived = gp.intersection(z)
        # (i) central derived vectors: positive under every sampled metric
        xs = np.array([_random_central_derived(central_derived, rng)
                       for _ in range(20)])
        # the metrics_per_x draws of Metric.random, as one stack
        r = ricci_form_matrix(alg, Metric.from_factor(
            rng.uniform(-1.0, 1.0, size=(metrics_per_x, n, n))))
        values = np.einsum("xi,mij,xj->mx", xs, r, xs)
        for m, k in np.argwhere(values <= pos_tol):
            failures.append({"algebra": alg.name, "part": "i",
                             "x": xs[k].tolist(),
                             "value": float(values[m, k])})
        # (ii) non-central vectors: negative witness exists. All 20 are
        # drawn first; the search draws nothing, so they are the same.
        xs = []
        for _ in range(20):
            while True:
                x = [Fraction(int(v)) for v in rng.integers(-3, 4, size=n)]
                if any(v != 0 for v in x) and not z.contains(x):
                    xs.append(x)
                    break
        for x, w in zip(xs, ss.find_negative_ric_witness(
                alg, np.array(xs, dtype=float))):
            if (error := _ric_witness_error(w)) is not None:
                failures.append({"algebra": alg.name, "part": "ii",
                                 "x": [str(v) for v in x], "error": error})
        # (iii) arbitrary nonzero targets: positive witness with matched
        # scaled limit on the deformation path
        targets = []
        for k in range(20):
            if k % 5 == 0 and z.dim > central_derived.dim:
                # a central direction outside the derived algebra
                while True:
                    cz = rng.integers(-3, 4, size=z.dim)
                    v = [sum(Fraction(int(c)) * row[i]
                             for c, row in zip(cz, z.basis))
                         for i in range(n)]
                    if any(t != 0 for t in v) and not gp.contains(v):
                        targets.append(np.array([float(t) for t in v]))
                        break
            else:
                while True:
                    v = rng.integers(-3, 4, size=n)
                    if np.any(v):
                        targets.append(v.astype(float))
                        break
        for zv, w in zip(targets, ss.find_positive_ric_witness(
                alg, np.array(targets))):
            if (error := _ric_witness_error(w)) is not None:
                failures.append({"algebra": alg.name, "part": "iii",
                                 "z": zv.tolist(), "error": error})
    return _result("ric-sign-witnesses", not failures, t0,
                   {"failures": failures[:20],
                    "failure_count": len(failures)},
                   {"positive_floor": pos_tol,
                    "negative_floor": ss.RIC_NEGATIVE_MAX,
                    "scaled_limit_rel": ss.SCALED_LIMIT_REL})


# ---------------------------------------------------------------------------
# 6. Sectional sign sets on exhaustive small planes


@lru_cache(maxsize=None)
def _grid_planes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct planes spanned by pairs of {-1,0,1}^n vectors, each as the
    first pair of directions (in enumeration order) that spans it, as
    read-only int64 arrays (xs, ys) of shape (planes, n).

    Two pairs span the same plane iff their integer Plücker coordinates
    a_i b_j - a_j b_i (i < j) agree once divided by their gcd and signed
    so that the first nonzero one is positive. These lie in [-2, 2], so
    each row is one base-5 integer key, which fits in int64 for n <= 7.
    """
    if n > 7:
        raise ValueError("the plane keys fit in int64 for n <= 7 only")
    vecs = []
    seen_dirs = set()
    for v in itertools.product((-1, 0, 1), repeat=n):
        if not any(v):
            continue
        first = next(x for x in v if x)
        canon = v if first > 0 else tuple(-x for x in v)
        if canon in seen_dirs:
            continue
        seen_dirs.add(canon)
        vecs.append(canon)
    dirs = np.array(vecs, dtype=np.int64)
    ia, ib = np.triu_indices(len(vecs), k=1)   # itertools.combinations order
    iu, ju = np.triu_indices(n, k=1)
    a, b = dirs[ia], dirs[ib]
    pl = a[:, iu] * b[:, ju] - a[:, ju] * b[:, iu]
    spans = np.any(pl, axis=1)
    ia, ib, pl = ia[spans], ib[spans], pl[spans]
    pl //= np.gcd.reduce(pl, axis=1)[:, None]
    lead = pl[np.arange(len(pl)), np.argmax(pl != 0, axis=1)]
    pl *= np.sign(lead)[:, None]
    key = (pl + 2) @ 5 ** np.arange(pl.shape[1], dtype=np.int64)
    _, first = np.unique(key, return_index=True)
    first.sort()
    xs, ys = dirs[ia[first]], dirs[ib[first]]
    xs.flags.writeable = ys.flags.writeable = False
    return xs, ys


def _meets_center(alg, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """G1 computed against the center itself: span(x, y) meets z iff the
    images u = L x, v = L y in g/z are dependent, with L an integer basis
    of the annihilator of z, i.e. iff |u|^2 |v|^2 = (u.v)^2 (exact in
    int64)."""
    rows = integer_nullspace(alg.center().rows, alg.n)[0]
    lmat = np.array(rows, dtype=np.int64).reshape(len(rows), alg.n)
    u, v = xs @ lmat.T, ys @ lmat.T
    return (np.sum(u * u, axis=1) * np.sum(v * v, axis=1)
            == np.sum(u * v, axis=1) ** 2)


BULK_WITNESS_METRICS = 400


def _witness_in_blocks(alg, rng: np.random.Generator, xs: np.ndarray,
                       ys: np.ndarray, ceiling: float) -> np.ndarray:
    """Indices of the planes (xs[r], ys[r]) that no random metric gives
    K < ceiling, for up to BULK_WITNESS_METRICS metrics of
    Metric.random(n, rng) drawn one after another until every plane has
    a witness.

    The metrics are drawn in doubling blocks of 1, 2, 4, ... rows, each
    one stacked call on the planes still unwitnessed. When a block
    witnesses the last plane at row k, rng is put back to its state
    before the block and k + 1 factors are drawn again, so rng ends as
    it would after exactly the metrics used one at a time.
    """
    n = alg.n
    left = np.arange(len(xs))
    drawn, size = 0, 1
    while len(left) and drawn < BULK_WITNESS_METRICS:
        size = min(size, BULK_WITNESS_METRICS - drawn)
        state = rng.bit_generator.state
        metrics = Metric.from_factor(rng.uniform(-1.0, 1.0,
                                                 size=(size, n, n)))
        hit = sectional_K(alg, metrics, xs[left], ys[left]) < ceiling
        witnessed = hit.any(axis=0)
        if witnessed.all():
            # the row at which the last plane got its first witness
            rng.bit_generator.state = state
            rng.uniform(-1.0, 1.0, size=(hit.argmax(axis=0).max() + 1, n, n))
        left = left[~witnessed]
        drawn += size
        size *= 2
    return left


def check_sectional_planes(seed: int = 0) -> dict:
    """Exhaustive {-1,0,1} planes: the metric-independent nonnegative set
    must equal G1 u G2, with sign witnesses on both sides.

    Every grid plane is labelled in bulk by exact integer arithmetic
    (`sign_sets.plane_labels`): abelian, G1, and on abelian planes G_geq
    and, off the center, G2. G1 is cross-checked by a second exact
    computation against the center basis (`_meets_center`); a non-abelian
    plane can carry none of the labels (a central vector in it would force
    it abelian). G_geq planes must have K >= 0 under 50 random metrics,
    one stacked call. Every other plane needs a negative-K witness:
    random metrics in doubling blocks on the planes still unwitnessed
    (`_witness_in_blocks`), drawing from the seed exactly the metrics a
    one-at-a-time search would, up to BULK_WITNESS_METRICS of them;
    find_negative_K_witness runs on the few planes left.
    """
    t0 = time.perf_counter()
    nonneg_floor, neg_ceiling = -1e-12, ss.K_NEGATIVE_MAX
    rng = np.random.default_rng(seed)
    failures = []
    stats = {}
    structure_seen: dict = {}
    for entry in list_catalog():
        alg = entry.build()
        n = alg.n
        if n > 6 or alg.name in stats:
            continue
        sig = (n, tuple(sorted((i, j, k, str(c))
                               for (i, j), comp in alg.brackets.items()
                               for k, c in comp.items())))
        if sig in structure_seen:
            stats[alg.name] = {"same_as": structure_seen[sig]}
            continue
        structure_seen[sig] = alg.name
        xs_all, ys_all = _grid_planes(n)

        def plane(idx):
            return [xs_all[idx].tolist(), ys_all[idx].tolist()]

        labels = ss.plane_labels(alg, xs_all, ys_all)
        abelian, g1 = labels["abelian"], labels["G1"]
        in_geq = labels["G_geq"]
        in_union = g1 | labels["G2"]
        g1_mismatch = g1 != _meets_center(alg, xs_all, ys_all)
        bad = (~abelian & g1) | (abelian & (in_geq != in_union)) \
            | g1_mismatch
        for idx in np.nonzero(bad)[0]:
            if not abelian[idx] and g1[idx]:
                failures.append({"algebra": alg.name, "plane": plane(idx),
                                 "issue": "non-abelian plane meets "
                                          "center"})
            if abelian[idx] and in_geq[idx] != in_union[idx]:
                failures.append({"algebra": alg.name, "plane": plane(idx),
                                 "labels": sorted(
                                     name for name in ("G1", "G2", "G_geq")
                                     if labels[name][idx]),
                                 "issue": "G_geq != G1 u G2"})
            if g1_mismatch[idx]:
                failures.append({"algebra": alg.name, "plane": plane(idx),
                                 "issue": "G1 flag mismatch"})
        geq_idx = np.nonzero(in_geq)[0]
        other_idx = np.nonzero(~in_geq)[0]
        stats[alg.name] = {"planes": len(xs_all),
                           "abelian": int(abelian.sum()),
                           "G_geq": len(geq_idx)}
        xs, ys = xs_all.astype(float), ys_all.astype(float)
        if len(geq_idx):
            metrics = Metric.from_factor(rng.uniform(-1.0, 1.0,
                                                     size=(50, n, n)))
            vals = sectional_K(alg, metrics, xs[geq_idx], ys[geq_idx])
            for row in vals:
                for i in np.nonzero(row < nonneg_floor)[0][:3]:
                    failures.append({"algebra": alg.name,
                                     "plane": plane(geq_idx[i]),
                                     "issue": "negative K on G_geq plane",
                                     "K": float(row[i])})
        left = other_idx[_witness_in_blocks(alg, rng, xs[other_idx],
                                            ys[other_idx], neg_ceiling)]
        for idx in left:
            try:
                ss.find_negative_K_witness(alg, xs[idx], ys[idx])
            except ss.WitnessSearchError as exc:
                failures.append({"algebra": alg.name,
                                 "plane": plane(idx),
                                 "issue": "no negative witness",
                                 "error": str(exc)})
    return _result("sectional-sign-planes", not failures, t0,
                   {"failures": failures[:20],
                    "failure_count": len(failures), "per_algebra": stats},
                   {"nonneg_floor": nonneg_floor,
                    "neg_ceiling": neg_ceiling})


# ---------------------------------------------------------------------------
# 7. Closure-dimension dichotomy against the exact oracle


def check_closure_dichotomy(seed: int = 0) -> dict:
    t0 = time.perf_counter()
    cases = [("heisenberg_x_abelian", {"l": 1, "pad": 1},
              "heisenberg_x_abelian"),
             ("heisenberg_x_abelian", {"l": 1, "pad": 2},
              "heisenberg_x_abelian"),
             ("heisenberg_x_abelian", {"l": 2, "pad": 1},
              "heisenberg_x_abelian"),
             ("heisenberg_x_abelian", {"l": 2, "pad": 2},
              "heisenberg_x_abelian"),
             ("filiform4", {}, "filiform4"),
             ("filiform_standard", {"n": 5}, "not_applicable"),
             ("filiform_standard", {"n": 6}, "not_applicable")]
    failures = []
    oracle_values = {}
    for key, params, expected in cases:
        alg = build(key, **params)
        verdict = cls.lemma6_classify(alg)
        if verdict["class"] != expected:
            failures.append({"algebra": alg.name, "got": verdict["class"],
                             "expected": expected})
        if alg.n <= 5:
            oracle_values[alg.name] = verdict["max_dimL"]
    return _result("closure-dichotomy", not failures, t0,
                   {"failures": failures, "oracle_max_dimL": oracle_values},
                   {"oracle": "exact (identity certificate over the full "
                              "{-2..2} rational grid)"})


# ---------------------------------------------------------------------------
# 8. Extremal-direction coverage


# sine distance of the coverage grids, and the bound on their worst gap
COVERAGE_RESOLUTION = 0.1


def coverage_grid_cases(seed: int = 0) -> dict[str, tuple[np.ndarray, list]]:
    """{case: (grid, candidates)} for the grid cases of `check_coverage`:
    the lines of P(g') on h5 against the 50 two-step candidates of
    `lemma5_candidates` at seed, and the lines of P(a) on filiform4
    against the codimension-one abelian ideal candidates, built as
    stacks: one `codim1_adapted_metric` and `candidate_e1u2` pass over
    all grid lines, whose scalar calls are the N=1 case."""
    alg = build("heisenberg", m=2)
    pairs, _ = lemma5_candidates(alg, seed, 50)
    cases = {"h5": (sphere_grid(alg.derived_algebra(), COVERAGE_RESOLUTION),
                    [cand.T for cand, _ in pairs])}
    # filiform4: codimension-one abelian ideal construction covers P(a)
    alg = build("filiform4")
    ideal = alg.find_codim1_abelian_ideal()
    grid = sphere_grid(ideal, COVERAGE_RESOLUTION)
    c_vec = np.array(ideal.complement()[0], float)
    # unit rows by the dot product np.linalg.norm takes of one vector, so
    # each equals, to the bit, the row normalized on its own; each has
    # [c, [c, u1]] != 0, as the Lemma 5 construction asks of u1
    u1 = grid / np.sqrt(grid[:, None, :] @ grid[:, :, None])[:, 0]
    cand = candidate_e1u2(alg, *codim1_adapted_metric(alg, c_vec, u1), u1,
                          c_vec)
    cases["filiform4"] = (grid, cand.T[~cand.is_zero])
    return cases


def check_coverage(seed: int = 0) -> dict:
    """Worst gap of the grid cases, and the exact span rank of the
    normal-form candidates, each form's built as one stacked frame (a
    single frame is its N=1 case)."""
    t0 = time.perf_counter()
    details = {}
    failures = []
    for case, (grid, cands) in coverage_grid_cases(seed).items():
        worst = worst_gap(grid, cands)
        details[case] = {"candidates": len(cands), "worst_gap": worst}
        if worst >= COVERAGE_RESOLUTION:
            failures.append({"case": case, "worst_gap": worst})
    # normal forms: candidate span is the whole algebra. One stacked frame
    # per form, its rows the alphas and, innermost, the shifts 0 and e_i
    alphas = np.array(list(itertools.product((-2.0, -1.0, 1.0, 2.0, 3.0),
                                             repeat=3)))
    for key in FRAME_KEYS:
        k = 2 if key == "L5_lemma7a" else 3
        a_rows = np.repeat(alphas, k + 1, axis=0)
        s_rows = np.tile(np.eye(k + 1, k, k=-1), (len(alphas), 1))
        t_vecs = normal_form_frame(key, a_rows, s_rows).candidate().T
        n = t_vecs.shape[1]
        # rank reads rows only until the span is full, so only those rows
        # are rationalized
        rk = rank([Fraction(x).limit_denominator(10 ** 6) for x in t_vec]
                  for t_vec in t_vecs)
        details[key] = {"candidates": len(t_vecs), "span_rank": rk}
        if rk != n:
            failures.append({"case": key, "span_rank": rk, "expected": n})
    return _result("coverage", not failures, t0,
                   {**details, "failures": failures},
                   {"grid_resolution": COVERAGE_RESOLUTION,
                    "span_rank": "exact"})


# ---------------------------------------------------------------------------
# suite driver


CHECKS = {
    "heisenberg-spectrum": check_heisenberg_spectrum,
    "filiform4-spectrum": check_filiform4_spectrum,
    "deformation-limit": check_deformation_limit,
    "extremal-convergence": check_extremal_convergence,
    "ric-sign-witnesses": check_ric_witnesses,
    "sectional-sign-planes": check_sectional_planes,
    "closure-dichotomy": check_closure_dichotomy,
    "coverage": check_coverage,
}

GROUPS = {
    "spectra": ["heisenberg-spectrum", "filiform4-spectrum"],
    "deform": ["deformation-limit", "extremal-convergence"],
    "signsets": ["ric-sign-witnesses", "sectional-sign-planes"],
    "classify": ["closure-dichotomy"],
    "maxmin": ["coverage"],
}


def run_suite(only: str | None = None, seed: int = 0) -> dict:
    if only is None:
        names = list(CHECKS)
    elif only in GROUPS:
        names = GROUPS[only]
    elif only in CHECKS:
        names = [only]
    else:
        raise KeyError(f"unknown check or group: {only!r}")
    results = [CHECKS[name](seed=seed) for name in names]
    return {"seed": seed, "only": only,
            "passed": all(r["passed"] for r in results),
            "results": results}
