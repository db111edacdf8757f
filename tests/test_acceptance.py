"""End-to-end acceptance checks for the two-stage sensing and charging design.

Each test covers one numbered criterion and prints a single summary line,
`criterion NN PASS/FAIL: ...`, so a verbose run reads as a checklist (use
pytest -s to see the lines as they appear).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import nfwpt
from nfwpt import (
    ErState,
    ScenarioConfig,
    VisibilityRegion,
    aggregate,
    build_upa,
    channel,
    crb_position,
    fim,
    fim_finite_difference,
    harvested_power,
    identify_vr,
    estimate_power_levels,
    lattice_crb,
    locate_er,
    min_sensing_duration,
    run_trials,
    rows_to_csv,
    scaling_factor,
    simulate_echo,
    solve_energy_covariance,
    steering_vector,
    sweep_gamma,
    uniform_probe,
    weighted_channel_matrix,
)
from nfwpt.cli import main
from oracles import channel_derivative, dense_weighted, vr_cover

NOISE_POWER = 1e-15


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _random_vr(rng: np.random.Generator, n: int, min_size: int = 4) -> VisibilityRegion:
    size = int(rng.integers(min_size, n + 1))
    start = int(rng.integers(1, n - size + 2))
    return VisibilityRegion(start, start + size - 1)


def _weighted(cfg: ScenarioConfig, results) -> np.ndarray:
    """Per-trial harvested power weighted by the configured receiver weights."""
    weights = [spec.weight for spec in cfg.ers]
    return np.array(
        [sum(w * p for w, p in zip(weights, r.powers)) for r in results]
    )


def _paired_gap(first, second) -> tuple[float, float]:
    """Mean and standard error of the per-trial difference first - second."""
    d = np.asarray(first) - np.asarray(second)
    return float(d.mean()), float(d.std(ddof=1) / math.sqrt(d.size))


def _planning_worst(cfg: ScenarioConfig) -> float:
    """Worst per-symbol planning CRB over the configured prior lattices."""
    geom = build_upa(cfg.array.n_y, cfg.array.n_z, cfg.array.carrier_freq)
    probe = uniform_probe(geom, cfg.p_max)
    full = VisibilityRegion(1, geom.n_elements)
    worst = 0.0
    for spec in cfg.ers:
        for off in np.ndindex(3, 3, 3):
            shift = (np.array(off) - 1) * np.asarray(spec.error_bounds)
            state = ErState(
                position=np.asarray(spec.prior_position) + shift,
                vr=full,
                reflection=abs(spec.reflection),
            )
            report = crb_position(fim(geom, state, probe, 1, cfg.noise_power))
            worst = max(worst, report.crb_total)
    return worst


def test_criterion_01_fim_matches_the_numeric_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    geom = build_upa(4, 4, 28e9)
    probe = uniform_probe(geom, 1.0)
    worst = 0.0
    for _ in range(20):
        er = ErState(
            position=rng.uniform(0.5, 3.0, 3),
            vr=_random_vr(rng, 16),
            reflection=complex(np.exp(2j * np.pi * rng.uniform())),
        )
        analytic = fim(geom, er, probe, 3, NOISE_POWER).matrix
        numeric = fim_finite_difference(geom, er, probe, 3, NOISE_POWER).matrix
        err = np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic)
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    _report(
        1,
        ok,
        f"analytic vs finite-difference FIM, max rel Frobenius error "
        f"{worst:.2e} over 20 scenes in {elapsed:.1f} s",
    )
    assert worst < 1e-4
    assert elapsed < 10.0


def test_criterion_02_channel_derivative_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(37)
    step = 1e-6
    shapes = ((4, 4), (8, 8), (16, 16))
    worst = 0.0
    for idx in range(100):
        geom = build_upa(*shapes[idx % 3], 28e9)
        n = geom.n_elements
        position = rng.uniform([0.5, -1.5, -1.5], [3.0, 1.5, 1.5])
        vr = _random_vr(rng, n, min_size=max(4, n // 8))
        cover = vr_cover(vr, n)
        for ax, offset in zip("xyz", np.eye(3)):
            analytic = channel_derivative(geom, position, vr, ax)
            numeric = (
                steering_vector(geom, position + step * offset)
                - steering_vector(geom, position - step * offset)
            ) * cover / (2.0 * step)
            denom = np.maximum(np.abs(analytic), np.abs(numeric))
            gap = np.abs(analytic - numeric)
            rel = np.where(denom > 0, gap / np.where(denom > 0, denom, 1.0), 0.0)
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 5.0
    _report(
        2,
        ok,
        f"channel derivative vs central differences, max per-entry rel error "
        f"{worst:.2e} over 100 scenes x 3 axes in {elapsed:.1f} s",
    )
    assert worst < 1e-5
    assert elapsed < 5.0


def test_criterion_03_crb_scales_inversely_with_slot_length():
    geom = build_upa(16, 16, 28e9)
    probe = uniform_probe(geom, 1.0)
    scenes = [
        ErState(position=np.array([1.0, 2.0, 3.0]), vr=VisibilityRegion(40, 200), reflection=50.0),
        ErState(
            position=np.array([1.5, -0.8, 1.2]),
            vr=VisibilityRegion(10, 120),
            reflection=3.0 - 4.0j,
        ),
    ]
    worst = 0.0
    for er in scenes:
        base = crb_position(fim(geom, er, probe, 1, NOISE_POWER)).crb_total
        for tau in (2, 5, 10, 100):
            scaled = crb_position(fim(geom, er, probe, tau, NOISE_POWER)).crb_total
            worst = max(worst, abs(scaled * tau - base) / base)
    ok = worst < 1e-10
    _report(
        3,
        ok,
        f"crb_total(tau) * tau constant to {worst:.2e} relative "
        f"across tau in {{1, 2, 5, 10, 100}}",
    )
    assert worst < 1e-10


def test_criterion_04_planned_slot_equals_exhaustive_search():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    geom = build_upa(8, 8, 28e9)
    probe = uniform_probe(geom, 1.0)
    bounds = (0.1, 0.1, 0.1)
    checked = []
    for _ in range(50):
        position = rng.uniform([0.9, -0.5, -0.5], [1.6, 0.5, 0.5])
        vr = _random_vr(rng, 64, min_size=17)
        refl = float(rng.uniform(1.0, 60.0))
        priors = [(position, vr, refl)]

        def lattice_worst(tau: int) -> float:
            worst = 0.0
            for off in np.ndindex(3, 3, 3):
                shift = (np.array(off) - 1) * np.asarray(bounds)
                state = ErState(position=position + shift, vr=vr, reflection=refl)
                report = crb_position(fim(geom, state, probe, tau, NOISE_POWER))
                worst = max(worst, report.crb_total)
            return worst

        gamma = lattice_worst(1) / rng.uniform(0.5, 20.0)
        planned = min_sensing_duration(
            lattice_crb(geom, priors, bounds, probe, NOISE_POWER), gamma, 10**9
        )
        scan = 1
        while lattice_worst(scan) > gamma:
            scan += 1
        checked.append(planned == scan)
    elapsed = time.perf_counter() - t0
    ok = all(checked)
    _report(
        4,
        ok,
        f"min_sensing_duration equals the linear search on {sum(checked)}/50 "
        f"random (gamma, scene) pairs in {elapsed:.1f} s",
    )
    assert ok


def test_criterion_05_covariance_solver_is_optimal():
    t0 = time.perf_counter()
    rng = np.random.default_rng(47)
    n = 256
    eig_gap = 0.0
    feas_excess = -np.inf
    k1_gap = 0.0
    for idx in range(20):
        k = (1, 2, 4)[idx % 3]
        channels = [
            1e-4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            for _ in range(k)
        ]
        weights = rng.uniform(0.2, 1.0, k)
        weights /= weights.sum()
        weighted = weighted_channel_matrix(channels, list(weights))
        a = dense_weighted(weighted)
        p_max = float(rng.uniform(0.5, 3.0))
        sol = solve_energy_covariance(weighted, p_max)

        lam = float(np.linalg.eigvalsh(0.5 * (a + a.conj().T)).max())
        eig_gap = max(eig_gap, abs(sol.objective - p_max * lam) / (p_max * lam))

        ranks = rng.integers(1, 6, 1000)
        edges = np.concatenate([[0], np.cumsum(ranks)])
        cols = int(edges[-1])
        b = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
        through = np.einsum("ij,ij->j", b.conj(), a @ b).real
        norms = np.einsum("ij,ij->j", b.conj(), b).real
        raw_val = np.add.reduceat(through, edges[:-1])
        raw_tr = np.add.reduceat(norms, edges[:-1])
        scale = p_max * rng.uniform(0.05, 1.0, 1000) / raw_tr
        feas_excess = max(
            feas_excess,
            float((raw_val * scale).max() - sol.objective) / sol.objective,
        )

        if k == 1:
            direct = p_max * np.vdot(channels[0], channels[0]).real
            k1_gap = max(
                k1_gap, abs(harvested_power(channels[0], sol) - direct) / direct
            )
    elapsed = time.perf_counter() - t0
    ok = (
        eig_gap < 1e-8
        and feas_excess <= 1e-10
        and k1_gap < 1e-10
        and elapsed < 60.0
    )
    _report(
        5,
        ok,
        f"objective matches p_max * lambda_max to {eig_gap:.2e}, beats 20000 "
        f"random feasible covariances (max rel excess {feas_excess:.2e}), "
        f"single-receiver power gap {k1_gap:.2e}, {elapsed:.1f} s",
    )
    assert eig_gap < 1e-8
    assert feas_excess <= 1e-10
    assert k1_gap < 1e-10
    assert elapsed < 60.0


def _brute_force_window(mags: np.ndarray, eta: float, alpha: float) -> VisibilityRegion:
    n = mags.size
    span = math.ceil(eta * n)
    start_max = math.floor((1.0 - eta) * n)
    best_key = None
    best = None
    for s in range(1, start_max + 1):
        for e in range(s + span, n + 1):
            outside = float(np.sum(mags[: s - 1])) + float(np.sum(mags[e:]))
            key = (outside + alpha * (e - s + 1), e - s + 1, s)
            if best_key is None or key < best_key:
                best_key = key
                best = (s, e)
    return VisibilityRegion(*best)


def test_criterion_06_visibility_region_recovery_is_exact():
    rng = np.random.default_rng(53)
    geom = build_upa(16, 16, 28e9)
    probe = uniform_probe(geom, 1.0)
    hits = 0
    for _ in range(100):
        size = int(rng.integers(65, 225))
        start = int(rng.integers(1, 256 - size + 2))
        er = ErState(
            position=rng.uniform([0.5, -1.5, -1.5], [3.0, 1.5, 1.5]),
            vr=VisibilityRegion(start, start + size - 1),
            reflection=complex(50.0 * np.exp(2j * np.pi * rng.uniform())),
        )
        y_bar = aggregate(
            simulate_echo(channel(geom, er), er.reflection, probe, 1, 0.0, rng)
        )
        p_out, p_in = estimate_power_levels(y_bar, 32)
        vr_hat = identify_vr(y_bar, 0.25, scaling_factor(p_out, p_in))
        hits += vr_hat == er.vr
    matches = 0
    trials = 0
    for n in (8, 12, 16, 24, 32, 48, 64):
        for _ in range(25):
            mags = np.abs(
                rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ) + rng.uniform(0.0, 2.0) * (rng.uniform(size=n) < 0.5)
            y = mags * np.exp(2j * np.pi * rng.uniform(size=n))
            alpha = float(rng.uniform(0.1, 1.5))
            trials += 1
            matches += identify_vr(y, 0.25, alpha) == _brute_force_window(
                np.abs(y), 0.25, alpha
            )
    ok = hits == 100 and matches == trials
    _report(
        6,
        ok,
        f"noiseless recovery {hits}/100 scenes at N=256, window search matches "
        f"brute force on {matches}/{trials} scenes with N <= 64",
    )
    assert hits == 100
    assert matches == trials


def test_criterion_07_localization_tracks_the_crb():
    t0 = time.perf_counter()
    geom = build_upa(16, 16, 28e9)
    probe = uniform_probe(geom, 1.0)
    noise = NOISE_POWER * 1e-6
    er = ErState(
        position=np.array([1.0, 2.0, 3.0]),
        vr=VisibilityRegion(40, 200),
        reflection=complex(np.exp(0.9j)),
    )
    h = channel(geom, er)
    floor = math.sqrt(crb_position(fim(geom, er, probe, 1, noise)).crb_total)
    # Offset the search box so the coarse grid does not start on the truth.
    shift = np.array([0.07, -0.09, 0.11])
    box = (er.position + shift - 0.3, er.position + shift + 0.3)
    streams = np.random.SeedSequence(59).spawn(200)
    squared = []
    for seq in streams:
        y_bar = aggregate(
            simulate_echo(h, er.reflection, probe, 1, noise, np.random.default_rng(seq))
        )
        loc = locate_er(geom, y_bar, er.vr, box)
        squared.append(float(np.sum((loc.position_hat - er.position) ** 2)))
    rmse = math.sqrt(np.mean(squared))

    rng = np.random.default_rng(61)
    recovered = 0
    for _ in range(100):
        scene = ErState(
            position=rng.uniform([0.5, -1.5, -1.5], [3.0, 1.5, 1.5]),
            vr=_random_vr(rng, 256, min_size=65),
            reflection=complex(np.exp(2j * np.pi * rng.uniform())),
        )
        y_bar = aggregate(
            simulate_echo(channel(geom, scene), scene.reflection, probe, 1, 0.0, rng)
        )
        # Place the truth at a random interior spot, never the box center.
        center = scene.position + rng.uniform(-0.1, 0.1, size=3)
        loc = locate_er(geom, y_bar, scene.vr, (center - 0.3, center + 0.3), tol=1e-5)
        recovered += float(np.linalg.norm(loc.position_hat - scene.position)) <= 1e-4
    elapsed = time.perf_counter() - t0
    ok = rmse <= 2.0 * floor and recovered == 100 and elapsed < 300.0
    _report(
        7,
        ok,
        f"RMSE {rmse * 1e3:.1f} mm vs CRB floor {floor * 1e3:.1f} mm over 200 "
        f"noisy trials, noiseless recovery {recovered}/100 within 0.1 mm, "
        f"{elapsed:.0f} s",
    )
    assert rmse <= 2.0 * floor
    assert recovered == 100
    assert elapsed < 300.0


def test_criterion_08_accuracy_target_sweep_shows_an_interior_optimum():
    t0 = time.perf_counter()
    cfg = ScenarioConfig()
    grid = _planning_worst(cfg) * np.logspace(-1.95, 1.05, 8)
    rows = sweep_gamma(cfg, grid)
    weights = [spec.weight for spec in cfg.ers]
    wp = [sum(w * p for w, p in zip(weights, r.powers)) for r in rows]
    taus = [r.tau_mean for r in rows]
    peak = int(np.argmax(wp))
    elapsed = time.perf_counter() - t0
    interior = 0 < peak < len(wp) - 1 and wp[peak] > wp[0] and wp[peak] > wp[-1]
    stepwise = all(a >= b for a, b in zip(taus, taus[1:]))
    ok = interior and stepwise and elapsed < 900.0
    _report(
        8,
        ok,
        f"3-decade gamma sweep: weighted power peaks at grid point {peak} "
        f"(tau* {taus[peak]:.0f}) with edges {wp[0]:.2e}/{wp[-1]:.2e} vs "
        f"{wp[peak]:.2e} W, tau* non-increasing {stepwise}, {elapsed:.0f} s "
        f"for 8 x {cfg.trials} trials",
    )
    assert interior
    assert stepwise
    assert elapsed < 900.0


def test_criterion_09_scheme_ordering_holds_across_power_budgets():
    cfg = ScenarioConfig()
    budgets = [10 ** ((dbm - 30) / 10) for dbm in (20, 25, 30, 35)]
    margins = []
    ratio_30dbm = None
    ok = True
    keys = [(p_max, scheme) for p_max in budgets for scheme in nfwpt.SCHEMES]
    results = run_trials([replace(cfg, p_max=p_max, scheme=scheme) for p_max, scheme in keys])
    weighted = {key: _weighted(cfg, cell) for key, cell in zip(keys, results)}
    for p_max in budgets:
        per_scheme = {scheme: weighted[p_max, scheme] for scheme in nfwpt.SCHEMES}
        gap, se = _paired_gap(per_scheme["perfect_csi"], per_scheme["proposed"])
        margins.append(gap / se if se > 0 else math.inf)
        ok &= gap >= 3 * se
        for rival in ("isotropic", "equal_time", "no_vr"):
            gap, se = _paired_gap(per_scheme["proposed"], per_scheme[rival])
            margins.append(gap / se if se > 0 else math.inf)
            ok &= gap >= 3 * se
        if p_max == 1.0:
            ratio_30dbm = float(
                per_scheme["proposed"].mean() / per_scheme["perfect_csi"].mean()
            )
    ok = ok and ratio_30dbm >= 0.75
    _report(
        9,
        ok,
        f"perfect_csi >= proposed >= rivals at 20-35 dBm, weakest margin "
        f"{min(margins):.1f} sigma over {cfg.trials} paired trials, proposed/"
        f"perfect_csi = {ratio_30dbm:.3f} at 30 dBm",
    )
    assert min(margins) >= 3.0
    assert ratio_30dbm >= 0.75


def test_criterion_10_weight_sweep_shifts_power_monotonically():
    cfg = ScenarioConfig()
    grid = [round(0.1 * k, 1) for k in range(1, 10)]
    cells = [
        replace(cfg, ers=(replace(cfg.ers[0], weight=1.0 - b2), replace(cfg.ers[1], weight=b2)))
        for b2 in grid
    ]
    per_beta = [
        (
            np.array([r.powers[0] for r in results]),
            np.array([r.powers[1] for r in results]),
        )
        for results in run_trials(cells)
    ]
    worst_up = math.inf
    worst_down = math.inf
    for (prev1, prev2), (next1, next2) in zip(per_beta, per_beta[1:]):
        gap2, se2 = _paired_gap(next2, prev2)
        gap1, se1 = _paired_gap(prev1, next1)
        worst_up = min(worst_up, gap2 / se2 if se2 > 0 else math.inf)
        worst_down = min(worst_down, gap1 / se1 if se1 > 0 else math.inf)
    monotone = worst_up >= -3.0 and worst_down >= -3.0

    rng = np.random.default_rng(67)
    direction_gap = 0.0
    for k in (2, 3, 4):
        channels = [
            1e-4 * (rng.standard_normal(256) + 1j * rng.standard_normal(256))
            for _ in range(k)
        ]
        weights = list(rng.uniform(0.1, 1.0, k))
        base = solve_energy_covariance(weighted_channel_matrix(channels, weights), 1.0)
        scaled = solve_energy_covariance(
            weighted_channel_matrix(channels, [3.7 * w for w in weights]), 1.0
        )
        direction_gap = max(
            direction_gap, float(np.abs(base.direction - scaled.direction).max())
        )
    ok = monotone and direction_gap < 1e-8
    _report(
        10,
        ok,
        f"ER2 non-decreasing / ER1 non-increasing across beta2 = 0.1..0.9 "
        f"(weakest steps {worst_up:.1f} / {worst_down:.1f} sigma), weight-"
        f"scaling leaves the beam direction unchanged to {direction_gap:.1e}",
    )
    assert monotone
    assert direction_gap < 1e-8


def test_criterion_11_sweeps_are_byte_deterministic(tmp_path, capsys):
    cfg_payload = {
        "array": {"n_y": 8, "n_z": 8},
        "ers": [
            {
                "prior_position": [1.0, 0.2, 0.3],
                "error_bounds": [0.1, 0.1, 0.1],
                "weight": 0.4,
                "vr": [5, 40],
            },
            {
                "prior_position": [1.2, -0.3, 0.4],
                "error_bounds": [0.1, 0.1, 0.1],
                "weight": 0.6,
                "vr": [20, 50],
            },
        ],
        "n_alpha": 16,
        "gamma": 1e-2,
        "trials": 2,
    }
    import json

    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(cfg_payload))
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = main(
            [
                "sweep-power",
                "--config",
                str(cfg_path),
                "--grid",
                "0.5,1.0",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()

    cfg = nfwpt.load_config(cfg_path)
    text_a = rows_to_csv(sweep_gamma(cfg, [1e-2, 1e-1]))
    text_b = rows_to_csv(sweep_gamma(cfg, [1e-2, 1e-1]))
    ok = outputs[0] == outputs[1] and text_a == text_b
    _report(
        11,
        ok,
        f"repeated sweeps are byte-identical: CLI CSV {len(outputs[0])} bytes, "
        f"library CSV {len(text_a)} bytes",
    )
    assert outputs[0] == outputs[1]
    assert text_a == text_b
