"""Output checks computed apart from the program.

Each check takes what a run captured and returns a list of failures; a
failure names the check, says what is wrong and lists the ids of the trials
whose output it condemns. The references are built here from first
principles (means, bounds, eigenvalues of a K x K Gram matrix) or from the
program's slow oracle, `fim_finite_difference`, never from the code path
that produced the output.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

SENSING = ("proposed", "equal_time", "no_vr")
PLANNED = ("proposed", "no_vr")

# Relative slack for values that go through a different summation order.
ROUNDING = 1e-9
# The finite-difference and closed-form worst-case CRBs of the built-in
# scenario differ by up to 0.4 % (the equilibrated FIM is ill conditioned),
# so the oracle accepts any slot length within 1 % of its own worst case.
TAU_ORACLE_SLACK = 1e-2
# The CSV prints 13 significant digits.
CSV_DIGITS = 1e-11


@dataclass
class Trial:
    seq: int
    cell: int
    index: int
    seconds: float
    start: float = 0.0
    paused: float = 0.0  # time spent in the speed reference before this trial
    result: object = None  # TrialResult, or None when run_trial raised


@dataclass
class Cell:
    call: int
    cfg: object  # ScenarioConfig
    trials: list = field(default_factory=list)


@dataclass
class Call:
    round: int
    argv: list
    cells: list = field(default_factory=list)
    csv: str = ""
    error: str | None = None


@dataclass
class Record:
    """Everything one pass of rounds produced, in the order it ran."""

    calls: list = field(default_factory=list)
    cells: list = field(default_factory=list)
    trials: list = field(default_factory=list)

    def trials_of(self, cell: Cell) -> list:
        return [self.trials[i] for i in cell.trials]

    def call_trials(self, call: Call) -> set:
        return {self.trials[i].seq for c in call.cells for i in self.cells[c].trials}


@dataclass(frozen=True)
class Failure:
    check: str
    message: str
    trials: frozenset


def weighted_power(cfg, result) -> float:
    return math.fsum(spec.weight * p for spec, p in zip(cfg.ers, result.powers))


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def same_result(a, b) -> bool:
    """Exact equality of two TrialResults, with NaN equal to NaN."""
    return (
        a.tau_used == b.tau_used
        and a.vr_hit == b.vr_hit
        and tuple(a.seed) == tuple(b.seed)
        and len(a.powers) == len(b.powers)
        and len(a.pos_errors) == len(b.pos_errors)
        and all(_same_float(x, y) for x, y in zip(a.powers, b.powers))
        and all(_same_float(x, y) for x, y in zip(a.pos_errors, b.pos_errors))
    )


def _close(value: float, reference: float, rel: float) -> bool:
    if math.isnan(reference) or math.isnan(value):
        return math.isnan(reference) and math.isnan(value)
    return abs(value - reference) <= rel * max(abs(value), abs(reference))


def check_perfect_csi_dominates(rec: Record) -> list:
    """Per trial index and budget, perfect_csi harvests the most weighted power."""
    groups: dict = {}
    for cell in rec.cells:
        cfg = cell.cfg
        key_base = (rec.calls[cell.call].round, cfg.p_max, tuple(s.weight for s in cfg.ers))
        for trial in rec.trials_of(cell):
            if trial.result is not None:
                groups.setdefault((*key_base, trial.index), {})[cfg.scheme] = (
                    trial.seq,
                    weighted_power(cfg, trial.result),
                )
    failures = []
    for key, by_scheme in groups.items():
        if "perfect_csi" not in by_scheme:
            continue
        seq_best, best = by_scheme["perfect_csi"]
        for scheme, (seq, wp) in by_scheme.items():
            if wp > best * (1.0 + ROUNDING):
                failures.append(
                    Failure(
                        "perfect_csi_dominates",
                        f"{scheme} harvests {wp:.6e} W > perfect_csi {best:.6e} W "
                        f"at p_max={key[1]}, trial {key[-1]}",
                        frozenset((seq, seq_best)),
                    )
                )
    return failures


def check_tau_bounds(rec: Record) -> list:
    """Slot lengths obey each scheme's rule and leave time to charge."""
    failures = []
    for cell in rec.cells:
        cfg = cell.cfg
        k, block = len(cfg.ers), cfg.block_len
        for trial in rec.trials_of(cell):
            if trial.result is None:
                continue
            tau = trial.result.tau_used
            if cfg.scheme in PLANNED:
                ok = 1 <= tau and k * tau < block
                rule = f"1 <= tau and {k} tau < {block}"
            elif cfg.scheme == "equal_time":
                ok = tau == block // (2 * k)
                rule = f"tau = {block} // {2 * k}"
            else:
                ok = tau == 0
                rule = "tau = 0"
            if not ok:
                failures.append(
                    Failure(
                        "tau_bounds",
                        f"{cfg.scheme} trial {trial.index} used tau={tau}, expected {rule}",
                        frozenset((trial.seq,)),
                    )
                )
    return failures


def _worst_crb_fd(nfwpt, cfg, scheme: str) -> float:
    """Worst single-symbol position CRB over the 27 lattice corners of every
    prior, from the finite-difference Fisher information."""
    geom = nfwpt.build_upa(
        cfg.array.n_y, cfg.array.n_z, cfg.array.carrier_freq, cfg.array.spacing
    )
    n = geom.n_elements
    probe = np.full(n, math.sqrt(cfg.p_max / n), dtype=complex)
    worst = 0.0
    for spec in cfg.ers:
        if scheme == "proposed" and spec.vr is not None:
            vr = nfwpt.VisibilityRegion(*spec.vr)
        else:
            vr = nfwpt.VisibilityRegion(1, n)
        for corner in itertools.product(*[(-d, 0.0, d) for d in spec.error_bounds]):
            state = nfwpt.ErState(
                position=np.add(spec.prior_position, corner),
                vr=vr,
                reflection=abs(spec.reflection),
            )
            info = nfwpt.fim_finite_difference(geom, state, probe, 1, cfg.noise_power)
            worst = max(worst, nfwpt.crb_position(info).crb_total)
    return worst


def check_tau_matches_oracle(rec: Record, nfwpt, cache: dict | None = None) -> list:
    """Planned slot lengths equal the finite-difference oracle's, within its slack."""
    cache = {} if cache is None else cache
    failures = []
    for cell in rec.cells:
        cfg = cell.cfg
        if cfg.scheme not in PLANNED:
            continue
        key = (cfg.array, cfg.ers, cfg.noise_power, cfg.p_max, cfg.scheme)
        if key not in cache:
            cache[key] = _worst_crb_fd(nfwpt, cfg, cfg.scheme)
        worst = cache[key]
        lo = max(1, math.ceil(worst * (1.0 - TAU_ORACLE_SLACK) / cfg.gamma))
        hi = max(1, math.ceil(worst * (1.0 + TAU_ORACLE_SLACK) / cfg.gamma))
        for trial in rec.trials_of(cell):
            if trial.result is not None and not lo <= trial.result.tau_used <= hi:
                failures.append(
                    Failure(
                        "tau_matches_oracle",
                        f"{cfg.scheme} at gamma={cfg.gamma:.6e}, p_max={cfg.p_max} "
                        f"planned tau={trial.result.tau_used}, oracle gives {lo}..{hi}",
                        frozenset((trial.seq,)),
                    )
                )
    return failures


def check_tau_nonincreasing_over_gamma(rec: Record) -> list:
    """Along a gamma sweep, a looser target never needs a longer slot."""
    failures = []
    for call in rec.calls:
        if call.argv[0] != "sweep-gamma":
            continue
        steps = sorted(
            (rec.cells[c].cfg.gamma, t.result.tau_used)
            for c in call.cells
            for t in rec.trials_of(rec.cells[c])
            if t.result is not None
        )
        for (g0, tau0), (g1, tau1) in zip(steps, steps[1:]):
            if g1 > g0 and tau1 > tau0:
                failures.append(
                    Failure(
                        "tau_nonincreasing_over_gamma",
                        f"tau rises from {tau0} at gamma={g0:.6e} to {tau1} at gamma={g1:.6e}",
                        frozenset(rec.call_trials(call)),
                    )
                )
    return failures


def check_position_error_bound(rec: Record) -> list:
    """A sensing scheme's estimate stays in its search box (prior +- 2D), so
    its error is at most 3 |D|; genie and unfocused schemes report 0 and NaN."""
    failures = []
    for cell in rec.cells:
        cfg = cell.cfg
        limits = [3.0 * math.hypot(*spec.error_bounds) for spec in cfg.ers]
        for trial in rec.trials_of(cell):
            if trial.result is None:
                continue
            errors = trial.result.pos_errors
            if cfg.scheme in SENSING:
                ok = all(
                    math.isfinite(e) and 0.0 <= e <= lim * (1.0 + ROUNDING)
                    for e, lim in zip(errors, limits)
                )
            elif cfg.scheme == "perfect_csi":
                ok = all(e == 0.0 for e in errors)
            else:
                ok = all(math.isnan(e) for e in errors)
            if not ok or len(errors) != len(limits):
                failures.append(
                    Failure(
                        "position_error_bound",
                        f"{cfg.scheme} trial {trial.index} errors {errors} vs limits {limits}",
                        frozenset((trial.seq,)),
                    )
                )
    return failures


def _sweep_value(command: str, cfg) -> float:
    return cfg.p_max if command == "sweep-power" else cfg.gamma


def _expected_row(cfg, results) -> dict:
    k, block = len(cfg.ers), cfg.block_len
    n = len(results)
    errors = [e for r in results for e in r.pos_errors]
    row = {
        "tau_mean": math.fsum(r.tau_used for r in results) / n,
        "duty_factor": math.fsum((block - k * r.tau_used) / block for r in results) / n,
        "vr_hit_rate": sum(bool(r.vr_hit) for r in results) / n,
        "pos_rmse_m": math.sqrt(math.fsum(e * e for e in errors) / len(errors)),
    }
    for j in range(k):
        row[f"power_er{j + 1}_watts"] = math.fsum(r.powers[j] for r in results) / n
    return row


def check_csv_rows(rec: Record) -> list:
    """Each printed row parses and equals the means over its captured trials."""
    failures = []
    for call in rec.calls:
        if call.error is not None:
            continue
        condemned = frozenset(rec.call_trials(call))
        rows = list(csv.reader(io.StringIO(call.csv)))
        k = len(rec.cells[call.cells[0]].cfg.ers) if call.cells else 0
        header = (
            ["sweep_value", "scheme", "tau_mean", "duty_factor"]
            + [f"power_er{j + 1}_watts" for j in range(k)]
            + ["vr_hit_rate", "pos_rmse_m"]
        )
        if not rows or rows[0] != header or len(rows) != 1 + len(call.cells):
            failures.append(
                Failure(
                    "csv_rows",
                    f"{' '.join(call.argv)}: header or row count wrong "
                    f"({len(rows)} lines for {len(call.cells)} cells)",
                    condemned,
                )
            )
            continue
        for line, c in zip(rows[1:], call.cells):
            cell = rec.cells[c]
            results = [t.result for t in rec.trials_of(cell)]
            if len(line) != len(header) or not results or None in results:
                failures.append(Failure("csv_rows", f"malformed row {line}", condemned))
                continue
            values = dict(zip(header, line))
            expected = _expected_row(cell.cfg, results)
            expected["sweep_value"] = _sweep_value(call.argv[0], cell.cfg)
            try:
                wrong = [
                    name
                    for name, ref in expected.items()
                    if not _close(float(values[name]), ref, CSV_DIGITS)
                ]
            except ValueError as exc:
                wrong = [f"unparsable ({exc})"]
            if values["scheme"] != cell.cfg.scheme:
                wrong.append("scheme")
            if wrong:
                failures.append(
                    Failure(
                        "csv_rows",
                        f"{' '.join(call.argv)}: {cell.cfg.scheme} row differs in {wrong}",
                        frozenset(rec.trials[i].seq for i in cell.trials),
                    )
                )
    return failures


def check_reproduces(rec: Record, run_trial, rounds=(0,)) -> list:
    """Running the first trial of each cell of the given rounds again gives
    the same TrialResult, bit for bit."""
    failures = []
    for cell in rec.cells:
        if rec.calls[cell.call].round not in rounds or not cell.trials:
            continue
        first = rec.trials[cell.trials[0]]
        if first.result is None:
            continue
        again = run_trial(cell.cfg, first.index)
        if not same_result(first.result, again):
            failures.append(
                Failure(
                    "reproduces",
                    f"{cell.cfg.scheme} trial {first.index} gave {again} after {first.result}",
                    frozenset((first.seq,)),
                )
            )
    return failures


def check_passes_agree(first: Record, second: Record) -> list:
    """Two passes over the same rounds give the same TrialResults, bit for bit."""
    a = [t for t in first.trials if t.result is not None]
    b = [t for t in second.trials if t.result is not None]
    if len(a) != len(b):
        return [
            Failure(
                "reproduces",
                f"passes completed {len(a)} and {len(b)} trials",
                frozenset(t.seq for t in first.trials + second.trials),
            )
        ]
    return [
        Failure(
            "reproduces",
            f"trial {ta.index} differs between passes: {ta.result} vs {tb.result}",
            frozenset((ta.seq, tb.seq)),
        )
        for ta, tb in zip(a, b)
        if ta.index != tb.index or not same_result(ta.result, tb.result)
    ]


def check_objective(solves: list) -> list:
    """Each beamformer objective equals p_max * lambda_max, with lambda_max
    recomputed from the K x K Gram matrix of the channels it was built from."""
    failures = []
    for s in solves:
        if s["gram_re"] is None:
            continue
        gram = np.asarray(s["gram_re"]) + 1j * np.asarray(s["gram_im"])
        lam = float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[-1])
        expected = s["p_max"] * lam
        if not _close(s["objective"], expected, 1e-8):
            failures.append(
                Failure(
                    "objective_is_pmax_lambda_max",
                    f"objective {s['objective']:.12e} vs p_max * lambda_max {expected:.12e}",
                    frozenset((s["trial"],)),
                )
            )
    return failures


def check_vr_invariants(identified: list) -> list:
    """Each identified region starts in 1..floor((1 - eta) N), spans at least
    ceil(eta N) and ends inside the array."""
    failures = []
    for o in identified:
        n, eta, start, end = o["n"], o["eta"], o["start"], o["end"]
        if not (1 <= start <= math.floor((1.0 - eta) * n)
                and end - start >= math.ceil(eta * n)
                and end <= n):
            failures.append(
                Failure(
                    "vr_invariants",
                    f"region [{start}, {end}] breaks the invariants for N={n}, eta={eta}",
                    frozenset((o["trial"],)),
                )
            )
    return failures


def check_search_box(located: list) -> list:
    """Each position estimate lies inside the box it was searched in."""
    failures = []
    for o in located:
        inside = all(
            lo - 1e-12 <= x <= hi + 1e-12 for lo, x, hi in zip(o["lo"], o["position"], o["hi"])
        )
        if not inside:
            failures.append(
                Failure(
                    "search_box",
                    f"estimate {o['position']} outside box {o['lo']}..{o['hi']}",
                    frozenset((o["trial"],)),
                )
            )
    return failures


def record_checks(rec: Record, nfwpt, cache: dict | None = None) -> list:
    """Every check that needs only the captured results and the CSV."""
    return (
        check_perfect_csi_dominates(rec)
        + check_tau_bounds(rec)
        + check_tau_matches_oracle(rec, nfwpt, cache)
        + check_tau_nonincreasing_over_gamma(rec)
        + check_position_error_bound(rec)
        + check_csv_rows(rec)
    )


def traced_checks(observations: dict) -> list:
    """Every check that needs the arguments and results of wrapped calls."""
    return (
        check_objective(observations.get("solve", []))
        + check_vr_invariants(observations.get("identify_vr", []))
        + check_search_box(observations.get("locate_er", []))
    )


CHECK_NAMES = (
    "perfect_csi_dominates",
    "tau_bounds",
    "tau_matches_oracle",
    "tau_nonincreasing_over_gamma",
    "position_error_bound",
    "csv_rows",
    "reproduces",
    "objective_is_pmax_lambda_max",
    "vr_invariants",
    "search_box",
)
