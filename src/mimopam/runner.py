"""Sweep orchestration: config files, theory/simulation runs, CSV output.

Config files are flat key=value text. A sweep walks one axis (rho in dB, the
data power ratio, the ridge coefficient, the box threshold, or the normalized
training duration) and evaluates each requested decoder at every point,
joining the asymptotic predictions with Monte Carlo statistics in one CSV row
per (value, decoder).

Each decoder knob has one config key, its policy or a fixed number. This is
the only module that sees the raw ridge coefficient lambda: lambda_policy's
number, the lambda axis and the CSV lambda cell. resolve_decoder turns it
into the decoder's lam~ = lambda / lambda* at each sweep point.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from typing import NamedTuple

from .asymptotics import (
    BoxObjectiveParams, Prediction, lambda_star_numeric, optimize_goodput, predict, t_star_numeric,
)
from .decoders import DecoderKind, DecoderSpec
from .errors import Checked, ConfigError, ConvergenceError, UndefinedTheoryError
from .simulate import bonferroni_z, consistency_z, run_batch
from .system import PowerConvention, SystemConfig, alpha_star, derive_params, largest_symbol

COMPARE_FALSE_ALARM = 0.01  # family-wise, over all z-scores of a compare run


class SweepAxis(str, enum.Enum):
    RHO_DB = "rho_db"
    ALPHA = "alpha"
    LAMBDA = "lambda"
    T_BOX = "t_box"
    TAU_P = "tau_p"


class LambdaPolicy(str, enum.Enum):
    CLOSED_FORM_OPTIMAL = "closed_form_optimal"
    NUMERIC_OPTIMAL = "numeric_optimal"


class TPolicy(str, enum.Enum):
    MAX_SYMBOL = "max_symbol"
    NUMERIC_OPTIMAL = "numeric_optimal"


class _SweepSpecFields(NamedTuple):
    base: SystemConfig
    sweep_axis: SweepAxis
    values: tuple[float, ...]
    decoders: tuple[DecoderKind, ...]
    trials: int = 500
    master_seed: int = 1729
    lam: float | LambdaPolicy = LambdaPolicy.CLOSED_FORM_OPTIMAL
    t_box: float | TPolicy = TPolicy.MAX_SYMBOL


class SweepSpec(Checked, _SweepSpecFields):
    """A sweep: the base scenario, the axis and its values, the decoders and
    their knobs. lam, the raw ridge coefficient, and t_box, the box
    threshold, each hold a fixed number or the policy that sets it."""

    __slots__ = ()

    def _check(self) -> None:
        if not self.values:
            raise ConfigError("values must be non-empty")
        if not all(math.isfinite(v) for v in self.values):
            raise ConfigError(f"values must be finite, got {self.values!r}")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError("values must be strictly increasing")
        if not self.decoders:
            raise ConfigError("decoders must be non-empty")
        if len(set(self.decoders)) < len(self.decoders):
            raise ConfigError("decoders must not repeat")
        if self.trials < 0:
            raise ConfigError("trials must be nonnegative")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be nonnegative, got {self.master_seed}")
        if not isinstance(self.lam, LambdaPolicy) and not 0.0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and nonnegative, got {self.lam!r}")
        if not isinstance(self.t_box, TPolicy) and not 0.0 < self.t_box < math.inf:
            raise ConfigError(f"t_box must be finite and positive, got {self.t_box!r}")


_REQUIRED_KEYS = (
    "k", "n", "t_total", "t_pilot", "rho_db", "alpha", "m",
    "sweep_axis", "values", "decoders",
)
# each key's parse rule: int, float, an enum, (enum, float) for an enum or a
# number, or [rule] for a comma-separated tuple of rule
_RULES = {
    "k": int, "n": int, "t_total": int, "t_pilot": int, "rho_db": float, "alpha": float,
    "m": int, "power_convention": PowerConvention, "sweep_axis": SweepAxis,
    "values": [float], "decoders": [DecoderKind], "trials": int, "master_seed": int,
    "lambda_policy": (LambdaPolicy, float), "t_policy": (TPolicy, float),
}
# the SweepSpec field of a key whose name differs: each knob's one key
_FIELD_OF = {"lambda_policy": "lam", "t_policy": "t_box"}
_NUMBERS = {int: "an integer", float: "a number"}


def _parse(rule, raw: str, key: str) -> object:
    """raw under rule; an enum value is read in any case, and (enum, float)
    reads a number where no enum value matches. A tuple's entries are
    stripped, and an empty one is refused unless all are empty."""
    if isinstance(rule, list):
        entries = [v.strip() for v in raw.split(",")]
        if any(entries) and not all(entries):
            raise ConfigError(f"key {key!r}: empty entry in {raw!r}")
        return tuple(_parse(rule[0], v, key) for v in entries if v)
    rules = rule if isinstance(rule, tuple) else (rule,)
    value = raw if rule in _NUMBERS else raw.strip().lower()
    for parse in rules:
        try:
            return parse(value)
        except ValueError:
            pass
    expected = "|".join(_NUMBERS.get(r) or "|".join(c.value for c in r) for r in rules)
    raise ConfigError(f"key {key!r}: expected {expected}, got {value!r}")


def load_config(path: str) -> SweepSpec:
    """Parse a flat key=value sweep config; unknown keys are hard errors.
    An optional key left out takes its record's default."""
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {stripped!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip().lower()
            if key in pairs:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            pairs[key] = raw.strip()
    for key in pairs:
        if key not in _RULES:
            raise ConfigError(f"unknown config key {key!r}")
    for key in _REQUIRED_KEYS:
        if key not in pairs:
            raise ConfigError(f"missing required config key {key!r}")

    fields = {_FIELD_OF.get(key, key): _parse(_RULES[key], raw, key) for key, raw in pairs.items()}
    base = SystemConfig(**{key: fields.pop(key) for key in SystemConfig._fields if key in fields})
    return SweepSpec(base=base, **fields)


class SweepRecord(NamedTuple):
    """One CSV row; the fields are the CSV_COLUMNS, lam being the lambda
    column."""

    k: int
    n: int
    t_total: int
    t_pilot: int
    rho_db: float
    alpha: float
    m: int
    decoder: str
    lam: float | None
    t_box: float | None
    power_convention: str
    theta_star: float | None = None
    beta_star: float | None = None
    b_norm: float | None = None
    mse_theory: float | None = None
    sep_theory: float | None = None
    goodput_theory: float | None = None
    mse_sim: float | None = None
    ser_sim: float | None = None
    stderr_mse: float | None = None
    stderr_ser: float | None = None
    trials: int = 0
    master_seed: int = 0
    error: str = ""

    def row(self) -> list:
        def fmt(v):
            # float() strips numpy scalar wrappers so repr stays parseable
            return "" if v is None else (repr(float(v)) if isinstance(v, float) else v)

        return [fmt(v) for v in self]


CSV_COLUMNS = tuple("lambda" if f == "lam" else f for f in SweepRecord._fields)


def records_to_csv(records: list[SweepRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.row())
    return buf.getvalue()


def apply_sweep_value(spec: SweepSpec, value: float) -> tuple[SweepSpec, SystemConfig]:
    """The sweep spec and the config at one sweep point. A knob axis fixes
    that knob at the swept value, whatever its policy."""
    base = spec.base
    axis = spec.sweep_axis
    if axis is SweepAxis.LAMBDA:
        return spec._replace(lam=value), base
    if axis is SweepAxis.T_BOX:
        return spec._replace(t_box=value), base
    if axis is SweepAxis.RHO_DB:
        return spec, base._replace(rho_db=value)
    if axis is SweepAxis.ALPHA:
        return spec, base._replace(alpha=value)
    t_pilot = value * base.k
    if abs(t_pilot - round(t_pilot)) > 1e-9:
        raise ConfigError(f"tau_p value {value} does not give an integer pilot count")
    return spec, base._replace(t_pilot=int(round(t_pilot)))


def resolve_decoder(spec: SweepSpec, cfg: SystemConfig, kind: DecoderKind) -> DecoderSpec:
    """Pin lam~ = lambda / lambda* and the box threshold for one decoder at
    one sweep point; a fixed lambda is divided by this point's lambda*.

    lambda* is the ridge decoder's optimum, so rls takes lam~ = 1 under
    either lambda policy, and only the box decoder searches lam~. When both
    knobs are numeric-optimal, lam~ is optimized first at the max-symbol
    threshold, then the threshold at that lam~.
    """
    if kind is DecoderKind.LS:
        return DecoderSpec.ls()
    if kind is DecoderKind.LMMSE:
        return DecoderSpec.lmmse()

    dp = derive_params(cfg)
    t_box = math.inf
    if kind is DecoderKind.BOX:
        t_box = largest_symbol(cfg.m) if isinstance(spec.t_box, TPolicy) else spec.t_box
    point = BoxObjectiveParams(dp.rho_eff, 0.0, dp.delta, t_box, cfg.m)

    if not isinstance(spec.lam, LambdaPolicy):
        lam_tilde = spec.lam / dp.lambda_star
    elif spec.lam is LambdaPolicy.CLOSED_FORM_OPTIMAL or kind is DecoderKind.RLS:
        lam_tilde = 1.0
    else:
        lam_tilde = lambda_star_numeric(point)

    if kind is DecoderKind.BOX and spec.t_box is TPolicy.NUMERIC_OPTIMAL:
        t_box = t_star_numeric(point._replace(lam_tilde=lam_tilde))

    return DecoderSpec(lam_tilde, t_box)


_SOLVER_ERRORS = (ConvergenceError, UndefinedTheoryError)


def _theory_record(
    spec: SweepSpec, cfg: SystemConfig, kind: DecoderKind, solved: dict[DecoderSpec, Prediction],
) -> tuple[SweepRecord, DecoderSpec | None]:
    """One decoder's row at one sweep point with its theory cells, and its
    DecoderSpec, or None if resolving or predicting failed. solved is the
    point's table of predictions: a spec not yet in it is predicted and
    added. A resolve failure leaves the lambda and t_box cells empty."""
    rec = SweepRecord(
        k=cfg.k, n=cfg.n, t_total=cfg.t_total, t_pilot=cfg.t_pilot,
        rho_db=cfg.rho_db, alpha=cfg.alpha, m=cfg.m, decoder=kind.value,
        lam=None, t_box=None, power_convention=cfg.power_convention.value,
        trials=0, master_seed=spec.master_seed,
    )
    try:
        dspec = resolve_decoder(spec, cfg, kind)
        # a fixed lambda is echoed as configured, not as lam~ lambda*
        fixed = (not isinstance(spec.lam, LambdaPolicy)
                 and kind in (DecoderKind.RLS, DecoderKind.BOX))
        lam = spec.lam if fixed else dspec.lam_tilde * derive_params(cfg).lambda_star
        rec = rec._replace(lam=lam, t_box=dspec.t_box if math.isfinite(dspec.t_box) else None)
        if dspec not in solved:
            solved[dspec] = predict(cfg, dspec)
    except _SOLVER_ERRORS as exc:
        return rec._replace(error=str(exc)), None
    pred = solved[dspec]
    return rec._replace(
        theta_star=pred.theta_star, beta_star=pred.beta_star, b_norm=pred.b_norm,
        mse_theory=pred.mse, sep_theory=pred.sep, goodput_theory=pred.goodput,
    ), dspec


def _evaluate(
    spec: SweepSpec, points: list[tuple[SweepSpec, SystemConfig]], simulate: bool,
    workers: int,
) -> list[tuple[list[tuple[SweepRecord, DecoderSpec | None]],
                dict[DecoderSpec, tuple[float | None, float]]]]:
    """Per sweep point (spec, cfg): its rows, one per decoder of the sweep
    with its DecoderSpec, and the consistency_z scores of each spec
    simulated with more than one trial.

    Theory comes first, for every point. Each point keeps one table
    {DecoderSpec: Prediction}, and rows at one spec, e.g. rls and lmmse at
    lam~ = 1, are one decoder: one prediction, one decode and one pair of
    scores. With simulate, the tables' entries join one run_batch call for
    the whole sweep, with B from their predictions, so each trial is drawn
    once and each spec decoded once; a solver error marks only its spec's
    rows."""
    tables: list[dict[DecoderSpec, Prediction]] = [{} for _ in points]
    rows = [[_theory_record(point, cfg, kind, table) for kind in spec.decoders]
            for (point, cfg), table in zip(points, tables)]
    scores: list[dict[DecoderSpec, tuple[float | None, float]]] = [{} for _ in points]
    sims = [p for p, table in enumerate(tables) if table]
    if simulate and spec.trials and sims:
        batch = run_batch(
            [(points[p][1], tuple((dspec, pred.b_norm) for dspec, pred in tables[p].items()))
             for p in sims],
            spec.trials, spec.master_seed, workers=workers,
        )
        for p, entries in zip(sims, batch):
            cells = {}  # each spec's simulated cells, or its error
            for (dspec, pred), stats in zip(tables[p].items(), entries):
                if isinstance(stats, ConvergenceError):
                    cells[dspec] = {"error": str(stats)}
                    continue
                cells[dspec] = dict(mse_sim=stats.mean_mse, ser_sim=stats.mean_ser,
                                    stderr_mse=stats.stderr_mse, stderr_ser=stats.stderr_ser,
                                    trials=stats.trials)
                if stats.trials > 1:
                    scores[p][dspec] = consistency_z(points[p][1], dspec, pred, stats)
            rows[p] = [(rec._replace(**cells.get(dspec, {})), dspec) for rec, dspec in rows[p]]
    return list(zip(rows, scores))


def _optimized_point(mode: str, cfg: SystemConfig) -> tuple[str, SystemConfig]:
    """The report header and the optimized config of one optimization mode
    at cfg's power."""
    if mode == "optimize_power":
        best = cfg._replace(alpha=alpha_star(cfg))
        return (f"rho_db={cfg.rho_db}: alpha_star={best.alpha:.6f} "
                f"rho_eff={derive_params(best).rho_eff:.6g}", best)
    best, goodput = optimize_goodput(cfg)
    return (f"rho_db={cfg.rho_db}: t_pilot_star={best.t_pilot} "
            f"alpha_star={best.alpha:.6f} goodput={goodput:.6f}", best)


class RunResult(NamedTuple):
    records: list[SweepRecord]
    report: str
    flagged: int


MODES = ("predict", "simulate", "compare", "optimize_power", "optimize_goodput")


def run(spec: SweepSpec, mode: str, workers: int = 1) -> RunResult:
    """Execute one mode over the sweep and build records plus a text report.

    Optimization modes sweep rho when the axis is rho_db and otherwise run a
    single optimization at the base config's rho; their report lists each
    optimum and only the error rows. compare flags a row when a z-score of
    it exceeds bonferroni_z(COMPARE_FALSE_ALARM, the run's z-score count).
    The count takes each theory point (lam~, t) of a sweep point once, but
    "flagged points" counts rows, so rows at one theory point flag together.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    optimize = mode.startswith("optimize_")
    # per point: its report header ("" for none), its row lines' prefix, and (spec, cfg)
    if optimize:
        powers = ([apply_sweep_value(spec, value)[1] for value in spec.values]
                  if spec.sweep_axis is SweepAxis.RHO_DB else [spec.base])
        heads = [(header, "  ", (spec, best))
                 for header, best in (_optimized_point(mode, cfg) for cfg in powers)]
    else:
        heads = [("", f"{spec.sweep_axis.value}={value} ", apply_sweep_value(spec, value))
                 for value in spec.values]
    evaluated = _evaluate(spec, [point for _, _, point in heads],
                          mode in ("simulate", "compare"), workers)
    records = [rec for rows, _ in evaluated for rec, _ in rows]

    gate = None
    if mode == "compare":
        tests = sum(z is not None for _, scores in evaluated
                    for zs in scores.values() for z in zs)
        gate = bonferroni_z(COMPARE_FALSE_ALARM, tests) if tests else math.inf
    lines = [f"mode={mode} axis={spec.sweep_axis.value} decoders=" +
             ",".join(d.value for d in spec.decoders)]
    flagged = 0
    for (header, prefix, _), (rows, scores) in zip(heads, evaluated):
        if header:
            lines.append(header)
        for rec, dspec in rows:
            if rec.error:
                lines.append(f"{prefix}{rec.decoder}: ERROR {rec.error}")
                continue
            if optimize:
                continue
            msg = f"{prefix}{rec.decoder}: mse={rec.mse_theory:.6g} sep={rec.sep_theory:.6g}"
            if rec.mse_sim is not None:
                msg += f" mse_sim={rec.mse_sim:.6g} ser_sim={rec.ser_sim:.6g}"
            zs = scores.get(dspec)
            if gate is not None and zs is not None:
                z_mse, z_ser = zs
                msg += f" z_mse={'n/a' if z_mse is None else f'{z_mse:.3g}'} z_ser={z_ser:.3g}"
                if any(z is not None and abs(z) > gate for z in zs):
                    flagged += 1
                    msg += f"  FLAGGED |z| > {gate:.3g}"
            lines.append(msg)

    failed = sum(1 for r in records if r.error)
    if gate is not None:
        lines.append(f"flagged points: {flagged} (gate |z| <= {gate:.3g} over {tests} z-scores)")
    if failed:
        lines.append(f"rows without a result: {failed}")
    return RunResult(records=records, report="\n".join(lines) + "\n", flagged=flagged)
