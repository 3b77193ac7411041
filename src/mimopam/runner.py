"""Sweep orchestration: config files, theory/simulation runs, CSV output.

Config files are flat key=value text. A sweep walks one axis (rho in dB, the
data power ratio, the ridge coefficient, the box threshold, or the normalized
training duration) and evaluates each requested decoder at every point,
joining the asymptotic predictions with Monte Carlo statistics in one CSV row
per (value, decoder).

This is the only module that sees the raw ridge coefficient lambda: the
config key, the lambda axis and the CSV lambda cell. resolve_decoder turns it
into the decoder's lam~ = lambda / lambda* at each sweep point.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import os
from typing import NamedTuple

from .asymptotics import (
    BoxObjectiveParams, Prediction, lambda_star_numeric, optimize_goodput, predict, t_star_numeric,
)
from .decoders import DecoderKind, DecoderSpec
from .errors import Checked, ConfigError, ConvergenceError, DegenerateThresholdError, InfeasibleError
from .simulate import bonferroni_z, consistency_z, run_batch
from .system import (
    PowerConvention, SystemConfig, alpha_star, db_to_linear, derive_params, largest_symbol,
    linear_to_db,
)

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
_OPTIONAL_KEYS = (
    "power_convention", "trials", "master_seed", "lambda_policy", "t_policy",
    "lambda", "t_box",
)


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from exc


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from exc


def _parse_enum(kind: type[enum.Enum], raw: str, key: str, *extra: str) -> enum.Enum | str:
    """raw, in any case, as a member of kind or as one of the extra words."""
    value = raw.strip().lower()
    if value in extra:
        return value
    try:
        return kind(value)
    except ValueError as exc:
        choices = "|".join((*extra, *(c.value for c in kind)))
        raise ConfigError(f"key {key!r}: expected {choices}, got {value!r}") from exc


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
        if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    for key in _REQUIRED_KEYS:
        if key not in pairs:
            raise ConfigError(f"missing required config key {key!r}")

    convention = {}
    if "power_convention" in pairs:
        convention["power_convention"] = _parse_enum(
            PowerConvention, pairs["power_convention"], "power_convention")
    base = SystemConfig(
        k=_parse_int(pairs["k"], "k"),
        n=_parse_int(pairs["n"], "n"),
        t_total=_parse_int(pairs["t_total"], "t_total"),
        t_pilot=_parse_int(pairs["t_pilot"], "t_pilot"),
        rho=db_to_linear(_parse_float(pairs["rho_db"], "rho_db")),
        alpha=_parse_float(pairs["alpha"], "alpha"),
        m=_parse_int(pairs["m"], "m"),
        **convention,
    )
    axis = _parse_enum(SweepAxis, pairs["sweep_axis"], "sweep_axis")
    values = tuple(_parse_float(v, "values") for v in pairs["values"].split(",") if v.strip())
    decoders = tuple(_parse_enum(DecoderKind, d, "decoders")
                     for d in pairs["decoders"].split(",") if d.strip())
    optional = {key: _parse_int(pairs[key], key)
                for key in ("trials", "master_seed") if key in pairs}
    # each knob: its SweepSpec field, its policy key and enum, and the key that "fixed" reads
    for field, policy_key, kind, value_key in (("lam", "lambda_policy", LambdaPolicy, "lambda"),
                                               ("t_box", "t_policy", TPolicy, "t_box")):
        policy = (_parse_enum(kind, pairs[policy_key], policy_key, "fixed")
                  if policy_key in pairs else None)
        if policy == "fixed":
            if value_key not in pairs:
                raise ConfigError(f"{policy_key} = fixed requires an explicit {value_key!r} key")
            optional[field] = _parse_float(pairs[value_key], value_key)
        elif value_key in pairs:
            named = policy or SweepSpec._field_defaults[field]
            raise ConfigError(f"{policy_key} = {named.value} ignores {value_key!r}; "
                              f"it is read only under {policy_key} = fixed")
        elif policy is not None:
            optional[field] = policy
    return SweepSpec(base=base, sweep_axis=axis, values=values, decoders=decoders, **optional)


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
        return spec, base._replace(rho=db_to_linear(value))
    if axis is SweepAxis.ALPHA:
        return spec, base._replace(alpha=value)
    t_pilot = value * base.k
    if abs(t_pilot - round(t_pilot)) > 1e-9:
        raise ConfigError(f"tau_p value {value} does not give an integer pilot count")
    return spec, base._replace(t_pilot=int(round(t_pilot)))


def resolve_decoder(spec: SweepSpec, cfg: SystemConfig, kind: DecoderKind) -> DecoderSpec:
    """Pin lam~ = lambda / lambda* and the box threshold for one decoder at
    one sweep point; a fixed lambda is divided by this point's lambda*.

    When both knobs are numeric-optimal, lam~ is optimized first at the
    max-symbol threshold, then the threshold at that lam~.
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
    elif spec.lam is LambdaPolicy.CLOSED_FORM_OPTIMAL:
        lam_tilde = 1.0
    else:
        lam_tilde = lambda_star_numeric(point)

    if kind is DecoderKind.BOX and spec.t_box is TPolicy.NUMERIC_OPTIMAL:
        t_box = t_star_numeric(point._replace(lam_tilde=lam_tilde))

    return DecoderSpec(kind, lam_tilde, t_box)


_SOLVER_ERRORS = (ConvergenceError, InfeasibleError, DegenerateThresholdError)


def _theory_record(
    spec: SweepSpec, cfg: SystemConfig, kind: DecoderKind
) -> tuple[SweepRecord, tuple[DecoderSpec, Prediction] | None]:
    """One decoder's row at one sweep point with its theory cells, and its
    resolved spec and prediction, or None if resolving or predicting failed."""
    shell = SweepRecord(
        k=cfg.k, n=cfg.n, t_total=cfg.t_total, t_pilot=cfg.t_pilot,
        rho_db=linear_to_db(cfg.rho), alpha=cfg.alpha, m=cfg.m, decoder=kind.value,
        lam=None, t_box=None, power_convention=cfg.power_convention.value,
        trials=0, master_seed=spec.master_seed,
    )
    try:
        dspec = resolve_decoder(spec, cfg, kind)
    except _SOLVER_ERRORS as exc:
        return shell._replace(error=str(exc)), None
    # a fixed lambda is echoed as configured, not as lam~ lambda*
    fixed = not isinstance(spec.lam, LambdaPolicy) and kind in (DecoderKind.RLS, DecoderKind.BOX)
    lam = spec.lam if fixed else dspec.lam_tilde * derive_params(cfg).lambda_star
    shell = shell._replace(lam=lam, t_box=dspec.t_box if math.isfinite(dspec.t_box) else None)
    try:
        pred = predict(cfg, dspec)
    except _SOLVER_ERRORS as exc:
        return shell._replace(error=str(exc)), None
    return shell._replace(
        theta_star=pred.theta_star, beta_star=pred.beta_star, b_norm=pred.b_norm,
        mse_theory=pred.mse, sep_theory=pred.sep, goodput_theory=pred.goodput,
    ), (dspec, pred)


# one row of a sweep point: its record, its consistency_z scores if it was
# simulated with more than one trial, and whether an earlier row of the
# point has the same theory point (lam~, t)
_Row = tuple[SweepRecord, tuple[float | None, float] | None, bool]


def _evaluate(
    spec: SweepSpec, points: list[tuple[SweepSpec, SystemConfig]], simulate: bool, workers: int
) -> list[list[_Row]]:
    """The rows of each sweep point, one per decoder of the sweep.

    Theory comes first, for every point. Rows of a point at one theory
    point (lam~, t), e.g. rls and lmmse at lam~ = 1, are one decoder: their
    predictions, draws, statistics and scores are the same, and all but the
    first are marked as repeats. With simulate, the first row of each theory
    point whose theory succeeded joins one run_batch call for the whole
    sweep, with B from its prediction, so each trial is drawn once and each
    theory point decoded once; a solver error marks only its theory point's rows."""
    theory = [[_theory_record(point, cfg, kind) for kind in spec.decoders] for point, cfg in points]
    rows: list[list[_Row]] = []
    # per point: (row index, its point's first row at the same (lam~, t), spec, prediction)
    # of each row whose theory succeeded
    live: list[list[tuple[int, int, DecoderSpec, Prediction]]] = []
    for records in theory:
        solved = [None if s is None else (s[0].lam_tilde, s[0].t_box) for _, s in records]
        rows.append([(rec, None, tp is not None and tp in solved[:i])
                     for i, ((rec, _), tp) in enumerate(zip(records, solved))])
        live.append([(i, solved.index(tp), *s)
                     for i, ((_, s), tp) in enumerate(zip(records, solved)) if s is not None])
    sims = [p for p, decoders in enumerate(live) if decoders]
    if not simulate or spec.trials == 0 or not sims:
        return rows
    batch = run_batch(
        [(points[p][1], tuple((dspec, pred.b_norm) for i, j, dspec, pred in live[p] if i == j))
         for p in sims],
        spec.trials, spec.master_seed, workers=workers,
    )
    for p, entries in zip(sims, batch):
        cfg = points[p][1]
        stats_of = dict(zip((i for i, j, _, _ in live[p] if i == j), entries))
        for i, j, dspec, pred in live[p]:
            stats = stats_of[j]
            rec, _, repeat = rows[p][i]
            if isinstance(stats, ConvergenceError):
                rows[p][i] = (rec._replace(error=str(stats)), None, repeat)
            else:
                rows[p][i] = (rec._replace(
                    mse_sim=stats.mean_mse, ser_sim=stats.mean_ser,
                    stderr_mse=stats.stderr_mse, stderr_ser=stats.stderr_ser,
                    trials=stats.trials,
                ), consistency_z(cfg, dspec, pred, stats) if stats.trials > 1 else None, repeat)
    return rows


def _optimized_point(spec: SweepSpec, mode: str, rho_db: float) -> tuple[str, SystemConfig]:
    """The report header and the optimized config of one optimization mode
    at one power."""
    cfg = spec.base._replace(rho=db_to_linear(rho_db))
    if mode == "optimize_power":
        split = alpha_star(cfg)
        best = cfg._replace(alpha=split.alpha_star)
        return (f"rho_db={rho_db}: alpha_star={split.alpha_star:.6f} "
                f"branch={split.branch} rho_eff={derive_params(best).rho_eff:.6g}", best)
    opt = optimize_goodput(cfg)
    return (f"rho_db={rho_db}: t_pilot_star={opt.t_pilot_star} "
            f"alpha_star={opt.alpha_star:.6f} goodput={opt.goodput:.6f}",
            cfg._replace(alpha=opt.alpha_star, t_pilot=opt.t_pilot_star))


class RunResult(NamedTuple):
    records: list[SweepRecord]
    report: str
    flagged: int
    solver_errors: int


MODES = ("predict", "simulate", "compare", "optimize_power", "optimize_goodput")


def run(spec: SweepSpec, mode: str, workers: int = 1) -> RunResult:
    """Execute one mode over the sweep and build records plus a text report.

    Optimization modes sweep rho when the axis is rho_db and otherwise run a
    single optimization at the base config's rho; their report lists each
    optimum and only the error rows. compare flags a row when a z-score of
    it exceeds bonferroni_z(COMPARE_FALSE_ALARM, the run's z-score count),
    where rows of one sweep point at one theory point (lam~, t) count once.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    optimize = mode.startswith("optimize_")
    # per point: its report header ("" for none), the prefix of its row lines, and (spec, cfg)
    if optimize:
        rhos = spec.values if spec.sweep_axis is SweepAxis.RHO_DB else (linear_to_db(spec.base.rho),)
        heads = [(header, "  ", (spec, cfg))
                 for header, cfg in (_optimized_point(spec, mode, rho_db) for rho_db in rhos)]
    else:
        heads = [("", f"{spec.sweep_axis.value}={value} ", apply_sweep_value(spec, value))
                 for value in spec.values]
    evaluated = _evaluate(spec, [point for _, _, point in heads],
                          mode in ("simulate", "compare"), workers)
    records = [rec for point_rows in evaluated for rec, _, _ in point_rows]

    gate = None
    if mode == "compare":
        tests = sum(z is not None for point_rows in evaluated
                    for _, zs, repeat in point_rows if zs is not None and not repeat for z in zs)
        gate = bonferroni_z(COMPARE_FALSE_ALARM, tests) if tests else math.inf
    lines = [f"mode={mode} axis={spec.sweep_axis.value} decoders=" +
             ",".join(d.value for d in spec.decoders)]
    flagged = 0
    for (header, prefix, _), point_rows in zip(heads, evaluated):
        if header:
            lines.append(header)
        for rec, zs, _ in point_rows:
            if rec.error:
                lines.append(f"{prefix}{rec.decoder}: ERROR {rec.error}")
                continue
            if optimize:
                continue
            msg = f"{prefix}{rec.decoder}: mse={rec.mse_theory:.6g} sep={rec.sep_theory:.6g}"
            if rec.mse_sim is not None:
                msg += f" mse_sim={rec.mse_sim:.6g} ser_sim={rec.ser_sim:.6g}"
            if gate is not None and zs is not None:
                z_mse, z_ser = zs
                msg += f" z_mse={'n/a' if z_mse is None else f'{z_mse:.3g}'} z_ser={z_ser:.3g}"
                if any(z is not None and abs(z) > gate for z in zs):
                    flagged += 1
                    msg += f"  FLAGGED |z| > {gate:.3g}"
            lines.append(msg)

    solver_errors = sum(1 for r in records if r.error)
    if gate is not None:
        lines.append(f"flagged points: {flagged} (gate |z| <= {gate:.3g} over {tests} z-scores)")
    if solver_errors:
        lines.append(f"solver errors: {solver_errors}")
    return RunResult(records=records, report="\n".join(lines) + "\n",
                     flagged=flagged, solver_errors=solver_errors)


def write_outputs(result: RunResult, csv_path: str, report_path: str | None = None) -> None:
    """Write the CSV and, given a report_path, the report. Both are opened
    before either is written, and a report that cannot be opened removes
    the CSV just opened, so a failed call leaves no output behind."""
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        if report_path:
            try:
                with open(report_path, "w", encoding="utf-8") as report:
                    report.write(result.report)
            except OSError:
                fh.close()
                os.remove(csv_path)
                raise
        fh.write(records_to_csv(result.records))
