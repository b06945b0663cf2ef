"""Clinic problem instances: patient types, costs, block composition, balancing.

A clinic day is k repetitions of one block.  Each block holds ratio[i]
patients of type i; Q-group types (stage-2 mean 0) see only the assistant,
Q+ types see assistant then physician.  All times are tenths of a minute
(see units.py); construct from minutes via ``PatientType.from_minutes`` or
the JSON loader.

No time an instance holds (means, standard deviations, the regular time)
may exceed MAX_TIME = 10^7 tenths (10^6 minutes) in size: the loader and
validate_instance reject one that does, naming its field, and so does
``noshow --R``.  This keeps the int64 arithmetic exact.  A standard normal
from numpy stays below 14 in size and a uniform draw below twice its mean,
so every drawn time is below 15 * MAX_TIME < 2^53, and the float draws
round exactly.  On a path of n slots every free time stays below
32 * n * MAX_TIME and the summed waits below 32 * n^2 * MAX_TIME, which
is under 2^63 up to n = 160,000 slots; a sum over K paths stays under it
while K * n^2 < 2.8 * 10^10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import json
import math

from .units import Scalar, fmt_minutes, tenths


class InstanceFormatError(ValueError):
    """Raised when an instance file is malformed; message names the field."""


class InvalidInstanceError(ValueError):
    """Raised when a solver is handed an instance with hard validation errors."""


MAX_TIME = 10 ** 7   # tenths: the largest size of any time (see above)


def _beyond_limit(value: Scalar) -> str | None:
    """Why a time of value tenths is too large, or None when it is not."""
    if abs(value) > MAX_TIME:
        return (f"{fmt_minutes(value)} minutes is beyond the "
                f"{MAX_TIME // 10}-minute limit")
    return None


@dataclass(frozen=True)
class PatientType:
    name: str
    lam: Scalar        # stage-1 mean service time
    lam_sd: Scalar
    mu: Scalar         # stage-2 mean; 0 marks a Q-group type
    mu_sd: Scalar
    ratio: int

    @classmethod
    def from_minutes(cls, name, lam, mu, ratio, lam_sd=0, mu_sd=0):
        return cls(name, tenths(lam), tenths(lam_sd), tenths(mu), tenths(mu_sd), int(ratio))

    @property
    def qplus(self) -> bool:
        return self.mu > 0

    @property
    def conformant(self) -> bool:
        """Q+ type satisfying the mu >= lambda assumption the no-idle
        guarantees and closed-form waits rely on."""
        return not self.qplus or self.mu >= self.lam


@dataclass(frozen=True)
class CostWeights:
    alpha: Fraction      # per wait-minute
    beta_a: Fraction     # per assistant idle-minute
    beta_p: Fraction     # per physician idle-minute
    o_a: Fraction = Fraction(0)   # per assistant overtime-minute
    o_p: Fraction = Fraction(0)   # per physician overtime-minute

    @classmethod
    def of(cls, alpha, beta_a=1, beta_p=None, o_a=0, o_p=None):
        beta_p = beta_a if beta_p is None else beta_p
        o_p = o_a if o_p is None else o_p
        return cls(*(Fraction(str(x)) if isinstance(x, float) else Fraction(x)
                     for x in (alpha, beta_a, beta_p, o_a, o_p)))


@dataclass(frozen=True)
class ClinicInstance:
    types: tuple[PatientType, ...]
    costs: CostWeights
    regular_time: Scalar   # R, tenths
    blocks: int            # k

    @property
    def r(self) -> int:
        return sum(t.ratio for t in self.types)


@dataclass(frozen=True)
class Patient:
    """One expanded patient: type replicated per demand ratio, per block.

    uid is the canonical index over the whole horizon (block-major, types in
    declaration order, then replicate); stochastic draws key on it so that
    methods that reorder or regroup patients share sample paths.
    """
    uid: int
    block: int
    type_index: int
    replicate: int
    name: str
    lam: Scalar
    mu: Scalar

    @property
    def qplus(self) -> bool:
        return self.mu > 0


PatientList = tuple[Patient, ...]


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass(frozen=True)
class BalanceResult:
    reduced_ratios: dict[str, int]
    overflow_list: tuple[str, ...]   # type names in removal order (one block's worth)
    final_L_a: Scalar
    final_L_p: Scalar
    unbalanceable: bool = False


def workloads(inst: ClinicInstance) -> tuple[Scalar, Scalar]:
    """Per-block workloads (L_a, L_p): sum of ratio * mean over stage 1 and 2."""
    L_a = sum(t.ratio * t.lam for t in inst.types)
    L_p = sum(t.ratio * t.mu for t in inst.types)
    return L_a, L_p


def validate_instance(inst: ClinicInstance) -> ValidationReport:
    report = ValidationReport()
    for i, t in enumerate(inst.types):
        where = f"types[{i}] ({t.name})"
        if t.lam <= 0:
            report.errors.append(f"{where}: nonpositive stage-1 time")
        if t.ratio < 1:
            report.errors.append(f"{where}: ratio must be >= 1")
        if t.mu == 0 and t.mu_sd != 0:
            report.errors.append(f"{where}: mu_sd > 0 on a zero stage-2 mean")
        if t.lam_sd < 0 or t.mu_sd < 0:
            report.errors.append(f"{where}: negative standard deviation")
        if t.mu < 0:
            report.errors.append(f"{where}: negative stage-2 time")
        for name, value in (("lambda_mean", t.lam), ("lambda_sd", t.lam_sd),
                            ("mu_mean", t.mu), ("mu_sd", t.mu_sd)):
            if why := _beyond_limit(value):
                report.errors.append(f"{where}: {name} {why}")
        if t.qplus and t.mu < t.lam:
            report.warnings.append(
                f"{where}: stage-2 mean below stage-1 mean; no-idle guarantees void")
    for name in ("alpha", "beta_a", "beta_p", "o_a", "o_p"):
        if getattr(inst.costs, name) < 0:
            report.errors.append(f"costs.{name}: negative weight")
    if inst.regular_time < 0:
        report.errors.append("regular_time: negative")
    if why := _beyond_limit(inst.regular_time):
        report.errors.append(f"regular_time: {why}")
    if inst.blocks < 1:
        report.errors.append("blocks: must be >= 1")
    if not inst.types:
        report.errors.append("types: empty")
    if not report.errors:
        L_a, L_p = workloads(inst)
        if L_a > L_p:
            report.warnings.append(
                f"L_a={fmt_minutes(L_a)} > L_p={fmt_minutes(L_p)}; run balance")
    return report


def require_valid(inst: ClinicInstance) -> None:
    report = validate_instance(inst)
    if not report.ok:
        raise InvalidInstanceError("; ".join(report.errors))


def expand_block(inst: ClinicInstance, block: int = 0) -> PatientList:
    """Expand one block to its patient list: declaration order, each type
    repeated ratio times.  uids are canonical horizon indices."""
    patients = []
    base = block * inst.r
    offset = 0
    for ti, t in enumerate(inst.types):
        for rep in range(t.ratio):
            patients.append(Patient(base + offset, block, ti, rep, t.name, t.lam, t.mu))
            offset += 1
    return tuple(patients)


def expand_horizon(inst: ClinicInstance) -> tuple[PatientList, ...]:
    return tuple(expand_block(inst, c) for c in range(inst.blocks))


def balance_workload(inst: ClinicInstance) -> BalanceResult:
    """Remove Q patients (largest remaining per-block count first, ties to the
    larger stage-1 mean, then declaration order) until L_a <= L_p.

    The removed patients, one per block per removal, form the extra final
    block.  If every Q patient is removed and L_a still exceeds L_p the result
    is flagged unbalanceable (the Q+ head workload alone exceeds L_p)."""
    L_a, L_p = workloads(inst)
    ratios = {t.name: t.ratio for t in inst.types}
    if L_a <= L_p:
        return BalanceResult(ratios, (), L_a, L_p)
    counts = {t.name: t.ratio for t in inst.types if not t.qplus}
    lam = {t.name: t.lam for t in inst.types}
    order = [t.name for t in inst.types if not t.qplus]
    removed: list[str] = []
    while L_a > L_p:
        candidates = [n for n in order if counts[n] > 0]
        if not candidates:
            return BalanceResult(ratios, tuple(removed), L_a, L_p, unbalanceable=True)
        best = max(candidates, key=lambda n: (counts[n], lam[n], -order.index(n)))
        counts[best] -= 1
        ratios[best] -= 1
        removed.append(best)
        L_a -= lam[best]
    ratios = {n: c for n, c in ratios.items() if c > 0}
    return BalanceResult(ratios, tuple(removed), L_a, L_p)


def balanced_blocks(inst: ClinicInstance, result: BalanceResult
                    ) -> tuple[tuple[PatientList, ...], PatientList]:
    """Split the canonical horizon expansion into k reduced blocks plus the
    overflow block (k copies of the removal list, highest replicates removed
    first so uids stay aligned with the unbalanced expansion)."""
    blocks = []
    overflow: list[Patient] = []
    for block in expand_horizon(inst):
        by_key = {(p.type_index, p.replicate): p for p in block}
        blocks.append(tuple(p for p in block if p.replicate
                            < result.reduced_ratios.get(p.name, 0)))
        taken: dict[str, int] = {}
        for name in result.overflow_list:
            ti = next(i for i, t in enumerate(inst.types) if t.name == name)
            taken[name] = taken.get(name, 0) + 1
            rep = inst.types[ti].ratio - taken[name]
            overflow.append(by_key[(ti, rep)])
    return tuple(blocks), tuple(overflow)


# ---------------------------------------------------------------------------
# JSON instance files: {types: [{name, lambda_mean, lambda_sd, mu_mean, mu_sd,
# ratio}], costs: {alpha, beta_a, beta_p, o_a, o_p}, regular_time, blocks}.
# Times in minutes with at most one decimal.

_TIME_FIELDS = ("lambda_mean", "lambda_sd", "mu_mean", "mu_sd")


def _need(mapping, key, where):
    if not isinstance(mapping, dict):
        raise InstanceFormatError(f"{where}: must be an object")
    if key not in mapping:
        raise InstanceFormatError(f"{where}.{key} missing")
    return mapping[key]


def _number(mapping, key, where, integer: bool = False):
    """mapping[key] when it is a finite JSON number (an int when integer is
    set); booleans, strings, inf and nan are not, and the error names the
    field."""
    raw = _need(mapping, key, where)
    kinds = int if integer else (int, float, Fraction)
    if isinstance(raw, bool) or not isinstance(raw, kinds):
        kind = "an integer" if integer else "a number"
        raise InstanceFormatError(f"{where}.{key}: must be {kind}, not {raw!r}")
    if isinstance(raw, float) and not math.isfinite(raw):
        raise InstanceFormatError(
            f"{where}.{key}: must be a finite number, not {raw!r}")
    return raw


def _time(mapping, key, where, name) -> Scalar:
    """mapping[key] in tenths, when it is a number of minutes on the
    0.1-minute grid and within MAX_TIME; errors begin with name."""
    value = tenths(_number(mapping, key, where))
    if not isinstance(value, int):
        raise InstanceFormatError(f"{name}: finer than 0.1-minute resolution")
    if why := _beyond_limit(value):
        raise InstanceFormatError(f"{name}: {why}")
    return value


def load_instance(path) -> ClinicInstance:
    with open(path) as fh:
        try:
            data = json.load(fh, parse_float=Fraction)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"{path}: not valid JSON ({exc})") from exc
    return instance_from_dict(data)


def instance_from_dict(data: dict) -> ClinicInstance:
    if (not isinstance(data, dict) or not isinstance(data.get("types"), list)
            or not data["types"]):
        raise InstanceFormatError("types missing or empty")
    types = []
    for i, td in enumerate(data["types"]):
        where = f"types[{i}]"
        name = _need(td, "name", where)
        values = {}
        for fieldname in _TIME_FIELDS:
            if fieldname in ("lambda_sd", "mu_sd") and fieldname not in td:
                values[fieldname] = 0
                continue
            values[fieldname] = _time(td, fieldname, where,
                                      f"{where}.{fieldname}")
        ratio = _number(td, "ratio", where, integer=True)
        types.append(PatientType(str(name), values["lambda_mean"], values["lambda_sd"],
                                 values["mu_mean"], values["mu_sd"], ratio))
    costs_d = _need(data, "costs", "instance")
    costs = CostWeights.of(*(_number(costs_d, k, "costs")
                             for k in ("alpha", "beta_a", "beta_p", "o_a", "o_p")))
    regular = _time(data, "regular_time", "instance", "regular_time")
    blocks = _number(data, "blocks", "instance", integer=True)
    return ClinicInstance(tuple(types), costs, regular, blocks)


def instance_to_dict(inst: ClinicInstance) -> dict:
    def num(x):
        frac = Fraction(x)
        return int(frac) if frac.denominator == 1 else float(frac)

    return {
        "types": [
            {"name": t.name,
             "lambda_mean": num(Fraction(t.lam) / 10),
             "lambda_sd": num(Fraction(t.lam_sd) / 10),
             "mu_mean": num(Fraction(t.mu) / 10),
             "mu_sd": num(Fraction(t.mu_sd) / 10),
             "ratio": t.ratio}
            for t in inst.types
        ],
        "costs": {k: num(getattr(inst.costs, k))
                  for k in ("alpha", "beta_a", "beta_p", "o_a", "o_p")},
        "regular_time": num(Fraction(inst.regular_time) / 10),
        "blocks": inst.blocks,
    }
