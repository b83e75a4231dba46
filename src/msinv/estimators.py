"""Estimation entry points: the estimator configuration and the single design pass.

The total emission rate is estimated by expanding each sampled unit by its
inclusion probability at all three stages.  Daily means are inverse-probability
weighted over detected passes (or Hajek ratios of those weights); days are
expanded by the simple-random-sample day probabilities with closed-form
variance expressions; components are expanded by the stratified-cluster
stage I probabilities.  The total three-stage variance is split into per-stage
contributions, clipped at zero in a fixed order, with the unclipped values
retained for diagnostics.

Every production estimate runs on the batched kernel (`batch.evaluate`).  A
single design pass (`total_inventory`, bias correction) is one iteration of
it: `estimate_survey` checks the rates and PODs, takes the configuration's
layout from the frame (`SurveyFrame.layout`) and evaluates it once, and the
report is assembled by `reporting.batch_report`, as the Monte Carlo's is.
Both take a sequence of configurations too, which then share the PODs and
one `batch.evaluate` call.  The scalar formulas, per day, component,
stratum and population, are the written reference the tests diff the kernel
against (`tests/estimator_reference.py`).  `prepare_components` returns the
kernel's daily stage as arrays, for the tests that check that stage bit for
bit against the reference's per-day loop.

All arithmetic here is in kg/h; unit conversion happens at report assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import batch, reporting
from .frame import SurveyFrame
from .pod import PHI_FLOOR, PodParams, DEFAULT_POD, pod
from .reporting import EstimationError, valid_level, wald_ci

__all__ = [
    "EstimationError",
    "EstimatorConfig",
    "estimate_survey",
    "total_inventory",
    "wald_ci",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Selects one analysis variant.

    ``stage2`` is ``"year"`` (a fixed horizon of ``horizon`` days, day sampling
    contributes variance) or ``"observed"`` (the horizon is each component's
    own surveyed days, a census at stage II).  ``plan`` switches the IPW
    estimator between the original day design and the detection-conditioned
    (starred) one; the two give identical totals and variances, which is
    exactly what the starred construction promises.  The Hajek estimator only
    exists on the starred design.  Every (estimator, plan) pair expands its
    days by one closed form (`_starred_srs` in the tests' reference, and
    `batch._unit_estimates`); the original plan is the starred one with
    phi_hat = 1 on every surveyed day.
    ``decomposition`` selects the stage III split: ``"corrected"`` (1/D^2,
    stage-wise unbiased) or ``"printed"`` (the literal 1/D display).
    """

    estimator: str = "ipw"
    stage2: str = "year"
    horizon: int = 365
    plan: str = "original"
    decomposition: str = "corrected"
    ci_level: float = 0.95
    pod_params: PodParams = DEFAULT_POD

    def __post_init__(self):
        if self.estimator not in {"ipw", "hajek"}:
            raise EstimationError(f"estimator must be 'ipw' or 'hajek', got {self.estimator!r}")
        if self.stage2 not in {"year", "observed"}:
            raise EstimationError(f"stage2 must be 'year' or 'observed', got {self.stage2!r}")
        if self.plan not in {"original", "modified"}:
            raise EstimationError(f"plan must be 'original' or 'modified', got {self.plan!r}")
        if self.estimator == "hajek" and self.plan == "original":
            # the ratio estimator is undefined on empty stage III samples
            object.__setattr__(self, "plan", "modified")
        if self.decomposition not in {"corrected", "printed"}:
            raise EstimationError(
                f"decomposition must be 'corrected' or 'printed', got {self.decomposition!r}"
            )
        if not valid_level(self.ci_level):
            raise EstimationError(f"ci_level must lie in (0, 1 - 2**-53), got {self.ci_level!r}")
        if self.horizon < 1:
            raise EstimationError("horizon must be >= 1 day")

    def as_dict(self) -> dict:
        """The settings by name, equal to `dataclasses.asdict` of them."""
        return {"estimator": self.estimator, "stage2": self.stage2, "horizon": self.horizon,
                "plan": self.plan, "decomposition": self.decomposition,
                "ci_level": self.ci_level, "pod_params": self.pod_params.as_dict()}


# ---------------------------------------------------------------------------
# Frame-level entry points
# ---------------------------------------------------------------------------


def _require_aligned(frame: SurveyFrame, *columns):
    n = len(frame.measured_rates)
    if any(len(column) != n for column in columns):
        raise EstimationError("rates/phis must align with the frame's detected passes")


def prepare_components(frame: SurveyFrame, rates, phis, config: EstimatorConfig):
    """The kernel's daily stage on one set of rates and PODs: ``(mean, var, phi_hat)``.

    ``rates``/``phis`` align with ``frame.measured_rates`` and are refused as
    `estimate_survey` refuses them.  Each result is a float array with one
    entry per unit-day of ``frame.index``, in unit order, from one iteration
    of `batch._daily`: IPW or Hajek by ``config.estimator``.  ``phi_hat`` is
    the day's any-detection probability, NaN on a day without a detection.
    A well site's days are the sums of its components' spread evenly over
    its registered wells, each phi_hat pooling every pass of the site that
    day.  No production path calls this: the tests diff it against the
    scalar reference's per-day loop.
    """
    _require_aligned(frame, rates, phis)
    y, phi = np.asarray(rates, dtype=float), np.asarray(phis, dtype=float)
    ix = frame.compiled_index
    _refuse_passes(ix, y, phi, config.estimator)
    # "starred" is the IPW daily stage with phi_hat computed
    kind = "hajek" if config.estimator == "hajek" else "starred"
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mean, var, ph = batch._daily(ix, kind, y.reshape(-1, 1), phi.reshape(-1, 1))
    phi_hat = np.full(len(mean), np.nan)
    phi_hat[ix.star] = ph[:, 0]
    return mean[:, 0], var[:, 0], phi_hat


def _refuse_passes(ix: batch.CompiledIndex, y: np.ndarray, phi: np.ndarray, estimator: str):
    """Raise what the per-day formulas refuse, as the scalar reference does.

    A POD outside (0, 1] (NaN included) has no any-detection probability
    (ValueError); a POD <= 0 or a negative rate is outside the daily
    estimators' domain (`EstimationError`).  The first faulty detected
    component-day in unit order decides: IPW checks its passes in order, POD
    before rate, then the POD range; Hajek checks the POD range first.
    """
    out_of_range = ~((phi > 0.0) & (phi <= 1.0))
    negative = y < 0.0
    faulty = out_of_range | negative
    if not faulty.any():
        return
    day = np.flatnonzero(ix.pass_dd == ix.pass_dd[faulty].min())
    if estimator == "ipw":
        for i in day[faulty[day]].tolist():
            if phi[i] <= 0.0:
                raise EstimationError("detection probabilities must be > 0")
            if negative[i]:
                raise EstimationError("rates must be >= 0")
    if out_of_range[day].any():
        raise ValueError("detected POD values must lie in (0, 1]")
    raise EstimationError("rates must be >= 0")


def _as_list(config) -> tuple[list[EstimatorConfig], bool]:
    """``config``, one `EstimatorConfig` or a sequence of them, as a list, and
    whether it was a single one."""
    if isinstance(config, EstimatorConfig):
        return [config], True
    return list(config), False


def estimate_survey(frame: SurveyFrame, config, rates, phis):
    """The three-stage survey estimate of one set of rates and floored PODs.

    ``rates``/``phis`` align with ``frame.measured_rates``.  They are checked
    once, as the scalar reference checks them (`_refuse_passes`), then the
    configuration's layout (`SurveyFrame.layout`), which checks each unit's
    surveyed days against the horizon, is evaluated as one iteration.
    Returns the `batch.BatchEstimate` (B = 1) and the `batch.Layout`.  A
    non-finite total or variance part raises `EstimationError`, naming the
    first in the population's parts, then stratum by stratum, each in
    `batch.POPULATION_KEYS` order.

    ``config`` may also be a sequence of configurations: they are evaluated
    in one `batch.evaluate` call, and the result is the list of their
    (estimate, layout) pairs, in order.  The first configuration that fails
    raises what it would raise alone, as if each were estimated in turn.
    """
    configs, single = _as_list(config)
    _require_aligned(frame, rates, phis)
    y, phi = np.asarray(rates, dtype=float), np.asarray(phis, dtype=float)
    if configs:
        # whether the passes are refused does not depend on the configuration
        _refuse_passes(frame.compiled_index, y, phi, configs[0].estimator)
    layouts, refused = [], None
    for cfg in configs:
        try:
            layouts.append(frame.layout(cfg))
        except EstimationError as exc:
            # a refused horizon, raised once the configurations before it
            # have been evaluated
            refused = exc
            break
    try:
        ests = batch.evaluate(layouts, y.reshape(1, -1), phi.reshape(1, -1))
    except batch.NonFiniteEstimate as exc:
        where = ("population" if exc.stratum is None
                 else f"stratum {list(frame.strata)[exc.stratum]!r}")
        raise EstimationError(f"non-finite {where} {exc.key} ({exc.hint})") from None
    if refused is not None:
        raise refused
    out = list(zip(ests, layouts))
    return out[0] if single else out


def total_inventory(frame: SurveyFrame, config, rates=None):
    """One design pass over a survey frame: point estimate, variance split, CI.

    ``rates`` optionally overrides the measured rates (aligned with
    ``frame.measured_rates``); detection probabilities are always recomputed
    from the rates actually used.  Returns an `InventoryReport` in kt/y,
    with measurement variance 0.  ``config`` may also be a sequence of
    configurations sharing their POD parameters: the PODs are computed once,
    the configurations estimated together (`estimate_survey`), and the
    result is the list of their reports, in order.
    """
    configs, single = _as_list(config)
    if len({c.pod_params for c in configs}) > 1:
        raise ValueError("the configurations of one design pass must share their POD parameters")
    rates = frame.measured_rates if rates is None else np.asarray(rates, dtype=float)
    _require_aligned(frame, rates)
    if not configs:
        return []
    raw_phi = pod(rates, frame.altitudes, frame.wind_speeds, configs[0].pod_params)
    floor_hits = int(np.count_nonzero(raw_phi < PHI_FLOOR))
    estimates = estimate_survey(frame, configs, rates, np.maximum(raw_phi, PHI_FLOOR))
    reports = [reporting.batch_report(
        {k: v[:, 0] for k, v in est.population.items()}, {k: v.T for k, v in est.strata.items()},
        list(frame.strata), cfg.as_dict(), cfg.ci_level,
        dict(layout.diagnostics, phi_floor_hits=floor_hits))
        for cfg, (est, layout) in zip(configs, estimates)]
    return reports[0] if single else reports
