"""The scalar daily (stage III) estimators, kept as the reference the kernel is diffed against.

`prepare_components` is the per-day loop that bias correction ran before it
took its daily estimates from the batched kernel: for every unit of a frame
(`units`, built record by record by `frame_reference.reference_frame`) and
each of its component-days, one `daily_estimate` call, then `wells_allocate`
and the pooled `phi_any_detection` for a well site.  `msinv.estimators`
keeps the component, stratum and population stages (`estimate_survey`),
which take what this loop returns.

Every sum runs left to right from 0 (Python's `sum`), and every square is a
product, as in the kernel, so `msinv.estimators.prepare_components` equals
this loop bit for bit.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from msinv.estimators import ComponentObs, DailyEstimate, EstimationError
from msinv.frame import SurveyFrame

from frame_reference import Unit, log_records, reference_frame


def phi_any_detection(detected_phis, n_missed: int) -> float:
    """Estimated probability of at least one detection over a component-day.

    Missed passes have unknown POD; each is imputed with the mean of the
    detected passes' PODs, giving

        1 - (1 - mean_phi)^n_missed * prod(1 - phi_q).

    With ``n_missed == 0`` this is the exact any-detection probability
    1 - prod(1 - phi_q).
    """
    phis = [float(p) for p in detected_phis]
    if n_missed < 0:
        raise ValueError("n_missed must be >= 0")
    for p in phis:
        if not 0.0 < p <= 1.0:
            raise ValueError("detected POD values must lie in (0, 1]")
    if not phis:
        if n_missed > 0:
            raise ValueError("no detected passes to impute the mean POD from")
        return 0.0
    prod_miss = 1.0
    mu = sum(phis) / len(phis)
    for _ in range(n_missed):
        prod_miss *= 1.0 - mu
    for p in phis:
        prod_miss *= 1.0 - p
    return 1.0 - prod_miss


def _check_detections(detections, q_total: int):
    if q_total < max(1, len(detections)):
        raise EstimationError(
            f"q_total={q_total} is smaller than the number of detections ({len(detections)})"
        )
    for y, phi in detections:
        if phi <= 0:
            raise EstimationError("detection probabilities must be > 0")
        if y < 0:
            raise EstimationError("rates must be >= 0")


def ipw_daily(detections, q_total: int, day_id: int = 0) -> DailyEstimate:
    """Inverse-probability-weighted daily mean: (sum Y/phi) / Q_pt.

    ``detections`` is a sequence of (rate, phi) pairs for the detected passes;
    an empty sequence gives mean 0 (a day with no detections contributes the
    empty IPW sum, not a missing value).
    """
    _check_detections(detections, q_total)
    mean = sum(y / phi for y, phi in detections) / q_total
    return DailyEstimate(
        mean_rate=mean,
        var=ipw_daily_var(detections, q_total),
        n_detected=len(detections),
        day_id=day_id,
        n_passes=q_total,
    )


def ipw_daily_var(detections, q_total: int) -> float:
    """Poisson-sampling variance estimate (1/Q^2) sum (1-phi)/phi^2 * Y^2."""
    _check_detections(detections, q_total)
    return sum((1.0 - phi) / (phi * phi) * y * y for y, phi in detections) / (q_total * q_total)


def hajek_daily(detections, q_total: int, phi_hat: float, day_id: int = 0) -> DailyEstimate:
    """Hajek (ratio) daily mean: (sum Y/phi) / (sum 1/phi).

    Undefined on empty detections; callers must restrict to days with at least
    one detection (the starred stage II sample).
    """
    if not detections:
        raise EstimationError("Hajek daily estimate is undefined with no detections (0/0)")
    _check_detections(detections, q_total)
    num = sum(y / phi for y, phi in detections)
    den = sum(1.0 / phi for y, phi in detections)
    return DailyEstimate(
        mean_rate=num / den,
        var=hajek_daily_var(detections, q_total, phi_hat),
        phi_hat=phi_hat,
        n_detected=len(detections),
        day_id=day_id,
        n_passes=q_total,
    )


def hajek_daily_var(detections, q_total: int, phi_hat: float) -> float:
    """Approximate variance of the Hajek daily mean, clipped at zero.

    (phi_hat/Q^2) [ sum (1-phi)((Y-Yhat)/phi)^2
                    + (phi_hat - 1)(sum (Y-Yhat)/phi)^2 ]
    The second term is nonpositive and can dominate for small phi_hat, hence
    the clip.  The squares are products: Python's ``x ** 2`` goes through the
    C library's ``pow``, which rounds differently from ``x * x`` in the last
    bit for about one input in a thousand.
    """
    if not detections:
        raise EstimationError("Hajek daily variance is undefined with no detections")
    _check_detections(detections, q_total)
    num = sum(y / phi for y, phi in detections)
    den = sum(1.0 / phi for y, phi in detections)
    yhat = num / den
    resid = [(y - yhat) / phi for y, phi in detections]
    resid_sq = sum((1.0 - phi) * (r * r) for r, (_, phi) in zip(resid, detections))
    resid_sum = sum(resid)
    raw = phi_hat / (q_total * q_total) * (resid_sq + (phi_hat - 1.0) * (resid_sum * resid_sum))
    return max(0.0, raw)


def daily_estimate(rates, phis, q_total: int, estimator: str, day_id: int = 0) -> DailyEstimate:
    """The daily estimate of one component-day from its detected passes.

    ``rates`` and ``phis`` are the detected passes' rates and detection
    probabilities; ``q_total`` counts every pass of the day.  Returns
    `ipw_daily` or `hajek_daily` by ``estimator``, with ``phi_hat`` (the
    any-detection probability) set whenever something was detected.  A day
    with no detection is the zero estimate for either estimator: the Hajek
    ratio is undefined there, and the starred design leaves the day out.
    """
    detections = list(zip(rates, phis))
    if estimator == "hajek" and detections:
        phi_hat = phi_any_detection(phis, q_total - len(detections))
        return hajek_daily(detections, q_total, phi_hat, day_id=day_id)
    est = ipw_daily(detections, q_total, day_id=day_id)
    if detections:
        est.phi_hat = phi_any_detection(phis, q_total - len(detections))
    return est


def wells_allocate(site_dailies, wells_at_site: int) -> dict[int, tuple[float, float]]:
    """Spread the site's detected well emissions equally over its wells.

    ``site_dailies`` are daily estimates of the well components at one site.
    For each survey day the per-well share is (sum of means)/wells and
    (sum of variances)/wells^2; every well at the site receives the same
    share.  Returns day_id -> (mean share, variance share).
    """
    if wells_at_site < 1:
        if any(d.n_detected > 0 for d in site_dailies):
            raise EstimationError("well detections at a site with no registered wells")
        return {}
    by_day: dict[int, list[DailyEstimate]] = {}
    for d in site_dailies:
        by_day.setdefault(d.day_id, []).append(d)
    out = {}
    for day, ds in sorted(by_day.items()):
        out[day] = (
            sum(d.mean_rate for d in ds) / wells_at_site,
            sum(d.var for d in ds) / (wells_at_site * wells_at_site),
        )
    return out


@functools.lru_cache(maxsize=64)
def units(frame: SurveyFrame) -> tuple[Unit, ...]:
    """The frame's units as records, grouped anew from its pass log."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the frame warned when it was built
        return reference_frame(frame.strata, frame.components, log_records(frame),
                               frame.wells_per_site).units


def prepare_components(frame: SurveyFrame, rates, phis, config) -> list[ComponentObs]:
    """Build the ComponentObs of every unit of the frame, one day at a time.

    ``rates``/``phis`` align with ``frame.measured_rates``.  A well site's
    daily estimates are spread evenly over its registered wells by
    `wells_allocate`, each share's phi_hat pooling every pass of the site
    that day, and each well becomes its own stage I unit in the wells stratum.
    """
    if len(rates) != len(frame.measured_rates) or len(phis) != len(frame.measured_rates):
        raise EstimationError("rates/phis must align with the frame's detected passes")
    rates = np.asarray(rates, dtype=float).tolist()
    phis = np.asarray(phis, dtype=float).tolist()
    out: list[ComponentObs] = []
    for unit in units(frame):
        dailies = [daily_estimate([rates[i] for i in positions], [phis[i] for i in positions],
                                  q_pt, config.estimator, day_id=day.day_id)
                   for day in unit.days for positions, q_pt in day.parts]
        if not unit.wells:
            out.append(ComponentObs(unit.unit_id, unit.members[0], unit.stratum, tuple(dailies)))
            continue
        allocated = wells_allocate(dailies, unit.wells)
        shares = []
        for day in unit.days:
            mean, var = allocated[day.day_id]
            pooled = [phis[i] for positions, _ in day.parts for i in positions]
            misses = sum(q_pt - len(positions) for positions, q_pt in day.parts)
            phi_hat = phi_any_detection(pooled, misses) if pooled else None
            shares.append(DailyEstimate(mean, var, phi_hat=phi_hat, n_detected=len(pooled),
                                        day_id=day.day_id,
                                        n_passes=sum(q_pt for _, q_pt in day.parts)))
        out.extend(ComponentObs(wid, wid, unit.stratum, tuple(shares)) for wid in unit.members)
    return out
