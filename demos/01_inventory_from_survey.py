"""Estimate a methane inventory from aerial survey data.

The survey visits facilities from the air; every pass over a piece of
equipment either detects and quantifies a plume or misses.  Treating the data
as a three-stage sample (facilities within strata, survey days within the
year, detection within passes) gives a design-based total with an honest
variance, split by the source of uncertainty.

This walkthrough uses the packaged demonstration subset; point the loader at
your own pass log / component registry / strata table to analyse real data.
"""

from msinv import EstimatorConfig
from msinv.datasets import load_packaged_subset
from msinv.frame import validate
from msinv.measurement import bias_corrected_inventory

frame = load_packaged_subset()
days = frame.days_surveyed
print(f"{len(frame.registry)} components, {len(frame.passes)} passes, "
      f"{frame.passes.detected.sum()} detections")
print(f"survey days per component: min {min(days.values())}, max {max(days.values())}")

# Data-quality diagnostics worth reading before any estimation: components
# surveyed on a single day need their variance imputed from stratum peers,
# and a stratum with no detections anywhere is treated as zero-emitting.
diag = validate(frame)
print(f"\nsingle-day components: {len(diag.single_day_components)}")
print(f"zero-detection strata:  {diag.zero_detection_strata}")
print(f"small strata (n < 10):  {diag.small_strata}")

# The quick treatment of measurement error multiplies every measured rate by
# the instrument's bias factor (no Monte Carlo).  Stage II: the year is the
# population of days, so sampling only 1-3 days per component costs variance.
config = EstimatorConfig(estimator="ipw", stage2="year", horizon=365)
report = bias_corrected_inventory(frame, config)

print(f"\ntotal: {report.total:.2f} kt/y "
      f"[{report.ci_lower:.2f}, {report.ci_upper:.2f}] at {report.ci_level:.0%}")
print("variance split (kt/y)^2:")
print(f"  facility sampling (I): {report.var_stage1:8.2f}")
print(f"  day sampling (II):     {report.var_stage2:8.2f}")
print(f"  detection (III):       {report.var_stage3:8.2f}")

print("\nper-stratum totals (kt/y):")
for row in report.strata:
    print(f"  {row.name:22s} {row.total:8.3f}  (var {row.var_total:.3f})")

# The same analysis with the ratio (Hajek) estimator: days with no detection
# drop out of the day sample and the within-day weights are self-normalising,
# trading exact unbiasedness for stability.
hajek = bias_corrected_inventory(frame, EstimatorConfig(estimator="hajek"))
print(f"\nHajek total: {hajek.total:.2f} kt/y "
      f"[{hajek.ci_lower:.2f}, {hajek.ci_upper:.2f}]")
