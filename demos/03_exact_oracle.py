"""Verify the estimator stack by exhaustive enumeration.

On a population small enough to enumerate, every possible realisation of the
three-stage sample has a computable probability, so expectations of the
estimators are exact numbers rather than simulation output.  This is the
test bed that pins down unbiasedness and the stage decomposition to near
machine precision - and shows what the deliberately wrong variant would do.
"""

from msinv.estimators import EstimatorConfig
from msinv.frame import StratumDef
from msinv.oracle import (
    MicroComponent,
    MicroPass,
    MicroPopulation,
    enumerate_outcomes,
    exact_stage_variances,
    true_total,
)
from msinv.planner import predict_variance_exact

# Three single-component facilities in one stratum (two sampled), three days
# (two surveyed), two passes a day with different detection probabilities.
pop = MicroPopulation(
    strata={"S": StratumDef("S", 2, 3)},
    facilities={"F1": "S", "F2": "S", "F3": "S"},
    components=(
        MicroComponent("c1", "F1", (
            (MicroPass(4.0, 0.6), MicroPass(5.0, 0.8)),
            (MicroPass(6.0, 0.6), MicroPass(7.0, 0.8)),
            (MicroPass(8.0, 0.6), MicroPass(9.0, 0.8)),
        )),
        MicroComponent("c2", "F2", (
            (MicroPass(1.0, 0.6), MicroPass(2.0, 0.8)),
            (MicroPass(2.0, 0.6), MicroPass(3.0, 0.8)),
            (MicroPass(3.0, 0.6), MicroPass(4.0, 0.8)),
        )),
        MicroComponent("c3", "F3", (
            (MicroPass(10.0, 0.6), MicroPass(12.0, 0.8)),
            (MicroPass(8.0, 0.6), MicroPass(6.0, 0.8)),
            (MicroPass(5.0, 0.6), MicroPass(5.0, 0.8)),
        )),
    ),
    days_sampled=2,
)

t = true_total(pop)
cfg = EstimatorConfig(stage2="year", horizon=3)
(dist,) = enumerate_outcomes(pop, cfg)
print(f"outcomes enumerated: {len(dist.probabilities)}")
print(f"true total T        = {t:.6f} kg/h")
print(f"E[estimate]         = {dist.mean_total():.6f}  (relative error "
      f"{abs(dist.mean_total() - t) / t:.1e})")
print(f"Var(estimate)       = {dist.var_total():.6f}")
print(f"E[variance estimate]= {dist.expected_v3stage():.6f}")

v1, v2, v3 = exact_stage_variances(dist)  # regroups the outcomes enumerated above
print("\nexact stage split vs expectation of the estimated split:")
for stage, exact in (("facilities", v1), ("days", v2), ("detection", v3)):
    key = {"facilities": "stage1", "days": "stage2", "detection": "stage3"}[stage]
    print(f"  {stage:10s} exact {exact:9.6f}   E[estimate] {dist.expected_part(key):9.6f}")

# The survey planner evaluates the same stage variances from closed formulas.
planned = predict_variance_exact(pop, "ipw")
print(f"\nplanner closed forms: {planned.stage1:.6f} / {planned.stage2:.6f} "
      f"/ {planned.stage3:.6f}")

# The detection split published with a 1/D factor instead of 1/D^2 fails the
# same check by exactly that factor - the reason this package defaults to the
# corrected form.
(printed,) = enumerate_outcomes(pop, EstimatorConfig(stage2="year", horizon=3,
                                                     decomposition="printed"))
print(f"\n'printed' detection part: E[estimate] {printed.expected_part('stage3'):.4f} "
      f"vs exact {v3:.4f} (factor {printed.expected_part('stage3') / v3:.1f})")

# The ratio estimator is only approximately unbiased; the oracle measures it.
(hajek,) = enumerate_outcomes(pop, EstimatorConfig(estimator="hajek",
                                                   stage2="year", horizon=3))
print(f"\nHajek E[estimate] = {hajek.mean_total():.4f} "
      f"({(hajek.mean_total() - t) / t:+.2%} relative bias, "
      f"variance {hajek.var_total():.3f} vs IPW {dist.var_total():.3f})")
