"""The four closed-loop workloads and the checks on their outputs.

Each workload is driven by one client in this process through the program's
public entry points: `msinv.cli.main` in-process, and the oracle and planner
library calls.  A workload runs one set-up repetition per `prepare` call and
one request per `request` call (the part that is timed); `check_request`
checks that request's outputs and `final_check` runs the checks that need
extra program runs.  Entry points are looked up on their modules at call time
so the tracer's wrappers take effect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import gen
from benchenv import ROOT, max_threads, require
from msinv import cli, oracle, planner
from msinv.estimators import EstimatorConfig

DEFAULT_SEED = 1
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
LOCKS_PATH = ROOT / "tests" / "data" / "acceptance_locks.json"

REPORT_FIELDS = ("total", "ci_lower", "ci_upper", "var_stage1", "var_stage2", "var_stage3",
                 "var_measurement", "var_total", "var_design")
ESTIMATORS = ("ipw", "hajek")
STAGE2 = ("observed", "year")


class RequestFailed(RuntimeError):
    """The program raised or exited non-zero on a request."""


class CheckFailed(AssertionError):
    """The program's output is wrong."""


def run_cli(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RequestFailed(f"msinv {' '.join(argv)} exited {code}: {err.getvalue().strip()}")


def _reject_constant(token: str):
    raise CheckFailed(f"report contains the non-JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def check_close(what: str, got: float, want: float, rel: float, abs_tol: float = 0.0) -> None:
    if not (math.isfinite(got) and math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol)):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r} (rel {rel:g})")


def check_parts(what: str, report: dict) -> None:
    parts = (report["var_stage1"] + report["var_stage2"] + report["var_stage3"]
             + report["var_measurement"])
    check_close(f"{what} var_total vs sum of parts", report["var_total"], parts, 1e-12, 1e-12)


def load_reference() -> dict:
    return json.loads(require(REFERENCE_PATH).read_text())


def read_artifacts(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


class Workload:
    name = ""
    unit = ""  # what one unit of work is, for work_per_s

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def fresh_dir(self, name: str) -> Path:
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def prepare(self) -> None:
        raise NotImplementedError

    def request(self, i: int) -> int:
        """Run request i; return the units of work it did."""
        raise NotImplementedError

    def check_request(self, i: int) -> None:
        pass

    def final_check(self) -> None:
        pass

    def aliases(self, metrics: dict) -> dict:
        """End-to-end values under workload-specific names, such as mc_iters_per_s."""
        return {}


class McSubset(Workload):
    """``estimate --packaged --all-variants --mc-iters B`` at a fixed --threads."""

    ITERATIONS = 50

    def __init__(self, seed, workdir, name, threads):
        super().__init__(seed, workdir)
        self.name = name
        self.threads = threads
        self.unit = "MC iteration (4 variants x B per request)"
        self.outputs: dict[str, bytes] | None = None

    def argv(self, seed, threads, out, iterations=ITERATIONS):
        return ["estimate", "--packaged", "--all-variants", "--mc-iters", str(iterations),
                "--seed", str(seed), "--threads", str(threads), "--out-dir", str(out)]

    def prepare(self):
        run_cli(self.argv(self.seed, self.threads, self.fresh_dir("warmup"), iterations=2))

    def request(self, i):
        run_cli(self.argv(self.seed, self.threads, self.workdir / "requests"))
        return 2 * len(ESTIMATORS) * self.ITERATIONS

    def check_request(self, i):
        outputs = read_artifacts(self.workdir / "requests")
        if self.outputs is None:
            self.outputs = outputs
            check_subset_reports(outputs)
        elif outputs != self.outputs:
            raise CheckFailed("repeating the same request changed its artifacts")

    def final_check(self):
        if self.outputs is None:
            raise CheckFailed("no request completed")
        other = 2 if self.threads == 1 else 1
        run_cli(self.argv(self.seed, other, self.fresh_dir("other-threads")))
        if read_artifacts(self.workdir / "other-threads") != self.outputs:
            raise CheckFailed(f"--threads {other} artifacts differ from --threads {self.threads}")
        reference = load_reference()
        if reference["mc_iterations"] != self.ITERATIONS:
            raise CheckFailed(f"reference.json holds B={reference['mc_iterations']} results")
        ref_dir = self.fresh_dir("reference")
        run_cli(self.argv(DEFAULT_SEED, self.threads, ref_dir))
        check_mc_reference(read_artifacts(ref_dir), reference["mc"])

    def aliases(self, metrics):
        key = "mc_iters_per_s" if self.name == "mc-subset" else "mc_iters_per_s_2t"
        return {key: metrics["work_per_s"]}


def _stem(estimator: str, stage2: str, measurement: str) -> str:
    return f"report_{estimator}_{stage2}_{measurement.replace('-', '')}"


def check_subset_reports(outputs: dict[str, bytes]) -> None:
    """The eight --all-variants reports of the packaged subset."""
    locks = json.loads(require(LOCKS_PATH).read_text())["variants"]
    reports = {}
    for est in ESTIMATORS:
        for s2 in STAGE2:
            for mm in ("bias-correct", "mc"):
                stem = _stem(est, s2, mm)
                report = strict_json(outputs[f"{stem}.json"].decode())
                check_parts(stem, report)
                reports[(est, s2, mm)] = report
            stem = _stem(est, s2, "bias-correct")
            lock = locks[f"{est}_{s2}_bias-correct"]
            for field in REPORT_FIELDS:
                check_close(f"{stem}.{field} vs acceptance lock",
                            reports[(est, s2, "bias-correct")][field], lock[field], 1e-9)
    for est in ESTIMATORS:
        for mm in ("bias-correct", "mc"):
            check_close(f"{est}/{mm} observed vs year total", reports[(est, "observed", mm)]["total"],
                        reports[(est, "year", mm)]["total"], 1e-12)


def mc_record(outputs: dict[str, bytes]) -> dict:
    """The MC reports' headline numbers, as recorded in reference.json."""
    record = {}
    for est in ESTIMATORS:
        for s2 in STAGE2:
            stem = _stem(est, s2, "mc")
            report = strict_json(outputs[f"{stem}.json"].decode())
            record[stem] = {field: report[field] for field in REPORT_FIELDS}
    return record


def check_mc_reference(outputs: dict[str, bytes], reference: dict) -> None:
    got = mc_record(outputs)
    for stem, fields in reference.items():
        for field, want in fields.items():
            check_close(f"default-seed {stem}.{field} vs reference", got[stem][field], want,
                        1e-9)


class SurveyBatch(Workload):
    """One bias-correct ``estimate`` per request over generated survey CSVs."""

    name = "survey-batch"
    unit = "survey estimate"
    SURVEYS = 24

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.totals: dict[tuple, float] = {}

    def prepare(self):
        directory = self.fresh_dir("surveys")
        subset = gen.make_subset_module()
        self.surveys = [
            gen.write_survey(directory / f"s{k:02d}",
                             gen.survey_tables(np.random.default_rng([self.seed, k]), scale, subset))
            for k, scale in enumerate(gen.survey_scales(self.SURVEYS))
        ]
        pairs = [(k, est, s2) for k in range(self.SURVEYS) for est in ESTIMATORS for s2 in STAGE2]
        order = np.random.default_rng([self.seed, self.SURVEYS]).permutation(len(pairs))
        self.order = [pairs[j] for j in order]
        run_cli(self.argv(0, self.fresh_dir("warmup")))

    def argv(self, i, out):
        k, est, s2 = self.order[i % len(self.order)]
        paths = self.surveys[k]
        return ["estimate", "--passes", paths["passes"], "--frame", paths["frame"],
                "--strata", paths["strata"], "--estimator", est, "--stage2", s2,
                "--out-dir", str(out)]

    def request(self, i):
        run_cli(self.argv(i, self.workdir / "requests"))
        return 1

    def check_request(self, i):
        k, est, s2 = self.order[i % len(self.order)]
        report = strict_json((self.workdir / "requests" / "report.json").read_text())
        check_parts(f"survey {k} {est}/{s2}", report)
        self.totals[(k, est, s2)] = report["total"]
        other = self.totals.get((k, est, "year" if s2 == "observed" else "observed"))
        if other is not None:
            check_close(f"survey {k} {est} observed vs year total", report["total"], other, 1e-12)

    def aliases(self, metrics):
        return {"survey_ms_p50": metrics["op_ms_p50"], "survey_ms_tail": metrics["op_ms_tail"]}


SIM_COLUMNS = ("bias_pct", "var", "mse", "coverage")


def read_simstudy(path: Path) -> list[dict]:
    """simstudy.csv rows; the manifest comment line is skipped."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_simstudy(rows: list[dict]) -> None:
    if len(rows) != 20:
        raise CheckFailed(f"simstudy.csv has {len(rows)} rows, want 20")
    for row in rows:
        values = {c: float(row[c]) for c in SIM_COLUMNS}
        if not all(math.isfinite(v) for v in values.values()):
            raise CheckFailed(f"non-finite simulation row {row}")
        if not 0.0 <= values["coverage"] <= 1.0:
            raise CheckFailed(f"coverage outside [0, 1] in {row}")


class SimStudy(Workload):
    """``simulate --reps R``: population generation plus the sampling loop."""

    name = "sim-study"
    unit = "simulation replication"
    REPS = 20

    def request_seed(self, i: int) -> int:
        # every request draws its own population, so population size
        # averages out over a run instead of being fixed by the run's seed
        return self.seed * 10_000 + i

    def argv(self, seed, reps, out):
        return ["simulate", "--reps", str(reps), "--seed", str(seed), "--out-dir", str(out)]

    def prepare(self):
        run_cli(self.argv(self.seed, 2, self.fresh_dir("warmup")))

    def request(self, i):
        run_cli(self.argv(self.request_seed(i), self.REPS, self.workdir / "requests"))
        return self.REPS

    def check_request(self, i):
        check_simstudy(read_simstudy(self.workdir / "requests" / "simstudy.csv"))

    def final_check(self):
        reference = load_reference()
        if reference["sim_reps"] != self.REPS:
            raise CheckFailed(f"reference.json holds R={reference['sim_reps']} results")
        ref_dir = self.fresh_dir("reference")
        run_cli(self.argv(DEFAULT_SEED, self.REPS, ref_dir))
        rows = read_simstudy(ref_dir / "simstudy.csv")
        check_simstudy(rows)
        check_sim_reference(rows, reference["sim"])

    def aliases(self, metrics):
        return {"sim_reps_per_s": metrics["work_per_s"]}


def sim_record(rows: list[dict]) -> list[dict]:
    return [{"stratum": r["stratum"], "variant": r["variant"],
             **{c: float(r[c]) for c in SIM_COLUMNS}} for r in rows]


def check_sim_reference(rows: list[dict], reference: list[dict]) -> None:
    got = sim_record(rows)
    if [(r["stratum"], r["variant"]) for r in got] != [(r["stratum"], r["variant"])
                                                      for r in reference]:
        raise CheckFailed("default-seed simulation rows differ in scope or variant")
    for g, want in zip(got, reference):
        for c in SIM_COLUMNS:
            check_close(f"default-seed {g['stratum']}/{g['variant']}.{c} vs reference",
                        g[c], want[c], 1e-9)


ORACLE_CONFIGS = (
    EstimatorConfig(estimator="ipw", stage2="year", horizon=3, plan="original"),
    EstimatorConfig(estimator="ipw", stage2="year", horizon=3, plan="modified"),
    EstimatorConfig(estimator="hajek", stage2="year", horizon=3),
)
STAGES = ("stage1", "stage2", "stage3")


class OraclePlan(Workload):
    """Exact enumeration, stage variances and variance prediction on micro populations.

    A request takes two populations of each shape in gen.MICRO_SHAPES, so
    all requests cost about the same, plus one planning scenario.
    """

    name = "oracle-plan"
    unit = "enumerated outcome"
    INPUTS = 12

    def prepare(self):
        rng = np.random.default_rng([self.seed])
        self.inputs = [
            ([gen.micro_population(rng, shape) for shape in gen.MICRO_SHAPES for _ in range(2)],
             gen.plan_scenario(rng))
            for _ in range(self.INPUTS)
        ]
        warm = np.random.default_rng([self.seed, self.INPUTS])
        self.evaluate([gen.micro_population(warm, gen.WARMUP_SHAPE)], gen.plan_scenario(warm))

    def evaluate(self, pops, scenario):
        per_pop = []
        for pop in pops:
            dists = oracle.enumerate_outcomes(pop, ORACLE_CONFIGS)
            exact = oracle.exact_stage_variances(pop, ORACLE_CONFIGS[0])
            predicted = planner.predict_variance_exact(pop, "ipw")
            per_pop.append((pop, dists, exact, predicted))
        plans = [planner.predict_variance(scenario, est) for est in ESTIMATORS]
        return per_pop, plans

    def request(self, i):
        self.last = self.evaluate(*self.inputs[i % self.INPUTS])
        return sum(len(dists[0].probabilities) for _, dists, _, _ in self.last[0])

    def check_request(self, i):
        per_pop, plans = self.last
        for pop, dists, exact, predicted in per_pop:
            truth = oracle.true_total(pop)
            for dist in dists[:2]:
                plan = dist.config.plan
                check_close(f"IPW ({plan}) E[total] vs T", dist.mean_total(), truth, 1e-8)
                var = dist.var_total()
                check_close(f"IPW ({plan}) E[v3stage] vs Var", dist.expected_v3stage(), var, 1e-8)
            # the stage split is unbiased stage by stage on the original day
            # design; the modified design moves detection into stage II
            for stage, value in zip(STAGES, exact):
                check_close(f"IPW (original) E[{stage}] vs exact", dists[0].expected_part(stage),
                            value, 1e-8)
            for stage, value in zip(STAGES, exact):
                check_close(f"predict_variance_exact {stage} vs exact",
                            getattr(predicted, stage), value, 1e-8)
        for overall, per_stratum in plans:
            for sv in [overall, *per_stratum.values()]:
                values = (sv.stage1, sv.stage2, sv.stage3)
                if not all(math.isfinite(v) and v >= 0.0 for v in values):
                    raise CheckFailed(f"predict_variance gave {values}")

    def aliases(self, metrics):
        return {"oracle_outcomes_per_s": metrics["work_per_s"]}


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name == "mc-subset":
        return McSubset(seed, workdir, name, threads=1)
    if name == "mc-subset-2t":
        return McSubset(seed, workdir, name, threads=max_threads())
    return {"survey-batch": SurveyBatch, "sim-study": SimStudy,
            "oracle-plan": OraclePlan}[name](seed, workdir)


WORKLOADS = ("mc-subset", "mc-subset-2t", "survey-batch", "sim-study", "oracle-plan")
