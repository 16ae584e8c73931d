"""The closed-loop workloads: cell_metrics, mc_batch and array_column.

Each workload draws its ops from ``--seed`` in *rounds*.  Every round
has the same composition, so a run that stops at a round boundary has
the same mix whatever the host speed; ``run.py`` times
each op, stops after the first round that ends past ``--seconds``, and
checks every output after the timed phase.

Set-up is split in three timed steps: :meth:`Workload.import_layers`,
:meth:`Workload.build_tables` (device calibration and the nominal
device tables) and :meth:`Workload.prepare` (inputs, golden data, one
warm-up op).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import tempfile
from dataclasses import dataclass, field, replace

import common


def round_rng(seed: int, r: int) -> random.Random:
    return random.Random(f"{seed}:{r}")


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True, default=repr).encode()).hexdigest()[:16]


@dataclass
class Op:
    key: str
    args: tuple
    size: int = 1
    """Units of work the op completes (MC samples for mc_batch)."""
    round: int = 0
    value: object = None
    error: str | None = None
    t0: float = 0.0
    t1: float = 0.0
    waited: float = 0.0
    """Run-queue wait inside ``[t0, t1)`` (see ``probe.py``)."""
    extra: dict = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, seed: int, traced: bool = False):
        self.seed = seed
        self.traced = traced

    def import_layers(self) -> None:
        import repro.analysis  # noqa: F401
        import repro.circuit  # noqa: F401
        import repro.sram  # noqa: F401

    def build_tables(self) -> None:
        from repro.devices.library import nmos_device, pmos_device, tfet_device

        tfet_device()
        nmos_device()
        pmos_device()

    def prepare(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op) -> str | None:
        """``None`` when the op's output is correct, else the reason."""
        raise NotImplementedError

    def p50_s(self, corrected: list[float], ops: list[Op]) -> float:
        """Median corrected seconds per op."""
        return statistics.median(corrected)

    def wlcrit_results(self, op: Op) -> int:
        """WL_crit answers the op produced (for sims per answer)."""
        return 0

    def replay(self, round0: list[Op]) -> list[tuple[Op, Op]]:
        """``(replay op, timed op)`` pairs for the untimed determinism
        replay: by default the first op of round 0, run again."""
        return [(replace(op), op) for op in round0[:1]]

    def replay_matches(self, value, timed: Op) -> bool:
        return digest(value) == digest(timed.value)

    def close(self) -> None:
        pass


# -- cell_metrics --------------------------------------------------------------

CELL_STRATA = {
    # (metric, technology): draws per round, one from each cost tier.
    ("wl_crit", "tfet"): 4,
    ("drnm", "tfet"): 4,
    ("drnm", "cmos"): 3,
    ("read_delay", "tfet"): 4,
    ("read_delay", "cmos"): 2,
    ("write_delay", "tfet"): 4,
    ("write_delay", "cmos"): 2,
    ("hold_power", "tfet"): 3,
    ("hold_power", "cmos"): 2,
}
"""28 ops per round, about 10 corrected seconds of work, WL_crit
bisections about half of it.  The (wl_crit, cmos) stratum is drawn zero times: its 3.5-7.4 s
ops would make one draw move a run's throughput by a tenth."""

BALANCE_SUM = 0.01
BALANCE_MEDIAN = 0.02
BALANCE_TRIES = 20000


def _tiers(items: list, n: int) -> list[list]:
    return [items[i * len(items) // n:(i + 1) * len(items) // n] for i in range(n)]


class CellMetrics(Workload):
    """Back-to-back ``evaluate_metric`` calls on builtin-spec points.

    Each stratum's golden entries are sorted by cost and cut into as
    many tiers as the stratum has draws per round; a round draws one
    entry per tier, re-drawn (from the same seeded stream) until the
    round's total and median golden cost are within
    :data:`BALANCE_SUM` and :data:`BALANCE_MEDIAN` of the tier means.
    The balance keeps the work of a round, not just its op count,
    equal across seeds.
    """

    name = "cell_metrics"

    def import_layers(self) -> None:
        super().import_layers()
        from repro.analysis import energy, power, snm, stability, timing  # noqa: F401
        from repro.char import designs, metrics  # noqa: F401
        from repro.experiments import designs as _designs  # noqa: F401

        self.evaluate_metric = metrics.evaluate_metric

    def build_tables(self) -> None:
        super().build_tables()
        from repro.devices.corners import CORNERS, corner_device_set

        for corner in CORNERS:
            corner_device_set(corner)

    def prepare(self) -> None:
        self.golden = common.load_golden()["cells"]
        by = {}
        for key, e in self.golden.items():
            stratum = (e["metric"], e["technology"])
            if stratum in CELL_STRATA:
                by.setdefault(stratum, []).append((e["cost_s"], key))
        self.tiers = [
            [key for _, key in tier]
            for stratum, n in CELL_STRATA.items()
            for tier in _tiers(sorted(by[stratum]), n)
        ]
        cost = {k: e["cost_s"] for k, e in self.golden.items()}
        self.cost = cost
        self.target_sum = sum(statistics.mean(cost[k] for k in t) for t in self.tiers)
        self.target_median = statistics.median(
            statistics.median(cost[k] for k in t) for t in self.tiers)
        warm = next(k for k, e in self.golden.items()
                    if e["metric"] == "drnm" and e["design"] == "proposed"
                    and e["corner"] == "tt" and e["vdd"] == 0.8)
        self.run(self._op(warm, 0))

    def _op(self, key: str, r: int) -> Op:
        e = self.golden[key]
        return Op(key, (e["metric"], e["design"], e["vdd"], e["beta"], e["corner"]), round=r)

    def round(self, r: int) -> list[Op]:
        rng = round_rng(self.seed, r)
        best = None
        for _ in range(BALANCE_TRIES):
            keys = [rng.choice(tier) for tier in self.tiers]
            costs = [self.cost[k] for k in keys]
            err = max(abs(sum(costs) / self.target_sum - 1.0) / BALANCE_SUM,
                      abs(statistics.median(costs) / self.target_median - 1.0) / BALANCE_MEDIAN)
            if best is None or err < best[0]:
                best = (err, keys)
            if err <= 1.0:
                break
        keys = best[1]
        rng.shuffle(keys)
        return [self._op(k, r) for k in keys]

    def run(self, op: Op):
        metric, design, vdd, beta, corner = op.args
        return self.evaluate_metric(metric, design, vdd, beta=beta, corner=corner)

    def check(self, op: Op) -> str | None:
        expected = self.golden[op.key]["value"]
        rel, abs_ = common.CELL_TOLERANCE[op.args[0]]
        if not common.close(op.value, expected, rel, abs_):
            return f"{op.key}: {op.value!r} != golden {expected!r}"
        return None

    def wlcrit_results(self, op: Op) -> int:
        return 1 if op.args[0] == "wl_crit" else 0

    def replay(self, round0: list[Op]) -> list[tuple[Op, Op]]:
        # The two cheapest ops of round 0 keep the replay short.
        return [(replace(op), op) for op in sorted(round0, key=lambda op: self.cost[op.key])[:2]]


# -- mc_batch ------------------------------------------------------------------

MC_STUDIES = (
    # (metric, samples, batch size)
    ("drnm", 32, 16),
    ("wlcrit", 8, 8),
)
MC_BETA = 0.6
MC_READ_ASSIST = "vgnd_lowering"
"""The proposed cell's read assist.  The four assists differ by a fifth
in DRNM study cost, so rotating them would move throughput by seed."""


class McBatch(Workload):
    """Monte-Carlo studies through ``MonteCarloBatch.run`` at beta 0.6.

    A round is one DRNM study under the V_GND-lowering read assist and
    one WL_crit study (fig10's pair).  Each study starts from a cold
    device-table cache, checkpoints to a per-run directory and takes a
    root seed derived from the run seed and the round.
    """

    name = "mc_batch"

    def import_layers(self) -> None:
        super().import_layers()
        from repro.analysis import montecarlo  # noqa: F401
        from repro.circuit import batch  # noqa: F401
        from repro.engine import checkpoint, jobs, mc, scheduler  # noqa: F401
        from repro.experiments.fig10_ra_variation import WLCRIT_UPPER_BOUND

        self.wlcrit_upper_bound = WLCRIT_UPPER_BOUND

    def prepare(self) -> None:
        common.CACHE_DIR.mkdir(parents=True, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(prefix="mc-", dir=common.CACHE_DIR)
        self._count = 0
        self.run(self._study("drnm", 2, 2, self.seed, -1))

    def _study(self, metric, samples, batch, root, r) -> Op:
        return Op(f"{metric}x{samples}", (metric, samples, batch, root), size=samples, round=r)

    def round(self, r: int) -> list[Op]:
        root = round_rng(self.seed, r).getrandbits(31)
        return [self._study(metric, samples, batch, root, r)
                for metric, samples, batch in MC_STUDIES]

    def spec(self, op: Op):
        from repro.engine.mc import McMetricSpec

        if op.args[0] == "drnm":
            return McMetricSpec(metric="drnm", beta=MC_BETA, assist=MC_READ_ASSIST,
                                metric_name=f"DRNM[{MC_READ_ASSIST}]")
        return McMetricSpec(metric="wlcrit", beta=MC_BETA,
                            wlcrit_upper_bound=self.wlcrit_upper_bound, metric_name="WLcrit")

    def run(self, op: Op):
        from repro.devices.library import clear_device_cache
        from repro.engine.mc import MonteCarloBatch
        from repro.engine.scheduler import EngineConfig

        _, samples, batch, root = op.args
        self._count += 1
        clear_device_cache()
        config = EngineConfig(
            jobs=1, retries=2, root_seed=root, run_key=f"perfbench:{op.key}:{root}",
            checkpoint_path=f"{self._tmp.name}/study{self._count}.jsonl",
            collect_telemetry=self.traced,
        )
        result = MonteCarloBatch(self.spec(op)).run(samples, seed=root, engine=config,
                                                    batch_size=batch)
        return [float(v) for v in result.samples]

    def check(self, op: Op) -> str | None:
        """No NaN (engine failure) samples, and one sample re-derived on
        the scalar path is bit-identical to the batch value."""
        from repro.engine.jobs import TaskContext, derive_seed
        from repro.engine.mc import evaluate_mc_sample, sample_scales

        values = op.value
        bad = [i for i, v in enumerate(values) if math.isnan(v)]
        if bad:
            return f"{op.key}: engine failed samples {bad}"
        _, samples, _, root = op.args
        k = random.Random(f"{root}:check").randrange(samples)
        spec = self.spec(op)
        scales = sample_scales(spec.variation, root, k, spec.transistor_count)
        scalar = evaluate_mc_sample((spec, scales), TaskContext(index=k, seed=derive_seed(root, k)))
        if not (scalar == values[k] or (math.isinf(scalar) and math.isinf(values[k]))):
            return f"{op.key} sample {k}: batch {values[k]!r} != scalar {scalar!r}"
        return None

    def p50_s(self, corrected: list[float], ops: list[Op]) -> float:
        """Mean of the two study kinds' median time per sample.  The
        median over the studies themselves would shift with the number
        of rounds a run completes (the middle of two studies or of four)."""
        per_kind: dict[str, list[float]] = {}
        for c, op in zip(corrected, ops):
            per_kind.setdefault(op.key, []).append(c / op.size)
        return statistics.mean(statistics.median(v) for v in per_kind.values())

    def wlcrit_results(self, op: Op) -> int:
        return op.size if op.args[0] == "wlcrit" else 0

    def replay(self, round0: list[Op]) -> list[tuple[Op, Op]]:
        # The first two samples of round 0's DRNM study, as a batch of two.
        timed = next(op for op in round0 if op.args[0] == "drnm")
        return [(self._study("drnm", 2, 2, timed.args[3], 0), timed)]

    def replay_matches(self, value, timed: Op) -> bool:
        return digest(value) == digest(timed.value[: len(value)])

    def close(self) -> None:
        if hasattr(self, "_tmp"):
            self._tmp.cleanup()


# -- array_column --------------------------------------------------------------


class ArrayColumn(Workload):
    """``compile_array`` + ``measure_array`` on the inward-pTFET cell.

    A round is all nine (rows, scenario) cases in an order drawn from
    the seed, so every run measures the same cases: with rounds of
    three, the cases a run ended on moved the median by several percent.
    """

    name = "array_column"

    def import_layers(self) -> None:
        super().import_layers()
        from repro.circuit import sparse  # noqa: F401
        from repro.experiments import designs  # noqa: F401
        from repro.sram.compiler import column, measure  # noqa: F401

    def prepare(self) -> None:
        self.golden = common.load_golden()["arrays"]
        from repro.experiments.designs import proposed_cell
        from repro.sram.array import ArrayGeometry
        from repro.sram.compiler import compile_array, measure_array

        measure_array(compile_array(proposed_cell(), ArrayGeometry(rows=8, columns=4),
                                    common.ARRAY_VDD, scenario="read"))

    def round(self, r: int) -> list[Op]:
        ops = [Op(key, (rows, scenario), round=r) for key, rows, scenario in common.array_cases()]
        round_rng(self.seed, r).shuffle(ops)
        return ops

    def run(self, op: Op):
        _, measurement = common.run_array_case(*op.args)
        return common.array_record(measurement)

    def check(self, op: Op) -> str | None:
        expected = self.golden[op.key]
        rel, abs_ = common.ARRAY_TOLERANCE
        wrong = [f for f in common.ARRAY_FIELDS
                 if not common.close(op.value[f], expected[f], rel, abs_)]
        if wrong:
            return f"{op.key}: {', '.join(wrong)} differ from golden"
        return None

    def replay(self, round0: list[Op]) -> list[tuple[Op, Op]]:
        return super().replay([min(round0, key=lambda op: op.args[0])])


WORKLOADS = {w.name: w for w in (CellMetrics, McBatch, ArrayColumn)}
