"""The measured pipeline, its output check, and the measurement loops.

Import this module only after ``src`` is on ``sys.path`` (see run.py).  One
closed-loop client, with no threads, processes one document at a time the way
``opine --by-spaces --trace --json`` does: parse, process_document with the
normative default rule order, text rendering of every sentence, JSON export.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from opine import annotations, composition, graph, render, rules

import calibration
import workloads
from tracing import Tracer, layer_bindings

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

CONFIGS = {
    "default": rules.Config(),
    "extended": rules.Config(extended_belief_spaces=True),
}
WORKLOAD_CONFIG = {"corpus": "default", "wide": "default", "closure": "extended"}

WARMUP_S = 1.0
MIN_DOCS = 100         # p90 needs at least ten documents beyond it
MAX_MEASURE_S = 120.0  # keeps a run under three minutes if documents get slow
SETUP_SAMPLES = 15
TRACE_CORPUS_ROUNDS = 4
TRACE_WIDE_DOCS = 16

_SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[2])
from calibration import calibration_s
before = calibration_s()
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import opine
from opine.annotations import parse_lexicon
with open(sys.argv[3], encoding="utf-8") as f:
    parse_lexicon(f.read(), "base.lex")
elapsed = time.perf_counter() - start
print(elapsed, before, calibration_s(), opine.__file__)
"""


# -- one document -------------------------------------------------------------

def run_document(text: str, name: str, lex, cfg):
    """Process one document end to end; return (results, text view, JSON)."""
    doc = annotations.parse_document(text, name)
    results = rules.process_document(doc, lex, cfg)
    shown = []
    for result in results:
        shown.append(render.render_graph(result.graph))
        shown.append(render.render_by_spaces(result))
        shown.append(render.render_trace(result))
    return results, "".join(shown), render.dumps(results)


def inventory_digest(results) -> str:
    """Digest of every sentence's structural inventory, in sentence order."""
    h = hashlib.sha256()
    for result in results:
        for key in render.structural_inventory(result.graph):
            h.update(key.encode("utf-8"))
            h.update(b"\n")
        h.update(b"\x1e")
    return h.hexdigest()[:16]


def load_lexicon():
    return annotations.parse_lexicon(workloads.LEXICON_PATH.read_text(encoding="utf-8"),
                                     "base.lex")


def load_reference(config: str) -> dict[str, str]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[config]


class Checker:
    """Runs documents and counts the ones that raise or differ from the reference."""

    def __init__(self, lex, config: str):
        self.lex = lex
        self.cfg = CONFIGS[config]
        self.expected = load_reference(config)
        self.attempted = 0
        self.failed = 0

    def attempt(self, name: str, text: str) -> float:
        """Run one document; return its pipeline time in seconds."""
        self.attempted += 1
        start = perf_counter()
        try:
            results, _, _ = run_document(text, name, self.lex, self.cfg)
        except Exception:  # a failing document is counted, never fatal
            elapsed = perf_counter() - start
            self._fail(name, traceback.format_exc())
            return elapsed
        elapsed = perf_counter() - start
        self.verify(name, text, results)
        return elapsed

    def verify(self, name: str, text: str, results) -> None:
        got = inventory_digest(results)
        want = self.expected.get(workloads.text_digest(text))
        if got != want:
            self._fail(name, f"inventory {got}, reference {want}\n")

    def _fail(self, name: str, detail: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"document {name} failed: {detail}", file=sys.stderr, end="")


def workload_documents(workload: str) -> list[tuple[str, str]]:
    if workload == "wide":
        return workloads.wide_pool()
    return workloads.corpus_documents()


def batches(workload: str, seed: int):
    """Endless seeded batches: a corpus round, or one `wide` document."""
    for order in workloads.shuffled_rounds(workload_documents(workload), seed):
        if workload == "wide":
            yield from ([doc] for doc in order)
        else:
            yield order


# -- untraced run -------------------------------------------------------------

def speed_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two calibrations into a
    time on a machine where calibration_s() takes REFERENCE_S."""
    return calibration.REFERENCE_S / ((before + after) / 2)


def measure_setup(src: Path) -> float:
    """Median time to import opine and parse the lexicon in a fresh process.

    Each child calibrates just before and just after, and its time is scaled
    by those calibrations.
    """
    expected_file = (src / "opine" / "__init__.py").resolve()
    bench_dir = str(Path(__file__).resolve().parent)
    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first one writes bytecode caches
        out = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CHILD, str(src), bench_dir,
             str(workloads.LEXICON_PATH)],
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout.split(maxsplit=3)
        if Path(out[3].strip()).resolve() != expected_file:
            raise RuntimeError(f"set-up child imported opine from {out[3].strip()}")
        if i:
            samples.append(float(out[0]) * speed_scale(float(out[1]), float(out[2])))
    return statistics.median(samples)


def measure(workload: str, seed: int, seconds: float, src: Path) -> dict:
    setup_s = measure_setup(src)
    checker = Checker(load_lexicon(), WORKLOAD_CONFIG[workload])
    stream = batches(workload, seed)

    warm_start = perf_counter()
    while perf_counter() - warm_start < WARMUP_S:
        for name, text in next(stream):
            checker.attempt(name, text)

    calibrations: list[float] = []
    batch_latencies: list[list[float]] = []
    timed = 0
    start = perf_counter()
    while True:
        calibrations.append(calibration.calibration_s())
        batch_latencies.append([checker.attempt(name, text) for name, text in next(stream)])
        timed += len(batch_latencies[-1])
        elapsed = perf_counter() - start
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and timed >= MIN_DOCS):
            break
    calibrations.append(calibration.calibration_s())

    # Each batch lies between calibrations i and i + 1.
    raw = [t for batch in batch_latencies for t in batch]
    latencies = [t * speed_scale(calibrations[i], calibrations[i + 1])
                 for i, batch in enumerate(batch_latencies) for t in batch]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {
        "docs_per_s": (len(latencies) / math.fsum(latencies), "1/s"),
        "latency_ms_p50": (deciles[4] * 1000, "ms"),
        "latency_ms_p90": (deciles[8] * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": (1 - checker.failed / checker.attempted, "share"),
    }
    print(f"{workload}: {len(latencies)} documents timed in {elapsed:.1f} s; "
          f"{checker.failed} of {checker.attempted} attempted failed")
    print(f"  unscaled {len(raw) / math.fsum(raw):.3f} docs/s; median calibration "
          f"{statistics.median(calibrations) * 1000:.3f} ms against "
          f"{calibration.REFERENCE_S * 1000} ms")
    return result_line(checker.attempted, checker.failed, metrics)


def result_line(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


# -- traced run ---------------------------------------------------------------

def _count_bindings(counts, bindings) -> None:
    counts["bindings"] += len(bindings)


def _count_fire(counts, outcome) -> None:
    counts["productive_fires"] += bool(outcome.created)


def _count_fixpoint(counts, result) -> None:
    counts["iterations"] += result.iterations
    counts["nodes"] += len(result.graph.nodes)
    for block in result.block_reports():
        counts["blocks " + block.cause] += 1


def _count_json(counts, exported) -> None:
    counts["json_bytes"] += len(exported.encode("utf-8"))


HOOKS = {
    "rules.match": _count_bindings,
    "rules.fire": _count_fire,
    "rules.fixpoint": _count_fixpoint,
    "render.json": _count_json,
}


def scaling_sweep(checker: Checker) -> list[tuple[int, int, float]]:
    """(n, nodes, median fixpoint ms) for each sweep size, untraced."""
    rows = []
    for n, text in workloads.sweep_documents():
        sentence = annotations.parse_document(text, f"sweep-{n}").sentences[0]
        times = []
        for _ in range(max(3, 32 // n)):  # more repetitions for the quick sizes
            g = graph.build_input_graph(sentence, checker.lex, graph.IdAllocator())
            composition.run_composition(g)
            start = perf_counter()
            result = rules.run_to_fixpoint(g, checker.cfg)
            times.append(perf_counter() - start)
        checker.attempted += 1
        checker.verify(f"sweep-{n}", text, [result])
        rows.append((n, len(result.graph.nodes), statistics.median(times) * 1000))
    return rows


def loglog_slope(points: list[tuple[float, float]]) -> float:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics over whole passes of a fixed, seeded document list.

    Each document runs untraced and then traced, so that drift in machine
    speed cancels out of the overhead ratio.  Passes repeat until `seconds`
    have gone by; counts per document are the same for any number of passes.
    """
    checker = Checker(load_lexicon(), WORKLOAD_CONFIG[workload])
    stream = batches(workload, seed)
    if workload == "wide":
        docs = [next(stream)[0] for _ in range(TRACE_WIDE_DOCS)]
    else:
        docs = [doc for _ in range(TRACE_CORPUS_ROUNDS) for doc in next(stream)]

    checker.attempt(*docs[0])  # warm-up
    tracer = Tracer(HOOKS)
    bindings = layer_bindings()
    untraced_s = traced_s = 0.0
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for name, text in docs:
            untraced_s += checker.attempt(name, text)
            with tracer.rebound(bindings):
                traced_s += checker.attempt(name, text)
            tracer.end_document()
        passes += 1
    sweep = scaling_sweep(checker)

    d = len(docs) * passes
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts

    def ms(span):
        return (self_s[span] * 1000 / d, "ms/doc")

    def per_doc(value):
        return (value / d, "count/doc")

    metrics = {
        "annotations.parse_ms": ms("annotations.parse"),
        "graph.build_ms": ms("graph.build"),
        "composition.compose_ms": ms("composition.compose"),
        "rules.match_ms": ms("rules.match"),
        "rules.match_calls": per_doc(calls["rules.match"]),
        "rules.bindings": per_doc(counts["bindings"]),
        "rules.fire_ms": ms("rules.fire"),
        "rules.fires": per_doc(calls["rules.fire"]),
        "rules.productive_fires": per_doc(counts["productive_fires"]),
        "rules.fire_yield": (counts["productive_fires"] / calls["rules.fire"], "ratio"),
        "rules.iterations": per_doc(counts["iterations"]),
        "rules.evidence_check_ms": ms("rules.evidence_check"),
        "rules.assumption_basis_ms": ms("rules.assumption_basis"),
        "rules.check_consistency_ms": ms("rules.check_consistency"),
        "rules.fixpoint_self_ms": ms("rules.fixpoint"),
        "rules.blocks_evidence": per_doc(counts["blocks evidence"]),
        "rules.blocks_space_contradiction": per_doc(counts["blocks space-contradiction"]),
        "rules.blocks_negative_belief_path": per_doc(counts["blocks negative-belief-path"]),
        "rules.blocks_no_assumption_basis": per_doc(counts["blocks no-assumption-basis"]),
        "spaces.extend_ms": ms("spaces.extend"),
        "spaces.extend_calls": per_doc(calls["spaces.extend"]),
        "spaces.would_contradict_ms": ms("spaces.would_contradict"),
        "spaces.would_contradict_calls": per_doc(calls["spaces.would_contradict"]),
        "spaces.index_rebuild_ms": ms("spaces.index_rebuild"),
        "spaces.index_rebuilds": per_doc(calls["spaces.index_rebuild"]),
        "spaces.index_hit_ratio": (
            1 - calls["spaces.index_rebuild"] / calls["spaces.space_index"], "ratio"),
        "spaces.place_ms": ms("spaces.place"),
        "spaces.place_calls": per_doc(calls["spaces.place"]),
        "render.text_ms": ms("render.text"),
        "render.json_ms": ms("render.json"),
        "render.json_bytes": (counts["json_bytes"] / d, "B/doc"),
        "graph.nodes": per_doc(counts["nodes"]),
        "rules.fixpoint_scaling_exponent": (
            loglog_slope([(nodes, ms_) for _, nodes, ms_ in sweep]), "slope"),
        "trace.overhead_ratio": (untraced_s / traced_s, "ratio"),
    }

    print(f"{workload}: {passes} passes over {len(docs)} documents; "
          f"layer self time per document")
    print(f"  {'span':<26}{'calls/doc':>11}{'self ms':>10}{'total ms':>10}{'self %':>8}")
    for span in sorted(self_s, key=self_s.get, reverse=True):
        print(f"  {span:<26}{calls[span] / d:>11.1f}{self_s[span] * 1000 / d:>10.3f}"
              f"{tracer.total_s[span] * 1000 / d:>10.3f}"
              f"{100 * self_s[span] / traced_s:>7.1f}%")
    outside = traced_s - math.fsum(self_s.values())
    print(f"  {'(outside every span)':<26}{'':>11}{outside * 1000 / d:>10.3f}{'':>10}"
          f"{100 * outside / traced_s:>7.1f}%")
    print(f"  untraced {d / untraced_s:.2f} docs/s, traced {d / traced_s:.2f} docs/s")
    print(f"{workload}: scaling sweep ({WORKLOAD_CONFIG[workload]} config)")
    print(f"  {'n':>4}{'nodes':>8}{'fixpoint ms':>14}")
    for n, nodes, fixpoint_ms in sweep:
        print(f"  {n:>4}{nodes:>8}{fixpoint_ms:>14.2f}")
    return result_line(checker.attempted, checker.failed, metrics)
