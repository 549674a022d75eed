"""One fresh process that sets up and runs one workload.

Usage (from the repository root; ``run.py`` starts it)::

    python3 bench/worker.py SPEC.json --mode setup|run|trace --seconds N

``setup`` imports the package, loads the base and runs one warm-up op of
each kind, then reports its set-up time.  ``run`` does the same and then
repeats the op cycle in a closed loop, one client and no threads, checking
every op against the oracle outside the timed region.  About every 25 ms
it runs the calibration kernel of ``calib.py`` between two ops, and it
reports each time both as measured (``raw``) and scaled to the reference
speed; set-up is scaled by kernel runs just before and just after it.  ``trace`` loads the base traced, runs one untraced cycle, then one
traced cycle, and reports per-layer metrics.  The last line of standard
output is a JSON report.
"""

from __future__ import annotations

import bisect
import io
import json
import math
import re
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from calib import REF_NS, sample

MIN_SAMPLES = 100  # p90 then has at least ten samples beyond it
SLICE_NS = 25_000_000  # elapsed time between two kernel runs in the timed loop
WINDOW_NS = 250_000_000  # an op is scaled by the kernel runs this close to it
SETUP_SAMPLES = 10  # kernel runs before and after set-up
HARD_CAP_S = 100.0
ERROR_LINE = re.compile(r"[^:]*:(\d+):\d+: error: ")
KNOWN_CAUSES = {
    "long-phrase": "a lexicon phrase longer than four tokens is never activated "
                   "(activate tries n-grams up to max_ngram=4)",
}


# -- bringing outputs into the oracle's shape -----------------------------------


def canon(t):
    if hasattr(t, "predicate"):
        return [t.predicate] + [canon(a) for a in t.args]
    if hasattr(t, "unit"):
        return {"unit": t.unit, "text": t.text}
    if isinstance(t, str):
        return t
    return "na"


def canon_group(g):
    return [g.index, [canon(t) for t in g.events], g.goto_target]


def canon_item(item):
    if hasattr(item, "role_index"):
        return [item.script, item.role_index, item.role_script,
                [canon(t) for t in item.events]]
    if hasattr(item, "script"):
        return [item.script, [canon(t) for t in item.events]]
    if hasattr(item, "goto_target"):
        return canon_group(item)
    return canon(item)


def canon_answer(a):
    if a.payload is None:
        payload = None
    elif isinstance(a.payload, (list, tuple)):
        payload = [canon_item(i) for i in a.payload]
    else:
        payload = canon(a.payload)
    return {"kind": a.kind.value, "subject": a.subject, "payload": payload,
            "sources": list(a.sources), "notes": len(a.notes)}


# -- ops -----------------------------------------------------------------------


class Runner:
    def __init__(self, skb, cli, spec):
        self.skb = skb
        self.cli = cli
        self.spec = spec
        self.kb = None
        self.tracer = None

    def load(self):
        self.kb = self.skb.KnowledgeBase.from_paths(self.spec["paths"])

    def run(self, op):
        skb, kb, kind = self.skb, self.kb, op["kind"]
        if "argv" in op:
            out, err = io.StringIO(), io.StringIO()
            code = self.cli.run(op["argv"], out, err)
            return code, out.getvalue(), err.getvalue()
        if kind == "recognize":
            acts = skb.activate(op["text"], kb, skb.Language(op["language"]))
            return acts, skb.score_scripts(acts, kb, generalization=op["generalization"])
        if kind == "timeline":
            return skb.timeline(skb.build_script(kb, op["script"]), op["limit"])
        if kind == "census":
            return skb.census(kb)
        if kind == "summary":
            return skb.summary(kb)
        return skb.answer(kb, skb.parse_question(kb, op["question"]))

    def check(self, op, result) -> str | None:
        """None when the output matches the oracle, else the failure cause."""
        expect, kind = op["expect"], op["kind"]
        if "argv" in op:
            ok = _check_cli(expect, *result)
            if self.tracer is not None:
                self.tracer.count("cli.bytes_out", len(result[1].encode("utf-8")))
        elif kind == "recognize":
            acts, results = result
            actual = {"activations": [[a.concept, a.start, a.end] for a in acts.items],
                      "results": [[r.script, r.score, list(r.evidence)] for r in results]}
            ok = actual == expect
            if not ok and op["long"]:
                spans = {(a.start, a.end) for a in acts.items}
                missing = [i for i in expect["activations"] if (i[1], i[2]) not in spans]
                if missing and all(op["text"][s:e].count(" ") >= 4 for _, s, e in missing):
                    return "long-phrase"
        elif kind == "timeline":
            ok = [canon_group(g) for g in result] == expect
        elif kind == "census":
            ok = [[r.script, r.subevents, r.roles, r.places, r.other] for r in result] == expect
        elif kind == "summary":
            ok = [result.scripts, result.avg_subevents, result.avg_roles, result.avg_places,
                  result.avg_other] == expect
        else:
            ok = canon_answer(result) == expect
        if ok:
            return None
        return "long-phrase" if op.get("long") and "argv" in op else "mismatch"


def _check_cli(expect, code, out, err) -> bool:
    if code != expect["code"]:
        return False
    if "out" in expect and out != expect["out"]:
        return False
    if "json" in expect:
        got = json.loads(out)
        if len(got.pop("notes")) != expect["notes"] or got != expect["json"]:
            return False
    elif "notes" in expect:
        if sum(line.startswith("note: ") for line in err.splitlines()) != expect["notes"]:
            return False
    if "stats" in expect:
        census, local = expect["stats"]
        head, _, rest = out.partition("\n\n")
        rows = [line.split() for line in rest.splitlines()
                if line.startswith("local database")]
        if head + "\n" != census or rows != [local]:
            return False
    if "errors" in expect:
        diags = json.loads(out)["diagnostics"]
        got = sorted([d["line"], d["code"]] for d in diags if d["severity"] == "error")
        if got != expect["errors"]:
            return False
    if "error_lines" in expect:
        got = sorted({int(m.group(1)) for line in out.splitlines()
                      if (m := ERROR_LINE.match(line))})
        if got != expect["error_lines"]:
            return False
    return True


def _attempt(runner, op):
    """Run one op; returns (latency ns, result or exception)."""
    t = time.perf_counter_ns()
    try:
        result = runner.run(op)
    except Exception as e:  # a failing op is counted, and the loop goes on
        return time.perf_counter_ns() - t, e
    return time.perf_counter_ns() - t, result


def _verdict(runner, op, result) -> str | None:
    if isinstance(result, Exception):
        return f"exception {type(result).__name__}"
    return runner.check(op, result)


def warmups(ops) -> list:
    seen, out = set(), []
    for op in ops:
        if op["kind"] not in seen:
            seen.add(op["kind"])
            out.append(op)
    return out


def percentile(sorted_values, q) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def cycle(runner, ops, first_op_id=None):
    lat, causes = [], []
    for k, op in enumerate(ops):
        if first_op_id is not None:
            runner.tracer.op = first_op_id + k
        dt, result = _attempt(runner, op)
        lat.append(dt)
        causes.append(_verdict(runner, op, result))
    return lat, causes


class Calibration:
    """Kernel times taken between ops, one for every ``SLICE_NS`` of
    elapsed time, each stamped with the time it was taken."""

    def __init__(self):
        self.at: list[int] = []
        self.ns: list[int] = []
        self.due = 0

    def take(self, n: int = 1) -> None:
        for _ in range(n):
            self.at.append(time.perf_counter_ns())
            self.ns.append(sample())
        self.due = self.at[-1] + SLICE_NS

    def maybe(self) -> None:
        if time.perf_counter_ns() >= self.due:
            self.take()

    def scale(self, start: int, end: int) -> float:
        """REF_NS over the mean kernel time within WINDOW_NS of the op."""
        mid = (start + end) // 2
        lo = bisect.bisect_left(self.at, mid - WINDOW_NS)
        hi = bisect.bisect_right(self.at, mid + WINDOW_NS)
        near = self.ns[lo:hi] or self.ns
        return REF_NS * len(near) / sum(near)


def main(argv) -> int:
    spec_path, mode = argv[0], argv[argv.index("--mode") + 1]
    seconds = float(argv[argv.index("--seconds") + 1])
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    ops = spec["ops"]
    cal = Calibration()
    cal.take(SETUP_SAMPLES)
    t0 = time.perf_counter()
    sys.path.insert(0, "src")
    import scriptkb
    import scriptkb.cli
    runner = Runner(scriptkb, scriptkb.cli, spec)
    tracer = None
    if mode == "trace":
        from tracing import FIELDS, Tracer
        tracer = runner.tracer = Tracer()
        tracer.install()
        runner.load()
        tracer.uninstall()
    elif spec["workload"] != "cli":
        runner.load()
    first = [_attempt(runner, op) for op in warmups(ops)]
    setup_raw_s = time.perf_counter() - t0
    cal.take(SETUP_SAMPLES)
    report = {"setup_s": setup_raw_s * REF_NS * len(cal.ns) / sum(cal.ns),
              "setup_raw_s": setup_raw_s}
    if mode == "setup":
        print(json.dumps(report))
        return 0
    bad = [c for op, (_, r) in zip(warmups(ops), first)
           if (c := _verdict(runner, op, r)) and c not in KNOWN_CAUSES]

    if mode == "trace":
        untraced, _ = cycle(runner, ops)
        tracer.install()
        lat, causes = cycle(runner, ops, first_op_id=1)
        tracer.uninstall()
        failed = sum(c is not None for c in causes)
        metrics = tracer.metrics(len(ops))
        # both cycles complete the same ops, so the ratio of their ops_per_s
        # is the inverse ratio of their times
        metrics["trace.overhead_ratio"] = sum(untraced) / sum(lat)
        tracer.write(Path(spec_path).parent / "spans.bin")
        report.update(attempted=len(ops), failed=failed, causes=_tally(causes),
                      metrics=metrics, spans=len(tracer.spans) // FIELDS)
    else:
        latencies, starts, all_causes = [], [], []
        start, cycles = time.perf_counter(), 0
        while True:
            c0 = time.perf_counter()
            for op in ops:
                starts.append(time.perf_counter_ns())
                dt, result = _attempt(runner, op)
                latencies.append(dt)
                all_causes.append(_verdict(runner, op, result))
                cal.maybe()
            cycles += 1
            now = time.perf_counter()
            elapsed = now - start
            if elapsed > HARD_CAP_S or (len(latencies) >= MIN_SAMPLES
                                        and elapsed + (now - c0) > seconds):
                break
        cal.take()
        scaled = [dt * cal.scale(t, t + dt) for t, dt in zip(starts, latencies)]
        # attempted and failed count the distinct ops of one cycle, so they
        # repeat exactly for one seed; every later cycle must agree with it
        verdicts = all_causes[:len(ops)]
        unstable = sum(c != verdicts[k % len(ops)] for k, c in enumerate(all_causes))
        correct_ops = len(latencies) - sum(c is not None for c in all_causes)
        report.update(
            attempted=len(ops), failed=sum(c is not None for c in verdicts),
            causes=_tally(verdicts), unstable=unstable, cycles=cycles,
            samples=len(latencies), **_timings(scaled, correct_ops),
            raw=_timings(latencies, correct_ops),
            kernel_ms=[min(cal.ns) / 1e6, statistics.median(cal.ns) / 1e6,
                       max(cal.ns) / 1e6],
            calibrations=len(cal.ns),
            by_kind=_by_kind(ops, scaled, all_causes))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["unexplained_warmup"] = len(bad)
    print(json.dumps(report))
    return 0


def _timings(latencies, correct_ops) -> dict:
    ordered = sorted(latencies)
    p90 = percentile(ordered, 0.9)
    return {"ops_per_s": correct_ops / (sum(latencies) / 1e9),
            "p50_ms": percentile(ordered, 0.5) / 1e6, "p90_ms": p90 / 1e6,
            "beyond_p90": sum(v > p90 for v in ordered)}


def _tally(causes) -> dict:
    return dict(Counter(c for c in causes if c is not None))


def _by_kind(ops, latencies, causes) -> dict:
    """Samples, p50 and failures of each op kind, for the report."""
    groups: dict[str, list] = {}
    for k, (dt, cause) in enumerate(zip(latencies, causes)):
        groups.setdefault(ops[k % len(ops)]["kind"], []).append((dt, cause))
    return {kind: {"samples": len(v),
                   "p50_ms": percentile(sorted(d for d, _ in v), 0.5) / 1e6,
                   "failed": sum(c is not None for _, c in v)}
            for kind, v in sorted(groups.items())}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
