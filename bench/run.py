"""Benchmark of the scriptkb library and CLI; see bench/README.md.

Usage, from the repository root::

    python3 bench/run.py --workload cli|recognize|ask --seed N --seconds S --trace 0|1

The run generates the workload's base from the seed (not timed), checks
that it loads cleanly and round-trips through ``serialize``, then starts
fresh worker processes: several that only set up, for ``setup_s``, and
one that runs the timed closed loop (``--trace 0``) or the traced cycle
(``--trace 1``).  It prints a header and every metric by name, and as the
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Work files go to ``.bench_work/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import METRICS  # noqa: E402
from worker import KNOWN_CAUSES  # noqa: E402
from workloads import build  # noqa: E402

SETUP_PROBES = 4  # extra fresh processes that only set up
E2E = {"setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms", "p90_ms": "ms",
       "peak_rss_mb": "MB"}


def sanity(spec, base) -> None:
    """Refuse a base that would silently shrink the workload: it must load
    with no error diagnostics, hold every generated script, and each of its
    files must reparse to equal blocks after ``serialize``."""
    sys.path.insert(0, str(ROOT / "src"))
    from scriptkb import KnowledgeBase, parse_database, serialize
    kb = KnowledgeBase.from_paths(spec["paths"])
    errors = [d.render() for d in kb.diagnostics if d.severity == "error"]
    if errors:
        raise SystemExit("generated base has errors:\n" + "\n".join(errors[:10]))
    missing = set(base.scripts) - set(kb.script_concepts())
    if missing:
        raise SystemExit(f"{len(missing)} generated scripts did not load")
    for rel in base.files:
        text = (ROOT / rel).read_text(encoding="utf-8")
        blocks = parse_database(text, filename=rel).blocks
        again = parse_database(serialize(blocks), filename=rel)
        if again.diagnostics or again.blocks != blocks:
            raise SystemExit(f"{rel}: serialize does not round-trip")


def spawn(spec_path, mode, seconds) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), str(spec_path),
           "--mode", mode, "--seconds", str(seconds)]
    timeout = 15 if mode == "setup" else 140  # the whole run must end within 180 s
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"worker failed ({mode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    # look no further than the checkout, and read no user or system config
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["cli", "recognize", "ask"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scripts", type=int, default=None,
                   help="base size in scripts (default: the workload's own)")
    args = p.parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "scriptkb" / "__init__.py").exists():
        print("bench: src/scriptkb not found under the repository root", file=sys.stderr)
        return 2

    work = Path(".bench_work") / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec, base = build(args.workload, args.seed, work, Path("."), args.scripts)
    sanity(spec, base)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    lines, size = base.lines_and_bytes(ROOT)
    header = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "commit": git_commit(), "scripts": len(base.scripts),
              "concepts": len(base.concepts), "lines": lines, "bytes": size,
              "ops_per_cycle": len(spec["ops"])}
    if args.trace:
        report = spawn(spec_path, "trace", args.seconds)
        metrics = {name: {"value": report["metrics"][name], "unit": unit}
                   for name, (unit, _) in METRICS.items()}
        header["spans"] = report["spans"]
    else:
        probes = [spawn(spec_path, "setup", args.seconds) for _ in range(SETUP_PROBES)]
        report = spawn(spec_path, "run", args.seconds)
        probes.append(dict(report))
        report["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        report["raw"]["setup_s"] = statistics.median(p["setup_raw_s"] for p in probes)
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in E2E.items()}
        header.update(samples=report["samples"], beyond_p90=report["beyond_p90"],
                      cycles=report["cycles"], setup_samples=len(probes),
                      calibrations=report["calibrations"], kernel_ms=report["kernel_ms"])
    unexplained = {c: n for c, n in report["causes"].items() if c not in KNOWN_CAUSES}
    correct = (not unexplained and report["unexplained_warmup"] == 0
               and report.get("unstable", 0) == 0)
    result = {"correct": correct, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    (work / "result.json").write_text(
        json.dumps({"header": header, "report": report, "result": result}, indent=2),
        encoding="utf-8")
    shutil.rmtree(work / "base")  # large, and regenerated from the seed

    print("header " + json.dumps(header))
    if not args.trace:
        n, raw = report["samples"], report["raw"]
        print("times scaled to the reference speed; as measured in brackets")
        print(f"setup_s      {report['setup_s']:10.4f} s    ({raw['setup_s']:.4f}) "
              f"median of {len(probes)} set-ups")
        print(f"ops_per_s    {report['ops_per_s']:10.2f} 1/s  ({raw['ops_per_s']:.2f}) "
              f"{n} ops")
        print(f"p50_ms       {report['p50_ms']:10.3f} ms   ({raw['p50_ms']:.3f}) {n} samples")
        print(f"p90_ms       {report['p90_ms']:10.3f} ms   ({raw['p90_ms']:.3f}) {n} samples, "
              f"{report['beyond_p90']} beyond")
        print(f"fail_ratio   {report['failed'] / report['attempted']:10.4f} -    "
              f"{report['failed']} of {report['attempted']} distinct ops, "
              f"{report['unstable']} timed ops disagreeing with them")
        print(f"peak_rss_mb  {report['peak_rss_mb']:10.1f} MB")
        lo, mid, hi = report["kernel_ms"]
        print(f"kernel       {mid:10.3f} ms   min {lo:.3f} max {hi:.3f}, "
              f"{report['calibrations']} calibrations")
        for kind, k in report["by_kind"].items():
            print(f"  {kind:16s} {k['samples']:5d} samples  p50 {k['p50_ms']:9.3f} ms  "
                  f"failed {k['failed']}")
    else:
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:14.4f} {m['unit']}")
    for cause, count in report["causes"].items():
        why = KNOWN_CAUSES.get(cause, "not a known defect")
        print(f"failed {count:5d}  {cause}: {why}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
