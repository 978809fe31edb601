#!/usr/bin/env python3
"""perfbench: gemcheck's time to verdict, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload check-heavy --seed 1 --seconds 25 --trace 0

It builds gemcheck and the in-process harness (perfbench/harness) with dune,
runs the workload for about --seconds, checks every verdict, and prints a
provenance line and then, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, measured on real gemcheck
processes; with --trace 1 they are the per-layer ones, measured in-process.
See perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import signal
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads as W  # noqa: E402

GEMCHECK = os.path.join("_build", "default", "bin", "gemcheck.exe")
HARNESS = os.path.join("_build", "default", "perfbench", "harness", "gembench.exe")
RUN_DIR = ".bench_run"
# Every process the benchmark starts is killed at this many seconds into
# the run, so a hung verdict fails the run instead of outliving it.
RUN_LIMIT = 170
STARTED = time.monotonic()


def remaining():
    return max(1.0, RUN_LIMIT - (time.monotonic() - STARTED))


class BenchError(Exception):
    """The benchmark cannot produce a result (exit code 2, no result line)."""


def child_env():
    # GEM_* variables change engine defaults; every run uses the CLI defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("GEM_")}


def check_checkout():
    for path in ("dune-project", "BENCHMARK.json", os.path.join("bin", "gemcheck.ml"), "lib"):
        if not os.path.exists(path):
            raise BenchError(f"not the root of a gemcheck source checkout: {path} is missing")


def build():
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/gemcheck.exe", "./perfbench/harness/gembench.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=child_env(), timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"dune build failed: {e}")
    if p.returncode != 0:
        raise BenchError("dune build failed:\n" + p.stdout.decode(errors="replace")[-4000:])


def helper(mode, inputs, sequences=(), flags=()):
    """Run the in-process harness on `inputs` and return its JSON object."""
    lines = [f"input {i.name}\t{i.line}" for i in inputs]
    lines += ["seq " + ",".join(map(str, sequence)) for sequence in sequences]
    # Its own process group, so a timeout also takes down any daemon it spawned.
    p = subprocess.Popen([HARNESS, mode, *flags], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, env=child_env(),
                         start_new_session=True)
    try:
        out, err = p.communicate("\n".join(lines) + "\n", timeout=remaining())
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise BenchError(f"harness {mode} did not finish in time")
    if p.returncode != 0:
        raise BenchError(f"harness {mode} exited {p.returncode}: {err.strip()}")
    return json.loads(out)


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# One-shot verdicts: one gemcheck process per input


def run_gemcheck(inp):
    """Spawn `gemcheck ARGV --json`; return wall seconds, peak RSS (KiB),
    exit code, the parsed report (None if unreadable) and its text."""
    t0 = time.perf_counter()
    p = subprocess.Popen([GEMCHECK, *inp.argv, "--json"], stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, env=child_env())
    killer = threading.Timer(remaining(), p.kill)
    killer.start()
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    killer.cancel()
    p.returncode = code = os.waitstatus_to_exitcode(status)
    try:
        report = json.loads(out)
    except ValueError:
        report = None
    return wall, usage.ru_maxrss, code, report, out.decode(errors="replace").rstrip("\n")


EXIT_CODES = {"verified": 0, "falsified": 1, "inconclusive": 2}


def one_shot_pass(inputs, rng, tally):
    """Every input once, in a seeded order. Returns (sum of walls, rows)."""
    order = list(inputs)
    rng.shuffle(order)
    rows = {}
    for inp in order:
        wall, rss, code, report, raw = run_gemcheck(inp)
        status = report.get("status") if isinstance(report, dict) else None
        tally["attempted"] += 1
        tally["walls"].append(wall)
        tally["rss_kib"] = max(tally["rss_kib"], rss)
        if status not in EXIT_CODES or EXIT_CODES[status] != code:
            verdict = "error"
            tally["errors"].append(f"{inp.name}: exit code {code}, report {report!r:.200}")
        else:
            verdict = W.judge(inp.known, status)
            if verdict == "contradiction":
                tally["errors"].append(f"{inp.name}: {status} contradicts known answer {inp.known}")
            elif verdict == "correct":
                tally["decided"] += 1
        rows[inp.name] = {"status": status, "wall_s": wall, "verdict": verdict, "report": report,
                          "raw": raw}
    return sum(r["wall_s"] for r in rows.values()), rows


def new_tally():
    return {"attempted": 0, "decided": 0, "walls": [], "rss_kib": 0, "errors": []}


def input_rows(inputs, per_pass):
    rows = []
    for inp in inputs:
        seen = [p[inp.name] for p in per_pass]
        rows.append({"name": inp.name, "known": inp.known, "source": inp.source,
                     "status": seen[0]["status"],
                     "wall_s": statistics.median(r["wall_s"] for r in seen),
                     "verdict": seen[0]["verdict"]})
    return rows


def one_shot_untraced(inputs, seed, seconds):
    setup = helper("setup", inputs)
    setup_s = sum(r["parse_s"] + r["build_s"] for r in setup["setup"])
    rng = random.Random(seed)
    tally = new_tally()
    sums, per_pass = [], []
    start = time.perf_counter()
    # Passes repeat while another one fits in the time.
    while not sums or (time.perf_counter() - start) * (len(sums) + 1) / len(sums) <= seconds:
        total, rows = one_shot_pass(inputs, rng, tally)
        sums.append(total)
        per_pass.append(rows)
    walls = tally["walls"]
    metrics = {
        "verdict_s": statistics.median(sums),
        "decided_share": tally["decided"] / tally["attempted"],
        "success_share": 1 - len(tally["errors"]) / tally["attempted"],
        "peak_rss_mb": tally["rss_kib"] / 1024,
        "setup_s": setup_s,
        "serve_p50_ms": 1000 * statistics.median(walls),
        "serve_p99_ms": 1000 * nearest_rank(walls, 0.99),
        "serve_rps": len(walls) / sum(walls),
    }
    extra = {"ocaml": setup["ocaml"], "passes": len(sums), "pass_s": sums,
             "samples": len(walls), "rows": input_rows(inputs, per_pass)}
    errors = tally["errors"]
    return tally["attempted"], len(errors), errors, metrics, extra


# ---------------------------------------------------------------------------
# Serving: a gemcheck serve daemon and two closed-loop clients


def sequences_for(seed, inputs):
    sequences = W.request_sequences(seed, len(inputs))
    # Self-test of seed handling: the draw is a function of the seed alone.
    if sequences != W.request_sequences(seed, len(inputs)):
        raise BenchError("the request sequences are not reproducible from their seed")
    if sequences == W.request_sequences(seed + 1, len(inputs)):
        raise BenchError("seeds %d and %d draw the same request sequences" % (seed, seed + 1))
    return sequences


def pool_verdicts(inputs, rows, errors):
    """Score each pool entry's one-shot status against its known answer.
    Returns the number of decided entries, the requests sent for
    contradicted entries (each a failure), and report rows."""
    decided = contradicted = 0
    out = []
    for inp, row in zip(inputs, rows):
        verdict = W.judge(inp.known, row["status"])
        if verdict == "contradiction":
            errors.append(f"{inp.name}: {row['status']} contradicts known answer {inp.known}")
            contradicted += row.get("requests", 1)
        elif verdict == "correct":
            decided += 1
        out.append({"name": inp.name, "known": inp.known, "source": inp.source,
                    "status": row["status"], "verdict": verdict,
                    **{k: row[k] for k in ("wall_s", "requests", "explored", "runs") if k in row}})
    return decided, contradicted, out


def serve_untraced(inputs, seed, seconds):
    sequences = sequences_for(seed, inputs)
    top = helper("serve", inputs, sequences, ["--gemcheck", GEMCHECK, "--seconds", str(seconds)])
    out = top["serve"]
    errors = list(out["errors"])
    requests = len(out["latency_s"])
    decided, contradicted, rows = pool_verdicts(inputs, out["inputs"], errors)
    failed = len(out["errors"]) + contradicted
    if out["hits"] + out["misses"] + out["coalesced"] + len(out["errors"]) != requests:
        errors.append("hits + misses + coalesced does not add up to the requests sent")
    errors += [f"daemon exited {c}" for c in out["daemon_exits"] if c != 0]
    latencies = out["latency_s"]
    metrics = {
        "verdict_s": statistics.median(out["pass_s"]),
        "decided_share": decided / len(inputs),
        "success_share": 1 - failed / requests,
        # One daemon per pass: the median daemon's peak.
        "peak_rss_mb": statistics.median(out["rss_kib"]) / 1024,
        "setup_s": statistics.median(out["setup_s"]),
        "serve_p50_ms": 1000 * statistics.median(latencies),
        "serve_p99_ms": 1000 * nearest_rank(latencies, 0.99),
        "serve_rps": requests / sum(out["pass_s"]),
    }
    extra = {"ocaml": top["ocaml"], "passes": len(out["pass_s"]), "pass_s": out["pass_s"],
             "samples": requests, "hits": out["hits"], "misses": out["misses"],
             "coalesced": out["coalesced"], "explorations_shared": out["explorations_shared"],
             "sequences": {"count": len(sequences), "length": len(sequences[0]),
                           "sha256": hashlib.sha256(str(sequences).encode()).hexdigest()[:16]},
             "rows": rows}
    return requests, failed, errors, metrics, extra


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics from the in-process harness


def traced(workload, inputs, seed, seconds):
    sequence = sequences_for(seed, inputs)[0]
    errors = []
    attempted = 0
    cli = {}
    if workload in W.ONE_SHOT:
        # The untraced verdicts the traced run must reproduce.
        tally = new_tally()
        _, cli = one_shot_pass(inputs, random.Random(seed), tally)
        errors += tally["errors"]
        attempted += tally["attempted"]
    os.makedirs(RUN_DIR, exist_ok=True)
    spans = os.path.join(RUN_DIR, f"spans-{workload}.jsonl")
    out = helper("trace", inputs, [sequence], ["--seconds", str(seconds), "--spans", spans])
    trace = out["trace"]
    errors += trace["errors"]
    attempted += len(inputs) * trace["passes"] + len(sequence)
    for inp, row in zip(inputs, trace["inputs"]):
        if inp.name in cli:
            report = cli[inp.name]["report"] or {}
            coverage = report.get("coverage", {})
            seen = (report.get("status"), coverage.get("configs_explored"),
                    coverage.get("runs_enumerated"))
            if seen != (row["status"], row["explored"], row["runs"]):
                errors.append(f"{inp.name}: traced {row['status']}/{row['explored']}/{row['runs']}"
                              f" but gemcheck {seen[0]}/{seen[1]}/{seen[2]}")
            if cli[inp.name]["raw"] != row["body"]:
                errors.append(f"{inp.name}: gemcheck --json differs from Runner.run's report")
    _, _, rows = pool_verdicts(inputs, [r["one_shot"] for r in trace["inputs"]], errors)
    for row, t in zip(rows, trace["inputs"]):
        row["untraced_s"] = t["untraced_s"]
    extra = {"ocaml": out["ocaml"], "passes": trace["passes"], "spans": spans, "rows": rows}
    return attempted, len(errors), errors, trace["metrics"], extra


# ---------------------------------------------------------------------------


def git_rev():
    """HEAD of the git repository rooted here, or "unknown"."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                             timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    # A checkout nested inside another repository is not that repository.
    if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath("."):
        return out[1]
    return "unknown"


def provenance():
    digest = hashlib.sha256()
    for top in ("bin", "lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".py")) or f == "dune":
                    path = os.path.join(root, f)
                    digest.update(path.encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return {"git_rev": git_rev(), "source_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0))}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="only check that the request draw is reproducible from its seed")
    args = ap.parse_args()
    if args.self_test:
        for seed in range(20):
            sequences_for(seed, W.SERVE_POOL)
        print("self-test ok: equal seeds draw equal sequences, different seeds different ones")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        check_checkout()
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        build()
        inputs = W.WORKLOADS[args.workload]
        if args.trace:
            attempted, failed, errors, metrics, extra = traced(args.workload, inputs, args.seed, args.seconds)
        elif args.workload in W.ONE_SHOT:
            attempted, failed, errors, metrics, extra = one_shot_untraced(inputs, args.seed, args.seconds)
        else:
            attempted, failed, errors, metrics, extra = serve_untraced(inputs, args.seed, args.seconds)
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError("no value for " + ", ".join(missing))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **provenance(), **extra, "errors": errors[:50]}
    print(json.dumps({"perfbench": report}))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
