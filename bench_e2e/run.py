#!/usr/bin/env python3
"""End-to-end benchmark: SNB short reads over loopback TCP under a live
update stream.

Run from the repository root:

  python3 bench_e2e/run.py --workload snb_mixed --seed 1 --seconds 20 --trace 0
  python3 bench_e2e/run.py --workload all        # every workload, one after another
  python3 bench_e2e/run.py --smoke

The first call configures and builds bench_e2e (CMake, Release) into
$CARGO_TARGET_DIR or .bench_build; later calls rebuild incrementally.
Each run writes its full report, with provenance, to .bench_out/ (and the
spans of a traced run next to it), prints every metric it measured, and
ends with one JSON line: correct, attempted, failed and the metrics that
BENCHMARK.json lists for the trace mode (end_to_end for --trace 0,
per_layer for --trace 1).

--smoke runs every workload at a tiny scale in both trace modes and checks
that every listed metric is emitted with its unit and that no request
failed.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170

# The full end-to-end table. Metrics a workload does not produce
# print as n/a; BENCHMARK.json gates the subset every workload produces.
E2E_TABLE = [
    ("setup_s", "s"), ("qps", "1/s"),
    ("point_p50_us", "us"), ("point_p99_us", "us"),
    ("fanout_p50_us", "us"), ("fanout_p99_us", "us"),
    ("scan_p50_us", "us"), ("scan_p99_us", "us"),
    ("append_rows_per_s", "rows/s"), ("append_p50_us", "us"), ("append_p99_us", "us"),
    ("error_rate", "ratio"), ("stored_bytes_per_row", "B"), ("peak_rss_mb", "MiB"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the binary (both incremental); returns its path
    or None."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary_dir = os.path.join(build_dir, "bench_e2e")
    cfg = subprocess.run(
        ["cmake", "-S", BENCH_DIR, "-B", binary_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, stderr=sys.stderr)
    if cfg.returncode != 0:
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(["cmake", "--build", binary_dir, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    binary = os.path.join(binary_dir, "bench_e2e")
    return binary if made.returncode == 0 and os.path.exists(binary) else None


def read_first(path, prefix, sep=":"):
    """The value after `sep` on the first line of `path` starting with
    `prefix`."""
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(sep, 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_identity():
    """The git commit (marked +dirty with local changes) when the root is a
    clone, else a digest of the sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                   capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def provenance(binary, seed):
    l3 = "unknown"
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            l3 = f.read().strip()
    except OSError:
        pass
    cache = os.path.join(os.path.dirname(binary), "CMakeCache.txt")
    build_type = read_first(cache, "CMAKE_BUILD_TYPE:", sep="=")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "l3_cache": l3,
        "commit": source_identity(),
        "build_type": build_type,
        "seed": seed,
    }


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns the binary's JSON report or None."""
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    spans_file = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    if trace:
        cmd += ["--spans-out", spans_file]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"bench_e2e: {workload} timed out after {RUN_TIMEOUT_S}s")
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"bench_e2e: {workload} exited {proc.returncode} without a report")
        return None
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"bench_e2e: unparsable report: {lines[-1][:200]}")
        return None
    report["spans_file"] = spans_file if trace else None
    return report


def summarize_spans(path):
    """Per span name and phase: count, median duration and median self time
    (duration minus the time its child spans cover), in microseconds."""
    groups = {}
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            g = groups.setdefault(f"{s['phase']}/{s['name']}", ([], []))
            g[0].append((s["end_ns"] - s["start_ns"]) / 1e3)
            g[1].append(s["self_us"])
    return {k: {"count": len(d), "median_us": statistics.median(d),
                "median_self_us": statistics.median(self_us)}
            for k, (d, self_us) in sorted(groups.items())}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def missing_metrics(report, wanted):
    """Names in `wanted` ((name, unit) pairs) absent or with another unit."""
    got = report["metrics"]
    return [n for n, u in wanted if n not in got or got[n]["unit"] != u]


def print_summary(report, prov):
    print(f"# bench_e2e {report['workload']} seed={report['seed']} "
          f"trace={report['trace']} sf={report['scale_factor']}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    metrics = report["metrics"]
    if report["trace"] == 0:
        for name, unit in E2E_TABLE:
            m = metrics.get(name)
            shown = f"{m['value']:.6g} {m['unit']}" if m else f"n/a {unit}"
            print(f"{name:<28} {shown}")
        steal = metrics.get("bench.cpu_steal_share")
        if steal:
            print(f"# host cpu steal during the timed phase: {steal['value']:.2%}")
    else:
        for name in sorted(metrics):
            print(f"{name:<36} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print("# samples " + json.dumps(report.get("samples", {}), sort_keys=True))


def smoke(binary, spec):
    ok = True
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            report = run_binary(binary, w["name"], 1, 1, trace, smoke=True)
            if report is None:
                print(f"FAIL {w['name']} trace={trace}: no report")
                ok = False
                continue
            wanted = [(m["name"], m["unit"]) for m in spec[key]]
            wanted.append(("error_rate", "ratio"))
            missing = missing_metrics(report, wanted)
            err = report["metrics"].get("error_rate", {}).get("value")
            good = not missing and err == 0 and report["correct"]
            ok &= good
            print(f"{'PASS' if good else 'FAIL'} {w['name']} trace={trace}: "
                  f"{len(wanted) - len(missing)}/{len(wanted)} metrics, "
                  f"error_rate={err}" + (f", missing {missing}" if missing else ""))
    return 0 if ok else 1


def run_one(binary, spec, workload, seed, seconds, trace):
    """Runs one workload, records its result file, prints its summary and
    the result line; returns the exit code."""
    report = run_binary(binary, workload, seed, seconds, trace)
    if report is None:
        return 1
    prov = provenance(binary, seed)
    out_path = os.path.join(ROOT, ".bench_out",
                            f"result-{workload}-seed{seed}-trace{trace}.json")
    result = {"provenance": prov, "report": report}
    if trace:
        result["spans"] = summarize_spans(report["spans_file"])
    with open(out_path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print_summary(report, prov)

    key = "per_layer" if trace else "end_to_end"
    wanted = [(m["name"], m["unit"]) for m in spec[key]]
    missing = missing_metrics(report, wanted)
    if missing:
        log(f"bench_e2e: report lacks {missing}")
        return 1
    metrics = {n: report["metrics"][n] for n, _ in wanted}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}), flush=True)
    return 0 if report["correct"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        log("bench_e2e: build failed")
        return 1
    spec = load_spec()
    if args.smoke:
        return smoke(binary, spec)
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    codes = [run_one(binary, spec, w, args.seed, args.seconds, args.trace) for w in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
