#!/usr/bin/env python3
"""The full run and the comparison behind run.sh and compare.sh.

run      every workload in its own process, untraced then traced, `--repeat`
         times; prints each metric line as it arrives and writes
         benchmarks/out/result.json.
compare  two result.json files: medians, ratio with its base, bound, verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_ROUNDS = 3
# Recorded, never gated: claims served from another worker's chunk depend
# on OS scheduling.
UNGATED_COUNTS = {"fleet.grid_steals"}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def sh(*cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT).stdout.strip()
    except OSError:
        return ""


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rustc": sh("rustc", "--version") or "unknown",
        "commit": sh("git", "rev-parse", "HEAD") or "not a git checkout",
    }


def one_process(binary, workload, seed, trace, smoke):
    """Runs one workload process; echoes its lines; returns the parsed run."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    cmd += ["--rounds", str(SMOKE_ROUNDS)] if smoke else ["--seconds", str(spec()["run_seconds"])]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    run = {"ok": proc.returncode == 0, "metrics": {}, "digest": None, "rounds": 0}
    for line in lines[:-1]:
        print(line)
        part = line.split()
        if part[0] == "metric":
            run["metrics"][part[1]] = {"value": float(part[3]), "unit": part[4]}
        elif part[0] == "digest":
            run["digest"] = part[2]
            run["rounds"] = int(part[3].split("=")[1])
    try:
        last = json.loads(lines[-1])
        run["ok"] &= last["correct"] and last["failed"] == 0
        run["attempted"], run["failed"] = last["attempted"], last["failed"]
    except (IndexError, ValueError, KeyError):
        run["ok"] = False
    return run


def cmd_run(args):
    bin_dir = os.environ.get("LEDGER_BIN")
    if not bin_dir:
        sys.exit("run through benchmarks/run.sh, which builds the binaries first")
    bin_dir = os.path.join(ROOT, bin_dir)
    workloads = [w["name"] for w in spec()["workloads"]]
    names = [args.workload] if args.workload else workloads
    if any(n not in workloads for n in names):
        sys.exit(f"--workload must be one of {', '.join(workloads)}")
    result = {
        "machine": machine(),
        "seed": args.seed,
        "smoke": args.smoke,
        "repeat": args.repeat,
        "workloads": {},
    }
    ok = True
    for name in names:
        w = {"digest": [], "rounds": [], "failed_share": [], "end_to_end": {}, "per_layer": {}}
        for _ in range(args.repeat):
            for trace, kind, binary in ((0, "end_to_end", "ledger"), (1, "per_layer", "ledger-traced")):
                run = one_process(os.path.join(bin_dir, binary), name, args.seed, trace, args.smoke)
                if not run["ok"]:
                    print(f"FAILED CHECK: {name} --trace {trace}", file=sys.stderr)
                    ok = False
                for metric, m in run["metrics"].items():
                    cell = w[kind].setdefault(metric, {"unit": m["unit"], "values": []})
                    cell["values"].append(m["value"])
                if trace == 0:
                    w["digest"].append(run["digest"])
                    w["rounds"].append(run["rounds"])
                    w["failed_share"].append(run.get("failed", 0) / max(run.get("attempted", 1), 1))
        if len(set(w["digest"])) != 1 or len(set(w["rounds"])) != 1:
            print(f"FAILED CHECK: {name} digests differ between repeats: {w['digest']}", file=sys.stderr)
            ok = False
        result["workloads"][name] = w
    m = result["machine"]
    print(f"machine nproc={m['nproc']} cpu={m['cpu']!r} rustc={m['rustc']!r} commit={m['commit']}")
    out = os.path.join(HERE, "out", "result.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(out, ROOT)}")
    sys.exit(0 if ok else 1)


def spread(values):
    """Distance between the quartiles as a share of the median; None when
    there are too few runs to have quartiles, or the median is 0."""
    median = statistics.median(values)
    if len(values) < 4 or median == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def verdict(a, b, better, bound):
    """`a` and `b` are lists of one metric's values on one workload."""
    ma, mb = statistics.median(a), statistics.median(b)
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if any(s > bound for s in spreads):
        return "unresolved"
    change = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
    if change > bound:
        return "regressed"
    if change < -bound:
        return "improved"
    return "unchanged"


def cmd_compare(args):
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    bad = 0

    # Anything simulated must repeat exactly: say so first, and loudly.
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            continue
        if a["seed"] == b["seed"] and wa["rounds"] == wb["rounds"] and set(wa["digest"]) != set(wb["digest"]):
            print(f"DIGEST DIFFERS  {name}: {wa['digest'][0]} -> {wb['digest'][0]}")
            bad += 1
        if set(wa["failed_share"] + wb["failed_share"]) != {0}:
            print(f"FAILED WORK     {name}: failed_share {wa['failed_share']} -> {wb['failed_share']}")
            bad += 1
        for metric, ca in wa["per_layer"].items():
            cb = wb["per_layer"].get(metric)
            if ca["unit"] != "count" or cb is None or metric in UNGATED_COUNTS or a["seed"] != b["seed"]:
                continue
            if set(ca["values"]) != set(cb["values"]):
                print(f"COUNT DIFFERS   {metric} {name}: {ca['values'][0]} -> {cb['values'][0]}")
                bad += 1
    if a["seed"] != b["seed"]:
        print(f"note: seeds differ ({a['seed']} vs {b['seed']}); digests and counts not compared")

    print(f"{'metric':<34} {'workload':<15} {'A median':>12} {'B median':>12} {'B/A':>7} {'bound':>6} "
          f"{'spreadA':>8} {'spreadB':>8}  verdict")
    fmt = lambda s: "-" if s is None else f"{s:.3f}"
    for kind in ("end_to_end", "per_layer"):
        for name in a["workloads"]:
            wa, wb = a["workloads"][name], b["workloads"].get(name)
            if wb is None:
                continue
            for metric, ca in wa[kind].items():
                cb = wb[kind].get(metric)
                if cb is None or ca["unit"] == "count":
                    continue
                ma, mb = statistics.median(ca["values"]), statistics.median(cb["values"])
                ratio = mb / ma if ma else float("nan")
                if metric in bounds:
                    bound = bounds[metric]["bound"]
                    v = verdict(ca["values"], cb["values"], bounds[metric]["better"], bound)
                    bad += v in ("regressed", "unresolved")
                    bound = f"{bound:.2f}"
                else:
                    v, bound = "", "-"
                print(f"{metric:<34} {name:<15} {ma:>12.5g} {mb:>12.5g} {ratio:>7.3f} {bound:>6} "
                      f"{fmt(spread(ca['values'])):>8} {fmt(spread(cb['values'])):>8}  {v}")
    print("ratios are B/A: base A =", args.a)
    sys.exit(1 if bad else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seed", type=int, default=8)
    r.add_argument("--workload")
    r.add_argument("--repeat", type=int, default=1)
    r.add_argument("--smoke", action="store_true", help=f"{SMOKE_ROUNDS} rounds per workload")
    r.set_defaults(func=cmd_run)
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    c.set_defaults(func=cmd_compare)
    args = p.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
