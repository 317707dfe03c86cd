#!/usr/bin/env python3
"""Build and run the benchmark; repeat it over seeds; compare two result files.

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      Build perfbench/main.exe from source, run one workload, print its
      result object as the last line of standard output.

  python3 perfbench/run.py sweep --out FILE [--seeds 1-10] [--seconds S]
                                 [--trace 0|1]
      Run each workload once per seed, append every result to FILE (one
      JSON object per line) and print the per-metric spread.

  python3 perfbench/run.py compare BASE.jsonl NEW.jsonl
      Per workload and metric: medians, quartiles and the change from
      BASE to NEW.  A metric whose spread exceeds its bound on either
      side is marked unresolved.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = "BENCHMARK.json"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def spec():
    with open(BENCH) as f:
        return json.load(f)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a gripps checkout")
    # No shared cache: the build reads and writes inside the checkout only.
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "--cache=disabled",
         "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(workload, seed, seconds, trace):
    """Run main.exe once; return (exit code, stdout lines)."""
    done = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True,
    )
    return done.returncode, done.stdout.splitlines()


def complete(result, trace):
    """Lay the measured metrics over BENCHMARK.json's list of their kind:
    every listed name once, in the listed order.  A per-layer metric the
    workload does not measure reads 0; a metric that is not listed, or
    listed with another unit, and a missing end-to-end metric are errors."""
    kind = "per_layer" if trace else "end_to_end"
    listed = spec()[kind]
    units = {m["name"]: m["unit"] for m in listed}
    got = result["metrics"]
    for name, m in got.items():
        if units.get(name) != m["unit"]:
            sys.exit(f"perfbench: metric {name} ({m['unit']}) is not in the {kind} list of {BENCH}")
    missing = [name for name in units if name not in got]
    if missing and not trace:
        sys.exit(f"perfbench: end-to-end metrics not measured: {missing}")
    result["metrics"] = {m["name"]: got.get(m["name"], {"value": 0, "unit": m["unit"]})
                         for m in listed}
    return result


def cmd_run(args):
    build()
    code, lines = run_once(args.workload, args.seed, args.seconds, args.trace)
    if code == 0:
        lines[-1] = json.dumps(complete(json.loads(lines[-1]), args.trace))
    print("\n".join(lines), flush=True)
    sys.exit(code)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    """Median and quartiles, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def load(path):
    """{workload: {metric: [values]}} from a result file."""
    out = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            metrics = out.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return out


def bounds():
    s = spec()
    return {m["name"]: m for m in s["end_to_end"] + s["per_layer"]}


def cmd_sweep(args):
    build()
    names = [w["name"] for w in spec()["workloads"]]
    failed = False
    with open(args.out, "a") as out:
        for w in names:
            for seed in seed_list(args.seeds):
                code, lines = run_once(w, seed, args.seconds, args.trace)
                if code != 0 or not lines:
                    print(f"{w} seed {seed}: exit {code}", file=sys.stderr)
                    failed = True
                    continue
                result = complete(json.loads(lines[-1]), args.trace)
                out.write(json.dumps({"workload": w, "seed": seed, "trace": args.trace,
                                      "result": result}) + "\n")
                out.flush()
                print(f"{w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                    if args.trace == 0), file=sys.stderr)
    meta = bounds()
    for w, metrics in load(args.out).items():
        if w not in names:
            continue
        for name, values in metrics.items():
            bound = meta.get(name, {}).get("bound")
            if bound is None:
                continue
            s = spread(values)
            flag = "ok" if s <= bound / 3 else ("wide" if s <= bound else "UNSTEADY")
            print(f"{w:14} {name:14} n={len(values):2} median={statistics.median(values):.6g} "
                  f"spread={s:.4f} bound={bound} {flag}")
    sys.exit(1 if failed else 0)


def cmd_compare(args):
    base, new = load(args.base), load(args.new)
    meta = bounds()
    print(f"{'workload':14} {'metric':32} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'delta':>8}  verdict")
    for w in sorted(set(base) & set(new)):
        for name in sorted(set(base[w]) & set(new[w])):
            a, b = base[w][name], new[w][name]
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            m = meta.get(name, {})
            bound, better = m.get("bound"), m.get("better", "lower")
            if bound is None:
                verdict = "-"
            elif spread(a) > bound or spread(b) > bound:
                verdict = "unresolved"
            else:
                worse = delta if better == "lower" else -delta
                verdict = "worse" if worse > bound else ("better" if worse < -bound else "same")
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            print(f"{w:14} {name:32} {fmt(qa):>34} {fmt(qb):>34} {delta:+8.2%}  {verdict}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("sweep", "compare"):
        p = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "sweep":
            p.add_argument("--out", required=True)
            p.add_argument("--seeds", default="1-10")
            p.add_argument("--seconds", type=int, default=spec()["run_seconds"])
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
            cmd_sweep(p.parse_args(sys.argv[2:]))
        else:
            p.add_argument("base")
            p.add_argument("new")
            cmd_compare(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    cmd_run(p.parse_args())


if __name__ == "__main__":
    main()
