#!/usr/bin/env python3
"""Bench regression gate for the fused-kernel / tensor-pool / serving reports.

Compares freshly generated bench reports against committed baselines.
Because CI machines differ from the machine that produced the baseline,
the gate compares the *relative* columns, which are stable across hosts:

  - fused-vs-reference speedups may not fall more than --threshold below
    the committed value (a fused kernel quietly losing its win is the
    regression this catches);
  - fit_pool_hit_rate may not fall below --hit-rate-floor;
  - optionally (--parallel), every multi-thread record in the parallel
    report must keep speedup >= (1 - threshold), i.e. parallelism must
    never make an op meaningfully slower than its baseline;
  - optionally (--resilience), the sharded-serving chaos report
    (BENCH_resilience.json) is gated on its behavioral invariants: no
    arm may report query errors, the blackhole arm must keep mean
    coverage >= --coverage-floor and every faulted arm must keep class
    recall@10 >= 0.95x the healthy arm. Latency ratios are printed for
    context only (CI boxes are too noisy to gate tail latency);
  - optionally (--net), the HTTP front-end report (BENCH_net.json) is
    gated on behavior: the nominal arm must complete with zero 5xx
    responses, zero transport errors, and p99 under
    --net-p99-ceiling-us; overload arms must stay transport-clean
    (the server sheds with 429s instead of hanging or crashing), with
    their latencies printed as context. With --net-expect-recorder the
    report must also carry the time-series flight recorder's summary:
    at least one sample taken and zero ticks dropped during the
    nominal arm (a drop there means the sampler stalled on an
    unsaturated box);
  - optionally (--serve-quant), the quantized serving report
    (BENCH_serve_quant.json) is gated on its acceptance invariants:
    every arm keeps recall@10 >= --quant-recall-floor after exact
    re-rank, the compressed formats respect their bytes/entity
    ceilings relative to f32 (f16 <= 0.55x, int8 <= 0.30x — these are
    arithmetic properties of the block layout, host-independent), and
    int8 must keep qps_per_gb >= --quant-qps-per-gb-floor x the f32
    arm's (the whole point of scanning compressed rows).

Absolute ns_per_iter values are printed for context but never gated.
Exit code 0 = pass, 1 = regression, 2 = usage/data error.
"""

import argparse
import json
import sys


def load_records(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    records = doc.get("records")
    if not isinstance(records, list):
        print(f"error: {path} has no 'records' array", file=sys.stderr)
        sys.exit(2)
    by_key = {}
    for r in records:
        key = (r.get("op"), r.get("size"), r.get("threads"))
        by_key[key] = r
    return by_key


def compare_reports(baseline, current, args, failures):
    """Generic relative gate: every baseline record must exist in the
    current run and keep its speedup within --threshold; *_rate records
    are floor-gated instead."""
    for key, base in sorted(baseline.items()):
        op, size, threads = key
        cur = current.get(key)
        if cur is None:
            failures.append(f"{op}|{size}|{threads}: missing from current run")
            continue
        base_ratio = base.get("speedup", 0.0)
        cur_ratio = cur.get("speedup", 0.0)
        note = (f"{op}|{size}|{threads}: speedup {cur_ratio:.3f} "
                f"(baseline {base_ratio:.3f}), "
                f"{cur.get('ns_per_iter', 0.0):.0f} ns/iter")
        if op == "fit_pool_hit_rate":
            if cur_ratio < args.hit_rate_floor:
                failures.append(
                    f"{note} -- pool hit rate below {args.hit_rate_floor}")
            else:
                print(f"ok   {note}")
            continue
        if op.endswith("_ref") or base_ratio <= 0.0:
            # Reference-side records anchor the ratios; nothing to gate.
            print(f"info {note}")
            continue
        if cur_ratio < base_ratio * (1.0 - args.threshold):
            failures.append(
                f"{note} -- regressed more than {args.threshold:.0%}")
        else:
            print(f"ok   {note}")


def load_resilience(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    arms = doc.get("resilience")
    if not isinstance(arms, list) or not arms:
        print(f"error: {path} has no 'resilience' array", file=sys.stderr)
        sys.exit(2)
    return {a.get("arm"): a for a in arms}


def check_resilience(arms, args, failures):
    """Behavioral gate for the chaos arms: errors, coverage, recall.

    These are invariants of the resilience engine itself (retries,
    breakers, partial merges), not host-speed artifacts, so unlike the
    relative speedup gates they compare against fixed floors rather
    than a committed baseline run.
    """
    healthy = arms.get("healthy")
    if healthy is None:
        failures.append("resilience: no 'healthy' arm in report")
        return
    healthy_p99 = healthy.get("latency_p99_us", 0)
    for name, arm in sorted(arms.items()):
        errors = arm.get("errors", -1)
        coverage = arm.get("coverage_mean", 0.0)
        recall_ratio = arm.get("recall_ratio", 0.0)
        p99 = arm.get("latency_p99_us", 0)
        note = (f"resilience|{name}: errors {errors}, coverage "
                f"{coverage:.3f}, recall_ratio {recall_ratio:.3f}, "
                f"p99 {p99}us")
        ok = True
        if errors != 0:
            failures.append(f"{note} -- queries errored under faults")
            ok = False
        if name == "healthy" and coverage < 1.0:
            failures.append(f"{note} -- healthy arm lost coverage")
            ok = False
        if name == "blackhole" and coverage < args.coverage_floor:
            failures.append(
                f"{note} -- coverage below {args.coverage_floor}")
            ok = False
        if name == "delay_hedge" and coverage < 1.0:
            failures.append(
                f"{note} -- hedging failed to restore full coverage")
            ok = False
        if recall_ratio < 0.95:
            failures.append(f"{note} -- recall below 0.95x healthy")
            ok = False
        if ok:
            print(f"ok   {note}")
        if name != "healthy" and healthy_p99 > 0:
            print(f"info resilience|{name}: p99 ratio vs healthy "
                  f"{p99 / healthy_p99:.2f}x")


def load_net(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    arms = doc.get("net")
    if not isinstance(arms, list) or not arms:
        print(f"error: {path} has no 'net' array", file=sys.stderr)
        sys.exit(2)
    return {a.get("name"): a for a in arms}, doc.get("recorder")


def check_net(arms, args, failures):
    """Behavioral gate for the HTTP front-end arms.

    Nominal load must be served cleanly: every request answered, no 5xx,
    no transport errors, and tail latency under the ceiling. Overload
    arms only have to prove the front door held (admission sheds with
    429s; a hang or crash shows up as transport errors), since their
    latency is by construction unbounded on a saturated box.
    """
    nominal = arms.get("nominal")
    if nominal is None:
        failures.append("net: no 'nominal' arm in report")
    for name, arm in sorted(arms.items()):
        sent = arm.get("sent", 0)
        completed = arm.get("completed", 0)
        transport = arm.get("transport_errors", -1)
        s5xx = arm.get("status_5xx", -1)
        s429 = arm.get("status_429", 0)
        p99 = arm.get("p99_us", 0)
        note = (f"net|{name}: sent {sent}, completed {completed}, "
                f"transport_errors {transport}, 5xx {s5xx}, 429 {s429}, "
                f"p99 {p99}us")
        ok = True
        if sent <= 0:
            failures.append(f"{note} -- arm sent no requests")
            ok = False
        if transport != 0:
            failures.append(f"{note} -- transport errors (server hung, "
                            "crashed, or dropped connections)")
            ok = False
        if name == "nominal":
            if s5xx != 0:
                failures.append(f"{note} -- 5xx at nominal load")
                ok = False
            if completed != sent:
                failures.append(f"{note} -- unanswered requests at "
                                "nominal load")
                ok = False
            if p99 > args.net_p99_ceiling_us:
                failures.append(f"{note} -- p99 above ceiling "
                                f"{args.net_p99_ceiling_us:.0f}us")
                ok = False
        if ok:
            print(f"ok   {note}")
        if name != "nominal" and sent > 0:
            print(f"info net|{name}: shed rate {s429 / max(sent, 1):.2f} "
                  f"(429s under overload are the design working)")


def check_net_recorder(recorder, failures):
    """Flight-recorder gate: the bench ran a TimeSeriesRecorder beside
    the arms; it must have sampled, and must not have dropped a tick
    during the nominal arm (overload-arm drops are informational)."""
    if not isinstance(recorder, dict):
        failures.append("net: no 'recorder' object in report "
                        "(--net-expect-recorder)")
        return
    samples = recorder.get("samples", 0)
    dropped = recorder.get("dropped", 0)
    nominal_dropped = recorder.get("nominal_dropped", -1)
    note = (f"net|recorder: samples {samples}, dropped {dropped}, "
            f"nominal_dropped {nominal_dropped}")
    ok = True
    if samples <= 0:
        failures.append(f"{note} -- recorder took no samples")
        ok = False
    if nominal_dropped != 0:
        failures.append(f"{note} -- recorder dropped ticks during the "
                        "nominal arm (or did not report)")
        ok = False
    if ok:
        print(f"ok   {note}")
        if dropped > 0:
            print(f"info net|recorder: {dropped} total drops occurred "
                  "outside the nominal arm (overload; informational)")


def load_serve_quant(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    arms = doc.get("quant")
    if not isinstance(arms, list) or not arms:
        print(f"error: {path} has no 'quant' array", file=sys.stderr)
        sys.exit(2)
    return {a.get("format"): a for a in arms}


# bytes/entity ceilings relative to the f32 arm, by format. These are
# properties of the block layout (2 B/dim for f16; 1 B/dim + 4 B per
# 32-element scale block for int8), so they hold on every host.
QUANT_BYTES_CEILINGS = {"f32": 1.0, "f16": 0.55, "int8": 0.30}


def check_serve_quant(arms, args, failures):
    """Acceptance gate for the quantized serving arms: recall after
    re-rank, bytes/entity ceilings, and the int8 QPS/GB win."""
    f32 = arms.get("f32")
    if f32 is None:
        failures.append("serve_quant: no 'f32' arm in report")
        return
    for name in ("f32", "f16", "int8"):
        arm = arms.get(name)
        if arm is None:
            failures.append(f"serve_quant|{name}: arm missing from report")
            continue
        recall = arm.get("recall_at_10", 0.0)
        ratio = arm.get("bytes_ratio", 99.0)
        qps_per_gb = arm.get("qps_per_gb", 0.0)
        note = (f"serve_quant|{name}: recall@10 {recall:.4f}, "
                f"bytes/entity {arm.get('bytes_per_entity', 0.0):.1f} "
                f"({ratio:.3f}x), {arm.get('qps', 0.0):.0f} qps, "
                f"{qps_per_gb:.0f} qps/GB")
        ok = True
        if recall < args.quant_recall_floor:
            failures.append(
                f"{note} -- recall below {args.quant_recall_floor} "
                "(the exact re-rank is not holding)")
            ok = False
        if ratio > QUANT_BYTES_CEILINGS[name]:
            failures.append(
                f"{note} -- bytes/entity above the "
                f"{QUANT_BYTES_CEILINGS[name]:.2f}x f32 ceiling")
            ok = False
        if name == "int8":
            f32_qpg = f32.get("qps_per_gb", 0.0)
            win = qps_per_gb / f32_qpg if f32_qpg > 0 else 0.0
            if win < args.quant_qps_per_gb_floor:
                failures.append(
                    f"{note} -- qps/GB only {win:.2f}x f32 (floor "
                    f"{args.quant_qps_per_gb_floor}x)")
                ok = False
            else:
                print(f"info serve_quant|int8: qps/GB {win:.2f}x f32")
        if ok:
            print(f"ok   {note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline",
                    help="committed BENCH_fused.json")
    ap.add_argument("--current",
                    help="freshly generated fused report (required with "
                         "--baseline)")
    ap.add_argument("--parallel",
                    help="freshly generated BENCH_parallel.json (optional)")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed relative drop (default 0.15)")
    ap.add_argument("--hit-rate-floor", type=float, default=0.99,
                    help="minimum steady-state pool hit rate")
    ap.add_argument("--resilience",
                    help="freshly generated BENCH_resilience.json (optional)")
    ap.add_argument("--coverage-floor", type=float, default=0.70,
                    help="minimum mean coverage for the blackhole arm "
                         "(1 of 4 shards down => 0.75 expected)")
    ap.add_argument("--net",
                    help="freshly generated BENCH_net.json (optional)")
    ap.add_argument("--net-p99-ceiling-us", type=float, default=500000,
                    help="nominal-arm p99 ceiling in microseconds "
                         "(default 500ms; CI boxes are slow)")
    ap.add_argument("--net-expect-recorder", action="store_true",
                    help="require the BENCH_net.json 'recorder' summary: "
                         "samples > 0 and nominal_dropped == 0")
    ap.add_argument("--serve-quant",
                    help="freshly generated BENCH_serve_quant.json "
                         "(optional)")
    ap.add_argument("--quant-recall-floor", type=float, default=0.99,
                    help="minimum recall@10 after exact re-rank, every "
                         "format (default 0.99)")
    ap.add_argument("--quant-qps-per-gb-floor", type=float, default=2.0,
                    help="minimum int8 qps/GB as a multiple of the f32 "
                         "arm's (default 2.0)")
    args = ap.parse_args()

    if not (args.baseline or args.resilience or args.net
            or args.serve_quant):
        print("error: nothing to gate (pass --baseline/--current, "
              "--resilience, --net, or --serve-quant)", file=sys.stderr)
        return 2
    if bool(args.baseline) != bool(args.current):
        print("error: --baseline and --current go together",
              file=sys.stderr)
        return 2

    failures = []
    if args.baseline:
        compare_reports(load_records(args.baseline),
                        load_records(args.current), args, failures)

    if args.resilience:
        check_resilience(load_resilience(args.resilience), args, failures)

    if args.net:
        net_arms, net_recorder = load_net(args.net)
        check_net(net_arms, args, failures)
        if args.net_expect_recorder:
            check_net_recorder(net_recorder, failures)

    if args.serve_quant:
        check_serve_quant(load_serve_quant(args.serve_quant), args, failures)

    if args.parallel:
        for key, cur in sorted(load_records(args.parallel).items()):
            op, size, threads = key
            if not isinstance(threads, (int, float)) or threads < 2:
                continue
            ratio = cur.get("speedup", 0.0)
            note = f"{op}|{size}|{threads}: speedup {ratio:.3f}"
            if ratio < 1.0 - args.threshold:
                failures.append(
                    f"{note} -- parallel run slower than 1-thread baseline")
            else:
                print(f"ok   {note}")

    if failures:
        print("\nBENCH REGRESSIONS:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nall bench gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
