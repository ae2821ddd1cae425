#!/usr/bin/env python3
"""Perf ratchet for the cluster-path fast path.

Compares the fast-vs-recompute speedups in a freshly generated
``bench_cluster_path`` JSON (the nightly ``--big --check-fastpath``
artifact) against the committed baseline ``BENCH_cluster_path.json``
and fails if any shape regressed below ``RATCHET * committed``.

The committed file is the small-shape run refreshed whenever the fast
path materially changes; the nightly run is the million-request
variant. Absolute numbers differ across machines and shape sizes, so
the ratchet compares *speedups* (a machine-relative ratio), not
requests/sec, and allows 10 % slack for run-to-run noise.

When the fresh JSON carries a ``telemetry_overhead`` object (the
traced re-run of a shape divided by its untraced run), each ratio is
additionally gated at ``TELEMETRY_BUDGET`` — telemetry must stay
within 5 % of telemetry-off throughput. A ``classes_overhead`` object
(``bench_slo_classes``: the uniform-class classes-enabled run divided
by the classes-off run, which bounds the dormant class layer's cost
from above) is gated the same way at ``CLASSES_BUDGET``.

Work-counter gate: each result row's ``cluster.plan.full_walks`` (a
deterministic count, identical on every machine and run) must not
exceed the committed row with the same (shape, mode, trace), with zero
slack. Rows without a committed match, such as the nightly ``--big``
rows, are skipped. A fresh row that lacks the counter its committed
twin carries fails, and so does a ``--work-only`` run that compares
no row at all (every shape renamed, or no committed counters): a gate
that checked nothing must not pass. Any increase must be explained
and the committed JSON refreshed.

A JSON with no ``speedup`` object (e.g. ``BENCH_slo_classes.json``)
skips the speedup ratchet and the work-counter gate and checks only
its overhead objects.

Usage:
    ci/check_perf_ratchet.py [--work-only] NEW_JSON [COMMITTED_JSON]

--work-only runs the work-counter gate alone: exact on any machine, so
the per-PR CI job applies it where the machine-relative ratios would
be noise.

Exit status 1 on regression or malformed input, 0 otherwise.
"""

import json
import sys

RATCHET = 0.9  # tolerate 10% noise; anything below is a regression
TELEMETRY_BUDGET = 1.05  # traced run may cost at most 5% extra time
CLASSES_BUDGET = 1.05  # enabled-but-uniform class layer, same budget


def load_doc(path):
    with open(path) as fh:
        return json.load(fh)


WORK_COUNTER = "cluster.plan.full_walks"


def row_counter(row, name):
    for stat in row.get("stats", []):
        if stat.get("name") == name:
            return stat.get("value")
    return None


def check_work_counters(new_doc, committed_doc):
    """Exact gate: no row may do more full walks than its committed
    twin, and a fresh row may not drop the counter its twin carries.
    Returns (failed, number of rows compared)."""
    committed = {}
    for row in committed_doc.get("results", []):
        value = row_counter(row, WORK_COUNTER)
        if value is not None:
            committed[(row["shape"], row["mode"], row["trace"])] = value
    failed = False
    compared = 0
    for row in new_doc.get("results", []):
        key = (row.get("shape"), row.get("mode"), row.get("trace"))
        if key not in committed:
            continue
        baseline = committed[key]
        value = row_counter(row, WORK_COUNTER)
        if value is None:
            print(
                f"WORK FAIL {key[0]} {key[1]}: {WORK_COUNTER} missing "
                f"(committed {baseline:.0f})"
            )
            failed = True
            continue
        compared += 1
        verdict = "ok" if value <= baseline else "WORK FAIL"
        print(
            f"{verdict} {key[0]} {key[1]}: {WORK_COUNTER} {value:.0f} vs "
            f"committed {baseline:.0f}"
        )
        if value > baseline:
            failed = True
    return failed, compared


def load_speedups(doc, path):
    speedups = doc.get("speedup")
    if not isinstance(speedups, dict) or not speedups:
        raise SystemExit(f"{path}: no 'speedup' object — malformed bench JSON")
    return speedups


def main(argv):
    work_only = len(argv) > 1 and argv[1] == "--work-only"
    if work_only:
        argv = argv[:1] + argv[2:]
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        return 1
    new_path = argv[1]
    committed_path = argv[2] if len(argv) == 3 else "BENCH_cluster_path.json"

    new_doc = load_doc(new_path)
    if work_only:
        failed, compared = check_work_counters(
            new_doc, load_doc(committed_path)
        )
        if compared == 0:
            print(
                f"WORK FAIL: no row of {new_path} matched a committed "
                f"{WORK_COUNTER} row in {committed_path}"
            )
            failed = True
        if failed:
            print(
                f"\n{WORK_COUNTER} grew, went missing, or matched no row "
                f"against {committed_path}; explain the change and refresh "
                "the committed JSON."
            )
        return 1 if failed else 0

    failed = False
    has_overheads = isinstance(
        new_doc.get("telemetry_overhead"), dict
    ) or isinstance(new_doc.get("classes_overhead"), dict)
    if "speedup" in new_doc or not has_overheads:
        committed_doc = load_doc(committed_path)
        new = load_speedups(new_doc, new_path)
        committed = load_speedups(committed_doc, committed_path)
        for shape, baseline in sorted(committed.items()):
            current = new.get(shape)
            if current is None:
                print(f"RATCHET FAIL {shape}: shape missing from {new_path}")
                failed = True
                continue
            floor = RATCHET * baseline
            verdict = "ok" if current >= floor else "RATCHET FAIL"
            print(
                f"{verdict} {shape}: speedup {current:.3f}x vs committed "
                f"{baseline:.3f}x (floor {floor:.3f}x)"
            )
            if current < floor:
                failed = True
        if check_work_counters(new_doc, committed_doc)[0]:
            failed = True

    for key, label, budget in (
        ("telemetry_overhead", "telemetry overhead", TELEMETRY_BUDGET),
        ("classes_overhead", "classes overhead", CLASSES_BUDGET),
    ):
        overhead = new_doc.get(key)
        if isinstance(overhead, dict):
            for shape, ratio in sorted(overhead.items()):
                verdict = "ok" if ratio <= budget else "RATCHET FAIL"
                print(
                    f"{verdict} {label} on {shape}: {ratio:.3f}x "
                    f"(budget {budget:.2f}x)"
                )
                if ratio > budget:
                    failed = True

    if failed:
        print(
            "\nfast-path speedup regressed below 0.9x of the committed "
            "baseline, a work counter grew, or an overhead budget was "
            "exceeded; investigate before merging (or refresh "
            f"{committed_path} if the regression is intended)."
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
