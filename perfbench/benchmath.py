"""Arithmetic of the host-performance benchmark (perfbench/README.md).

Pure functions over the raw samples uldma_perfbench prints; run.py
applies them and test_benchmath.py checks them on hand-made inputs.
"""

import math

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10
# Host ns one pass of uldma_perfbench's reference loop takes at nominal
# host speed: its median on the 4-vCPU Xeon KVM guest the bounds were
# set on (perfbench/README.md, "Host-speed reference").
REFERENCE_NOMINAL_NS = 42e6


def median(values):
    """Median of a non-empty sequence (mean of the middle two)."""
    s = sorted(values)
    if not s:
        raise ValueError("median of no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def nearest_rank(sorted_values, p):
    """Nearest-rank percentile: (value, samples strictly beyond it)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail(values, higher_is_worse=True):
    """The highest percentile with at least MIN_BEYOND samples beyond it.

    Returns (percentile, value, sample count), or (None, None, n) when
    there are too few samples for any candidate.  For a metric where
    lower is worse (a rate), the tail is taken from the low end.
    """
    n = len(values)
    s = sorted(values, reverse=not higher_is_worse)
    for p in TAIL_PERCENTILES:
        value, beyond = nearest_rank(s, p)
        if beyond >= MIN_BEYOND:
            return p, value, n
    return None, None, n


def fail_frac(failed, attempted):
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted


def host_scale(reference_ns, iterations):
    """Per-iteration factors that rescale host times to nominal speed.

    reference_ns holds the reference loop's time before each of the
    iterations and once after the last.  Iteration i's host times are
    multiplied by REFERENCE_NOMINAL_NS over the mean of the two passes
    around it: a host running slow lengthens both alike.
    """
    if len(reference_ns) != iterations + 1:
        raise ValueError("need one reference pass per iteration plus one")
    return [REFERENCE_NOMINAL_NS * 2.0 / (reference_ns[i] +
                                          reference_ns[i + 1])
            for i in range(iterations)]


def table1_err_pct(rows):
    """Max over (simulated, paper) pairs of |sim/paper - 1| x 100."""
    return max(abs(sim / paper - 1.0) * 100.0 for sim, paper in rows)


def _parent(path):
    return path.rsplit("/", 1)[0] if "/" in path else ""


def _name(path):
    return path.rsplit("/", 1)[-1]


def inclusive_ns(profile, name, under=None):
    """Inclusive host ns of every outermost scope called @name.

    @profile is a list of {"path", "count", "ns"} rows, paths joined by
    "/".  Nested scopes of the same name are not counted twice.  With
    @under, only scopes inside a scope of that name count.
    """
    total = 0
    for row in profile:
        parts = row["path"].split("/")
        if parts[-1] != name or name in parts[:-1]:
            continue
        if under is not None and under not in parts[:-1]:
            continue
        total += row["ns"]
    return total


def count(profile, name):
    """Entries of every outermost scope called @name."""
    return sum(row["count"] for row in profile
               if _name(row["path"]) == name
               and name not in row["path"].split("/")[:-1])


def self_ns(profile, name):
    """Self time of the scopes called @name: inclusive ns minus the
    inclusive ns of their direct children."""
    paths = {row["path"] for row in profile if _name(row["path"]) == name}
    own = sum(row["ns"] for row in profile if row["path"] in paths)
    children = sum(row["ns"] for row in profile
                   if _parent(row["path"]) in paths)
    return own - children


def attribute(traced):
    """Split one traced iteration's wall time into phases.

    Scenario iterations carry per-shard runWorkload windows: set-up is
    parse + plan + (entry to inspectMachine - machine.run), teardown is
    inspectMachine to return.  Table-1 and fuzz iterations carry a
    set-up probe instead.  Merge is zero on the traced path, which runs
    shards directly.  Whatever no phase covers is "unattributed", so the
    phases always sum to the wall.
    """
    run = sum(traced["run_ns"])
    if traced["to_inspect_ns"]:
        setup = traced["parse_ns"] + traced["plan_ns"] + sum(
            inspect - r for inspect, r in zip(traced["to_inspect_ns"],
                                             traced["run_ns"]))
    else:
        setup = traced["setup_probe_ns"]
    phases = {
        "setup": setup,
        "run": run,
        "teardown": sum(traced["teardown_ns"]),
        "report": traced["report_ns"],
        "merge": 0,
    }
    phases["unattributed"] = traced["wall_ns"] - sum(phases.values())
    return phases


def merge_ns(pool, plan_ns):
    """Host ns from the last shard's end to runParallelWorkload's
    return: the call minus planning minus the pool's last end."""
    return max(0, pool["call_ns"] - plan_ns - pool["last_end_ns"])


def busy_frac(pool):
    """Shard busy time over (threads x pool wall)."""
    denom = pool["threads"] * pool["last_end_ns"]
    return pool["busy_ns"] / denom if denom else 0.0


def ratio(num, den):
    """num / den, or 0 when there is nothing to divide by."""
    return num / den if den else 0.0
