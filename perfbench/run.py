"""oscillode benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``memristor_study``, ``linear_sweep`` or ``worked_build``)
from the repository's ``src/`` tree, checks its outputs and prints every
metric as ``name = value unit``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every run starts with a memory pass (``--memory-pass``): a fresh process
runs the whole task once, untraced, and reports its RSS high-water marks, its
task times, the results of the correctness gates and a digest of its outputs.
For a traced run it also counts calls with wrappers (``--counting``).

``--trace 0`` then repeats the set-up alone for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs the task once untraced and once with
spans and counters (written to ``.perfbench_out/``) and reports the
per-layer metrics, with the difference of the two passes as the tracing
overhead.  Every pass must repeat the memory pass's step counts exactly, a
whole task also its output digest, and a counted pass its call counts.

Everything runs on one thread; BLAS thread counts are pinned to 1 before
numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import APPLY, INTEGRATE, MAX_APPLY_ORDER, Tracer, clock  # noqa: E402
from workloads import WORKLOADS, Ops, chain_counts  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

MIN_SETUPS = 3  # set-ups per untraced run; more while --seconds allows
MAX_SETUPS = 50
MEMORY_PASS_TIMEOUT = 150.0
MAX_LEVEL = 4  # per-level metrics cover chain levels r0..r4
BUILD_ORDERS = (5, 6, 7)  # per-order build times (worked_build's orders)


def declared_metrics():
    """({name: unit} of end-to-end metrics, same of per-layer) from BENCHMARK.json.

    The declaration is the single list of metric names, units and order; a
    run prints exactly these.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def load_library():
    """Import oscillode from the checkout's ``src/``; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "oscillode" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no oscillode sources under {src}\n")
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import oscillode

    return oscillode


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- passes --------------------------------------------------------------------


def memory_pass(lib, wl, counting):
    """The task once in a fresh process: RSS marks, time, gates and digest.

    With ``counting`` the library's calls are counted by wrappers, for a
    traced run to compare against; the task's times then include the
    wrappers and are not reported.
    """
    tracer = Tracer(lib, spans=False)
    if counting:
        tracer.install()
    base = maxrss_mb()
    marks = {}

    def after_op(kind):
        marks.setdefault(kind, maxrss_mb())

    ops = Ops(after_op=after_op)
    try:
        res, task_s, task_wall_s = timed_run(wl, ops)
    finally:
        tracer.uninstall()
    peak = maxrss_mb()
    gates = Gates()
    gates.record_ops(ops)
    for gate in wl.gates(res):
        gates.run(gate)
    return {
        "peak_rss_mb": peak,
        "setup_peak_mb": marks["setup"] - base,
        "sweep_peak_mb": peak - marks["setup"],
        "counts": sorted([*key, n] for key, n in tracer.counts.items()),
        "integrations": [list(x) for x in tracer.integrations],
        "chain": [chain_counts(e) for _, e in res.expansions],
        "digest": res.digest(lib),
        "gates": vars(gates),
        "task": {
            "time_to_solution_s": (task_s, "s", 1),
            "time_to_solution_wall_s": (task_wall_s, "s", 1),
            **user_metrics(wl, res, ops),
        },
    }


def spawn_memory_pass(workload, seed, small, counting):
    cmd = [sys.executable, str(HERE / "run.py"), "--memory-pass",
           "--workload", workload, "--seed", str(seed)]
    if small:
        cmd.append("--small")
    if counting:
        cmd.append("--counting")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=MEMORY_PASS_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"memory pass failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_run(wl, ops):
    """(result, CPU seconds, wall seconds) of one whole task."""
    t0, w0 = clock(), time.perf_counter()
    res = wl.run(ops)
    return res, clock() - t0, time.perf_counter() - w0


class Gates:
    """Counts operations and correctness checks; a failure is either."""

    def __init__(self, attempted=0, failed=0, lines=()):
        self.attempted = attempted
        self.failed = failed
        self.lines = list(lines)

    def record_ops(self, ops):
        self.attempted += len(ops.times)

    def check(self, name, ok, detail):
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.lines.append(f"check {name}: {'ok' if ok else 'FAIL'} ({detail})")

    def run(self, gate):
        try:
            name, ok, detail = gate()
        except Exception as err:  # a gate that raises is a failed check
            name, ok, detail = "gate", False, f"{type(err).__name__}: {err}"
        self.check(name, ok, detail)


def check_repeat(gates, lib, expansions, mem, label, res=None, tracer=None):
    """Exact repeatability against the memory pass of the same seed.

    ``expansions`` must give the memory pass's chain step counts; a whole
    task's ``res`` its output digest too, and a ``tracer`` its call counts.
    """
    chain = [chain_counts(e) for e in expansions]
    gates.check(f"repeat.chain_counts.{label}", json.loads(json.dumps(chain)) == mem["chain"],
                f"{sum(a for lev in chain for a, _, _ in lev)} accepted steps")
    if res is not None:
        gates.check(f"repeat.digest.{label}", res.digest(lib) == mem["digest"], mem["digest"][:16])
    if tracer is not None:
        counts = sorted([*key, n] for key, n in tracer.counts.items())
        gates.check("repeat.call_counts", counts == mem["counts"],
                    f"{sum(c[-1] for c in counts)} wrapped calls")
        gates.check("repeat.integrations", [list(x) for x in tracer.integrations]
                    == mem["integrations"], f"{len(tracer.integrations)} integrations")


# -- metrics ---------------------------------------------------------------------


def eval_seconds(batches, cold):
    parts = [b.seconds for b in batches if b.cold == cold]
    return np.concatenate(parts) if parts else np.zeros(0)


def user_metrics(wl, res, ops):
    """Workload-specific figures a user sees; printed, not in the JSON line."""
    out = {}
    for label, cold in (("cold", True), ("warm", False)):
        secs = eval_seconds(res.batches, cold) * 1e6
        if secs.size:
            out[f"eval_{label}_us_p50"] = (float(np.percentile(secs, 50)), "us", secs.size)
            out[f"eval_{label}_us_p99"] = (float(np.percentile(secs, 99)), "us", secs.size)
    refs = ops.seconds("reference")
    if refs:
        out["reference_s"] = (sum(refs), "s", len(refs))
    err = wl.err_sup(res)
    if err is not None:
        out["err_sup"] = (err, "1", 1)
    return out


def layer_metrics(lib, wl, res, ops, tracer, mem, untraced_s, traced_s):
    sp = tracer.span_arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    phase_ids = {"chain": 1, "eval": 2, "reference": 3}

    def mask(name, phase=None):
        m = sp["name"] == ids.get(name, -1)
        if phase is not None:
            m &= sp["phase"] == phase_ids[phase]
        return m

    def count(site, tag=None, phase=None):
        return sum(n for (s, t, p), n in tracer.counts.items()
                   if s == site and (tag is None or t == tag) and (phase is None or p == phase))

    m = {}
    chain_spans = mask("freq_algebra.build_index_chain")
    build_spans = mask("expansion.build_expansion")
    m["freq_algebra.index_chain_s"] = float(sp["dur"][chain_spans].sum())
    m["freq_algebra.table_s"] = float(sp["dur"][mask("freq_algebra.format_index_table")].sum())
    m["freq_algebra.labels"] = sum(len(chain[-1]) for chain in res.chains)
    ratios = []
    for chain in res.chains:
        kappas = wl.registered.problem.kappas
        delta_min = lib.freq_algebra.default_delta_min(kappas)
        ratios += [abs(lab.float_value) / delta_min for lab in chain[-1] if not lab.is_zero]
    m["freq_algebra.min_sigma_over_delta_min"] = min(ratios)

    build_durs = sp["dur"][build_spans]
    m["expansion.build_s"] = float(build_durs.sum())
    for r in BUILD_ORDERS:
        m[f"expansion.build_s.r{r}"] = float(sum(
            d for order, d in zip(wl.build_orders, build_durs) if order == r))
    in_build = chain_spans & np.isin(sp["parent"], np.flatnonzero(build_spans))
    m["expansion.assembly_s"] = float(build_durs.sum() - sp["dur"][in_build].sum())
    m["expansion.nodes"] = sum(len(e.nodes) for _, e in res.expansions)
    m["expansion.terms"] = sum(len(n.terms) for _, e in res.expansions for n in e.nodes.values())

    m["expansion.chain_solve_s"] = float(
        sp["dur"][mask("expansion.solve_nonoscillatory_chain")].sum())
    chain_integrations = mask(INTEGRATE, "chain")
    level_durs = sp["dur"][chain_integrations]
    for k in range(MAX_LEVEL + 1):
        m[f"expansion.chain_solve_s.r{k}"] = float(level_durs[k]) if k < level_durs.size else 0.0

    levels = [lev for _, e in res.expansions for lev in chain_counts(e)]
    for i, what in enumerate(("steps", "rejected", "rhs_evals")):
        per = [(a, t - a, n)[i] for a, t, n in levels]
        m[f"ode_core.chain.{what}"] = sum(per)
        for k in range(MAX_LEVEL + 1):
            m[f"ode_core.chain.{what}.r{k}"] = per[k] if k < len(per) else 0
    m["ode_core.chain.integrate_self_s"] = float(sp["self"][chain_integrations].sum())
    for phase in ("chain", "eval"):
        m[f"ode_core.sample_calls.{phase}"] = count("ode_core.sample", phase=phase)
        m[f"ode_core.sample_s.{phase}"] = float(sp["dur"][mask("ode_core.sample", phase)].sum())
    refs = [x for x in tracer.integrations if x[0] == "reference"]
    for j, w in enumerate(("w_lo", "w_hi")):
        m[f"ode_core.reference.steps.{w}"] = refs[j][1] if j < len(refs) else 0
        m[f"ode_core.reference.rhs_evals.{w}"] = refs[j][3] if j < len(refs) else 0

    for n in range(MAX_APPLY_ORDER + 1):
        for phase in ("chain", "eval", "reference"):
            m[f"deriv_engine.apply_calls.n{n}.{phase}"] = count(APPLY, n, phase)
    m["deriv_engine.apply_s"] = float(sp["dur"][mask(APPLY)].sum())
    m["deriv_engine.amplitude_calls"] = count("deriv_engine.amplitude_derivative")

    cold, warm = eval_seconds(res.batches, True), eval_seconds(res.batches, False)
    m["expansion.eval_cold_s"] = float(cold.sum())
    m["expansion.eval_warm_s"] = float(warm.sum())
    # Flat in omega: warm calls at the top s, at the first and the last omega
    # that have them.
    top = [b for b in res.batches if not b.cold and b.s == max(x.s for x in res.batches)]
    for key, pick in (("w_first", 0), ("w_last", -1)):
        at = [b.seconds for b in top if b.omega_index == top[pick].omega_index] if top else []
        m[f"expansion.eval_warm_us.{key}"] = float(np.median(np.concatenate(at)) * 1e6) if at else 0.0
    ref_secs = ops.seconds("reference")
    for j, w in enumerate(("w_lo", "w_hi")):
        m[f"harness.reference_s.{w}"] = ref_secs[j] if j < len(ref_secs) else 0.0

    m["mem.setup_peak_mb"] = mem["setup_peak_mb"]
    m["mem.sweep_peak_mb"] = mem["sweep_peak_mb"]
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.unaccounted_s"] = traced_s - float(sp["dur"][sp["parent"] < 0].sum())
    return m


# -- running ------------------------------------------------------------------------


def run_untraced(lib, wl, seconds, mem, gates):
    """Set-ups alone for ``seconds`` and at least MIN_SETUPS times.

    ``setup_s`` is the median set-up.  On the shared host this was written
    on, the median of a run's set-ups varied less from run to run than the
    fastest one did: other guests slow the CPU down for minutes at a time,
    so no set-up in a run escapes it.  The whole task ran in the memory
    pass, untraced; its times are reported as they are.
    """
    ops = Ops()
    start = time.perf_counter()
    while len(ops.times) < MAX_SETUPS and (
        len(ops.times) < MIN_SETUPS or time.perf_counter() - start < seconds
    ):
        with ops.op("setup"):
            kept = wl.setup()
        check_repeat(gates, lib, kept, mem, f"setup{len(ops.times)}")
        del kept  # freed outside the timed region
    gates.record_ops(ops)
    setups = ops.seconds("setup")
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": mem["peak_rss_mb"],
    }
    extra = {
        "setups": (len(setups), "count", 1),
        "setup_min_s": (min(setups), "s", len(setups)),
        **mem["task"],
    }
    return metrics, extra


def run_traced(lib, wl, mem, gates, out_stem):
    """The task untraced and then traced; per-layer metrics from the latter."""
    plain = Ops()
    res0, untraced_s, _ = timed_run(wl, plain)
    gates.record_ops(plain)
    check_repeat(gates, lib, [e for _, e in res0.expansions], mem, "untraced", res0)
    del res0

    tracer = Tracer(lib)
    ops = Ops(tracer)
    tracer.install()
    try:
        res, traced_s, _ = timed_run(wl, ops)
    finally:
        tracer.uninstall()
    gates.record_ops(ops)
    check_repeat(gates, lib, [e for _, e in res.expansions], mem, "traced", res, tracer)
    tracer.write(OUT_DIR, out_stem)
    metrics = layer_metrics(lib, wl, res, ops, tracer, mem, untraced_s, traced_s)
    extra = {
        "trace.spans": (len(tracer.c_start), "count", 1),
        "time_to_solution_s.untraced": (untraced_s, "s", 1),
        "time_to_solution_s.traced": (traced_s, "s", 1),
    }
    return metrics, extra


def run(workload, seed, seconds, trace, small=False, out=sys.stdout):
    """One benchmark run; prints the report and returns the result object.

    The correctness gates run once, in the memory pass, on the task's
    outputs; every pass in this process must repeat that pass exactly.
    """
    lib = load_library()
    wl = WORKLOADS[workload](lib, seed, small)
    gates = Gates()
    try:
        mem = spawn_memory_pass(workload, seed, small, counting=bool(trace))
        gates = Gates(**mem["gates"])
        if trace:
            stem = f"{workload}_{'small' if small else 'full'}"
            metrics, extra = run_traced(lib, wl, mem, gates, stem)
        else:
            metrics, extra = run_untraced(lib, wl, seconds, mem, gates)
    except Exception:  # the failed operation ends the run, which reports it
        traceback.print_exc()
        result = {"correct": False, "attempted": gates.attempted + 1,
                  "failed": gates.failed + 1, "metrics": {}}
        print(json.dumps(result), file=out)
        return result
    units = declared_metrics()[1 if trace else 0]

    print(f"workload {workload} seed {seed} trace {trace} omegas {list(wl.omegas)}", file=out)
    for line in gates.lines:
        print(line, file=out)
    for name, (value, unit, samples) in extra.items():
        print(f"{name} = {value!r} {unit} (samples {samples})", file=out)
    ratio = gates.failed / gates.attempted
    print(f"ops_failed_ratio = {ratio!r} 1 ({gates.failed}/{gates.attempted})", file=out)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}", file=out)
    result = {
        "correct": gates.failed == 0,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), file=out)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes (self-test)")
    parser.add_argument("--memory-pass", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--counting", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.memory_pass:
        lib = load_library()
        wl = WORKLOADS[args.workload](lib, args.seed, args.small)
        print(json.dumps(memory_pass(lib, wl, args.counting)))
        return 0
    result = run(args.workload, args.seed, args.seconds, args.trace, args.small)
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
