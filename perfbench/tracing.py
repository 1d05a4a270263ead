"""Spans and counters recorded around oscillode's public calls.

The library is never edited: ``Tracer.install`` replaces module and class
attributes with wrappers and ``Tracer.uninstall`` puts the originals back.
A tracer either records spans (name, start, end, parent, operation id,
phase, tag) in compact columns kept in memory, or only counts calls; the
counts are the same in both modes, so a counting pass can check that a
traced pass repeats exactly.

Phases attribute leaf work to the public call that caused it: ``chain``
inside ``solve_nonoscillatory_chain``, ``eval`` inside
``Expansion.evaluate_truncated`` and ``reference`` inside
``harness.reference_values``; everything else is ``other``.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PHASES = ("other", "chain", "eval", "reference")
_PHASE_OF = {
    "expansion.solve_nonoscillatory_chain": 1,
    "expansion.evaluate_truncated": 2,
    "harness.reference_values": 3,
}

# (object attribute path, span name); module attributes are patched where the
# caller looks them up, so a function imported into two modules is wrapped
# once per importing module.
_FUNCTION_SITES = (
    ("freq_algebra.build_index_chain", "freq_algebra.build_index_chain"),
    ("freq_algebra.format_index_table", "freq_algebra.format_index_table"),
    ("expansion.build_index_chain", "freq_algebra.build_index_chain"),
    ("expansion.build_expansion", "expansion.build_expansion"),
    ("expansion.solve_nonoscillatory_chain", "expansion.solve_nonoscillatory_chain"),
    ("expansion.sample", "ode_core.sample"),
    ("harness.sample", "ode_core.sample"),
    ("harness.reference_values", "harness.reference_values"),
    ("expansion.Expansion.evaluate_truncated", "expansion.evaluate_truncated"),
    ("deriv_engine.ForcingTerm.derivative", "deriv_engine.amplitude_derivative"),
)
_INTEGRATE_SITES = ("expansion.integrate", "harness.integrate")

APPLY = "deriv_engine.apply"
INTEGRATE = "ode_core.integrate"
MAX_APPLY_ORDER = 4  # apply orders above this are counted in the n4 bucket

# Every benchmark time is process CPU time.  The work is single-threaded and
# does no I/O, so this is wall time minus the time the hypervisor ran other
# guests on our CPU, which on a shared host swings wall times by up to 50 %.
clock = time.process_time


def accepted_steps(solution, dense_refine):
    """Accepted steps of a DenseSolution; refined runs store two nodes per step."""
    return (len(solution.ts) - 1) // (2 if dense_refine else 1)


class Tracer:
    """Span and counter store for one pass.

    ``spans=False`` keeps only counters and the per-integrate step counts,
    which is what a memory pass can afford.
    """

    def __init__(self, lib, spans=True):
        self.lib = lib
        self.record_spans = spans
        self.names = []
        self._name_ids = {}
        self.c_name = array("i")
        self.c_start = array("d")
        self.c_end = array("d")
        self.c_parent = array("i")
        self.c_op = array("i")
        self.c_phase = array("b")
        self.c_tag = array("i")
        self.stack = []
        self.phase = 0
        self.op_id = -1
        self.counts = {}
        self.integrations = []  # (phase, accepted, attempted, rhs_evals)
        self._saved = []
        self._in_apply0 = False

    # -- recording ---------------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name, tag=0):
        key = (name, tag, PHASES[self.phase])
        self.counts[key] = self.counts.get(key, 0) + 1

    def _open(self, nid, tag):
        idx = len(self.c_start)
        self.c_name.append(nid)
        self.c_start.append(0.0)
        self.c_end.append(0.0)
        self.c_parent.append(self.stack[-1] if self.stack else -1)
        self.c_op.append(self.op_id)
        self.c_phase.append(self.phase)
        self.c_tag.append(tag)
        self.stack.append(idx)
        return idx

    def _close(self, idx, t0):
        self.c_end[idx] = clock()
        self.c_start[idx] = t0
        self.stack.pop()

    @contextmanager
    def operation(self, name, tag=0):
        """Span around one benchmark operation; starts a new operation id."""
        self.op_id += 1
        if not self.record_spans:
            yield
            return
        idx = self._open(self.name_id(name), tag)
        t0 = clock()
        try:
            yield
        finally:
            self._close(idx, t0)

    def _wrap(self, fn, name, tag_of=None, on_result=None):
        nid = self.name_id(name)
        phase = _PHASE_OF.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            tag = tag_of(args) if tag_of is not None else 0
            saved_phase = tracer.phase
            if phase is not None:
                tracer.phase = phase
            tracer.count(name, tag)
            if tracer.record_spans:
                idx = tracer._open(nid, tag)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx, t0)
                    tracer.phase = saved_phase
            else:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.phase = saved_phase
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # -- installing wrappers -----------------------------------------------

    def _patch(self, path, make):
        owner_path, attr = path.rsplit(".", 1)
        owner = self.lib
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        """Wrap the public call sites; call ``uninstall`` to restore them."""
        for path, name in _FUNCTION_SITES:
            self._patch(path, lambda fn, name=name: self._wrap(fn, name))

        def record_solution(args, solution):
            spec = args[0]
            self.integrations.append((
                PHASES[self.phase],
                accepted_steps(solution, spec.dense_refine),
                solution.n_steps,
                solution.n_rhs_evals,
            ))

        for path in _INTEGRATE_SITES:
            self._patch(path, lambda fn: self._wrap(fn, INTEGRATE, on_result=record_solution))

        # Field evaluations: ``apply(n, ...)`` with its order as tag, and a
        # direct ``field(y)`` counted as order 0 unless ``apply(0)`` made it.
        def wrap_apply(fn):
            counted = self._wrap(fn, APPLY, tag_of=lambda a: min(a[1], MAX_APPLY_ORDER))

            def apply(field, n, y, directions):
                if n != 0:
                    return counted(field, n, y, directions)
                self._in_apply0 = True
                try:
                    return counted(field, n, y, directions)
                finally:
                    self._in_apply0 = False

            return apply

        def wrap_call(fn):
            counted = self._wrap(fn, APPLY)

            def call(field, y):
                if self._in_apply0:
                    return fn(field, y)
                return counted(field, y)

            return call

        self._patch("deriv_engine.VectorField.apply", wrap_apply)
        self._patch("deriv_engine.VectorField.__call__", wrap_call)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis -----------------------------------------------------------

    def span_arrays(self):
        """Columns as numpy arrays plus each span's duration and self time."""
        name = np.frombuffer(self.c_name, dtype=np.int32)
        start = np.frombuffer(self.c_start, dtype=np.float64)
        end = np.frombuffer(self.c_end, dtype=np.float64)
        parent = np.frombuffer(self.c_parent, dtype=np.int32)
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.frombuffer(self.c_op, dtype=np.int32),
            "phase": np.frombuffer(self.c_phase, dtype=np.int8),
            "tag": np.frombuffer(self.c_tag, dtype=np.int32),
            "dur": dur,
            "self": dur - covered,
        }

    def write(self, directory, stem):
        """Write the spans (``.npz``) and the counters (``.json``)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        cols = self.span_arrays()
        np.savez(
            directory / f"{stem}_spans.npz",
            names=np.array(self.names),
            **{k: cols[k] for k in ("name", "start", "end", "parent", "op", "phase", "tag")},
        )
        counts = [
            {"site": site, "tag": tag, "phase": phase, "count": n}
            for (site, tag, phase), n in sorted(self.counts.items())
        ]
        (directory / f"{stem}_counts.json").write_text(json.dumps(counts, indent=1) + "\n")
