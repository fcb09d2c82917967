"""Per-layer tracing for the benchmark, installed from outside the program.

``Tracer.installed()`` swaps each traced public function or method of the
``nobcr`` modules for a timing wrapper and puts the originals back on exit.
Nothing under ``src/`` is edited.  Each wrapper records a span: call count,
total time, and the time its traced callees took (so a layer's self time is
its time minus that of the traced calls beneath it).  A few wrappers also
count outcomes (plan sizes, decode results, drop decisions) for the ratio
metrics.  The wrappers return exactly what the wrapped function returns, so
a traced run must reproduce the untraced run's behaviour digest.

Wrappers are placed where the program looks names up: ``node.py`` binds
``elect_forwarders`` and ``elect_source_forwarders`` by name, so those are
swapped in ``nobcr.node`` (and in ``nobcr.forwarding``, so that elections
stay counted if a caller goes through the module); coding functions are
called through the ``coding`` module, so they are swapped there.

Sweeps run ``harness.run_one`` in forked pool workers.  Each worker inherits
the installed wrappers, records one task into a fresh state, and ships it
back inside the task's row under ``_trace``; the ``run_tasks`` wrapper pops
it before the caller sees the rows.
"""
from __future__ import annotations

import contextlib
import functools
import os
import pickle
import time
from array import array

_HANDLERS = ("on_receive", "on_rad_expiry", "on_hello", "on_generate", "on_pool_evict", "periodic")
_WRITERS = ("write_raw_csv", "write_agg_csv", "write_delay_cdfs")


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        # span name -> [calls, total ns, ns spent in traced callees]
        self.spans: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.samples: dict[str, array] = {}
        self._stack = [0]

    def reset(self) -> None:
        """Zero every record in place: the installed wrappers hold references."""
        for span in self.spans.values():
            span[:] = [0, 0, 0]
        for durations in self.samples.values():
            del durations[:]
        self.counts.clear()
        self._stack[:] = [0]

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, observe=None, sample: bool = False):
        """A transparent timing wrapper around ``fn`` recorded as ``name``.

        ``observe(args, result, ns)`` runs after a successful call to count
        outcomes; ``sample`` keeps every call's duration for percentiles.
        """
        span = self.spans.setdefault(name, [0, 0, 0])
        durations = self.samples.setdefault(name, array("q")) if sample else None
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ns = clock() - t0
                inner = stack.pop()
                stack[-1] += ns
                span[0] += 1
                span[1] += ns
                span[2] += inner
                if durations is not None:
                    durations.append(ns)
            if observe is not None:
                observe(args, result, ns)
            return result

        return traced

    # -- state shipped between processes -----------------------------------

    def export(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()}, "counts": dict(self.counts),
                "samples": {k: v.tobytes() for k, v in self.samples.items()}}

    def merge(self, state: dict) -> None:
        for name, (calls, ns, inner) in state["spans"].items():
            span = self.spans.setdefault(name, [0, 0, 0])
            span[0] += calls
            span[1] += ns
            span[2] += inner
        for key, n in state["counts"].items():
            self.count(key, n)
        for name, raw in state["samples"].items():
            self.samples.setdefault(name, array("q")).frombytes(raw)

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        from nobcr import coding, config, engine, forwarding, harness, metrics, node, termination

        saved = []

        def patch(owner, attr, name, **kw):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(name, original.__func__, **kw))
            else:
                replacement = self.wrap(name, original, **kw)
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

        patch(engine.Simulation, "__init__", "engine.init")
        patch(engine.Simulation, "run", "engine.run", observe=self._on_run)
        patch(engine.Waypoint, "position", "engine.waypoint.position")
        for handler in _HANDLERS:
            patch(node.Node, handler, f"node.{handler}", sample=handler == "on_receive")
        patch(coding, "detect_coding", "coding.detect_coding", observe=self._on_detect)
        patch(coding, "receivers_of", "coding.receivers_of")
        patch(coding, "decode", "coding.decode", observe=self._on_decode)
        patch(coding, "encode", "coding.encode")
        patch(coding.PacketPool, "record_copy", "coding.record_copy")
        for method in ("mark", "holders", "prune"):
            patch(coding.ReceptionTable, method, f"coding.table.{method}")
        for owner in (node, forwarding):
            patch(owner, "elect_forwarders", "forwarding.elect", observe=self._on_elect)
            patch(owner, "elect_source_forwarders", "forwarding.elect", observe=self._on_elect)
        patch(forwarding, "greedy_set_cover", "forwarding.greedy_set_cover", observe=self._on_cover)
        patch(termination.TerminationState, "check", "termination.check", observe=self._on_check)
        patch(metrics.Metrics, "summary", "metrics.summary")
        patch(config.ScenarioConfig, "from_mapping", "config.from_mapping")
        self._install_harness(harness, saved)
        for name in _WRITERS:
            patch(harness, name, "harness.write")
        patch(harness, "aggregate", "harness.aggregate")
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _install_harness(self, harness, saved) -> None:
        run_one = harness.run_one
        timed_run_one = self.wrap("harness.run_one", run_one)

        @functools.wraps(run_one)
        def traced_run_one(task):
            if os.getpid() == self.pid:
                return timed_run_one(task)
            self.reset()  # forked worker: record this task alone, ship it home
            row = timed_run_one(task)
            row["_trace"] = self.export()
            return row

        run_tasks = harness.run_tasks

        @functools.wraps(run_tasks)
        def traced_run_tasks(tasks, jobs=1):
            t0 = time.perf_counter_ns()
            rows = run_tasks(tasks, jobs=jobs)
            self.count("harness.run_tasks.job_ns", max(1, min(jobs, len(tasks))) * (time.perf_counter_ns() - t0))
            for row in rows:
                state = row.pop("_trace", None)
                if state is not None:
                    self.merge(state)
                self.count("harness.row_bytes", len(pickle.dumps(row)))
            return rows

        for attr, replacement in (("run_one", traced_run_one), ("run_tasks", traced_run_tasks)):
            saved.append((harness, attr, getattr(harness, attr)))
            setattr(harness, attr, replacement)

    # -- outcome observers ---------------------------------------------------

    def _on_run(self, args, m, ns) -> None:
        self.count("sample_events", m.storage_samples // m.n_nodes)
        self.count("collision_losses", m.collision_losses)
        self.count("data_tx", m.data_tx)
        self.count("hello_tx", m.hello_tx)
        self.count("encoded_tx", m.encoded_tx)
        self.count("encoded_tx_gratis", m.encoded_tx_gratis)
        self.count("gratis_buffered", m.gratis_buffered)
        self.count("delivered_entries", sum(len(seen) for seen in m.delivered))

    def _on_detect(self, args, plan, ns) -> None:
        if len(plan) >= 2:
            self.count("plan_hits")

    def _on_decode(self, args, result, ns) -> None:
        if result.ok:
            self.count("decode_ok")

    def _on_elect(self, args, result, ns) -> None:
        self.count("forwarders", result[0].bit_count())

    def _on_cover(self, args, result, ns) -> None:
        self.count("cover_universe", args[0].universe.bit_count())
        self.count("cover_uncovered", result[1].bit_count())

    def _on_check(self, args, decision, ns) -> None:
        if decision.value == "drop":
            self.count("drops")

    # -- per-layer metrics -----------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the benchmark reports, from the recorded spans."""
        spans, counts = self.spans, self.counts

        def calls(name):
            return spans.get(name, (0, 0, 0))[0]

        def secs(name):
            return spans.get(name, (0, 0, 0))[1] / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, float] = {}
        handler_calls = {h: calls(f"node.{h}") for h in _HANDLERS}
        events = {
            "rx": handler_calls["on_receive"] + handler_calls["on_hello"] + counts.get("collision_losses", 0),
            "rad": handler_calls["on_rad_expiry"],
            "hello": handler_calls["periodic"],
            "gen": handler_calls["on_generate"],
            "evict": handler_calls["on_pool_evict"],
            "sample": counts.get("sample_events", 0),
        }
        out["engine.events"] = sum(events.values())
        for kind, n in events.items():
            out[f"engine.events.{kind}"] = n
        handler_s = sum(secs(f"node.{h}") for h in _HANDLERS)
        out["engine.self_s"] = secs("engine.run") - handler_s
        out["engine.waypoint.position.calls"] = calls("engine.waypoint.position")
        out["engine.waypoint.position.s"] = secs("engine.waypoint.position")
        out["engine.rx_per_broadcast"] = ratio(events["rx"], counts.get("data_tx", 0) + counts.get("hello_tx", 0))
        out["engine.collision_share"] = ratio(counts.get("collision_losses", 0), events["rx"])
        out["engine.init_s"] = secs("engine.init")

        rx = sorted(self.samples.get("node.on_receive", ()))
        out["node.on_receive.calls"] = handler_calls["on_receive"]
        out["node.on_receive.s"] = secs("node.on_receive")
        out["node.on_receive.p50_us"] = _quantile(rx, 0.50) / 1e3
        out["node.on_receive.p99_us"] = _quantile(rx, 0.99) / 1e3
        for h in _HANDLERS[1:]:
            out[f"node.{h}.calls"] = handler_calls[h]
            out[f"node.{h}.s"] = secs(f"node.{h}")
        out["node.self_s"] = sum(
            (spans[f"node.{h}"][1] - spans[f"node.{h}"][2]) / 1e9 for h in _HANDLERS if f"node.{h}" in spans
        )

        for name in ("detect_coding", "receivers_of", "decode", "record_copy"):
            out[f"coding.{name}.calls"] = calls(f"coding.{name}")
            out[f"coding.{name}.s"] = secs(f"coding.{name}")
        out["coding.plan_hit_ratio"] = ratio(counts.get("plan_hits", 0), calls("coding.detect_coding"))
        out["coding.decode_ok_ratio"] = ratio(counts.get("decode_ok", 0), calls("coding.decode"))
        out["coding.encode.s"] = secs("coding.encode")
        for method in ("mark", "holders", "prune"):
            out[f"coding.table.{method}.calls"] = calls(f"coding.table.{method}")
            out[f"coding.table.{method}.s"] = secs(f"coding.table.{method}")
        out["coding.encoded_share"] = ratio(counts.get("encoded_tx", 0), counts.get("data_tx", 0))
        out["coding.gratis_use_ratio"] = ratio(counts.get("encoded_tx_gratis", 0), counts.get("gratis_buffered", 0))

        out["forwarding.elect.calls"] = calls("forwarding.elect")
        out["forwarding.elect.s"] = secs("forwarding.elect")
        out["forwarding.greedy_set_cover.s"] = secs("forwarding.greedy_set_cover")
        out["forwarding.uncovered_share"] = ratio(counts.get("cover_uncovered", 0), counts.get("cover_universe", 0))
        out["forwarding.forwarders_per_election"] = ratio(counts.get("forwarders", 0), calls("forwarding.elect"))

        out["termination.check.calls"] = calls("termination.check")
        out["termination.check.s"] = secs("termination.check")
        out["termination.drop_ratio"] = ratio(counts.get("drops", 0), calls("termination.check"))

        out["metrics.summary.s"] = secs("metrics.summary")
        out["metrics.delivered_entries"] = counts.get("delivered_entries", 0)

        out["harness.run_one.s"] = ratio(secs("harness.run_one"), calls("harness.run_one"))
        out["harness.parallel_efficiency"] = ratio(spans.get("harness.run_one", (0, 0))[1], counts.get("harness.run_tasks.job_ns", 0))
        out["harness.aggregate.s"] = secs("harness.aggregate")
        out["harness.write.s"] = secs("harness.write")
        out["harness.row_bytes"] = counts.get("harness.row_bytes", 0)

        out["config.from_mapping.s"] = secs("config.from_mapping")
        return out


def _quantile(ordered, q: float) -> float:
    if not ordered:
        return 0.0
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])
