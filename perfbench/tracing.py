"""Spans recorded from outside the package.

A Tracer replaces public functions at the module attribute their caller
looks up (verification calls its own module's `eta_quotient`, cli calls its
own `prove_tspp_congruence`, and so on), records one span per call in
memory, and puts the original functions back on `uninstall`.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from tsppcong import cli, documents, prover, tspp, verification


def _order_coeffs(args, kwargs, result):
    return {"coeffs": len(result.coeffs)}


def _verify_counts(args, kwargs, cert):
    return {
        "indices": sum(len(c.indices) for c in cert.checked),
        "needs_expansion": cert.expansion_order is not None,
    }


def _oracle_counts(args, kwargs, report):
    return {"indices": report.checked}


def _text_bytes(args, kwargs, text):
    return {"bytes": len(text.encode("utf-8"))}


# (module, attribute the caller looks up, span name, counter)
HOOKS = (
    (verification, "eta_quotient", "series.eta_quotient", _order_coeffs),
    (tspp, "eta_quotient", "series.eta_quotient", _order_coeffs),
    (tspp, "tspp_series", "tspp.tspp_series", _order_coeffs),
    (prover, "tspp_series", "tspp.tspp_series", _order_coeffs),
    (tspp, "slice_series", "tspp.slice_series", None),
    (prover, "slice_series", "tspp.slice_series", None),
    (prover, "slice_variant_series", "tspp.slice_variant_series", None),
    (tspp, "check_support", "tspp.check_support", None),
    (tspp, "check_slice_identity", "tspp.check_slice_identity", None),
    (prover, "reduce_claim", "tspp.reduce_claim", None),
    (prover, "verify_instance", "verification.verify_instance", _verify_counts),
    (verification, "admissibility_check", "verification.admissibility_check", None),
    (verification, "orbit", "verification.orbit", None),
    (verification, "cusp_order_bound", "verification.cusps", None),
    (verification, "aux_cusp_order", "verification.cusps", None),
    (verification, "verification_bound", "verification.bound", None),
    (prover, "prove_tspp_congruence", "prover.prove_tspp_congruence", None),
    (cli, "prove_tspp_congruence", "prover.prove_tspp_congruence", None),
    (prover, "oracle_check", "prover.oracle_check", _oracle_counts),
    (cli, "oracle_check", "prover.oracle_check", _oracle_counts),
    (prover, "regression_suite", "prover.regression_suite", None),
    (cli, "load_instance", "documents.load_instance", None),
    (documents, "parse_instance", "documents.parse_instance", None),
    (documents, "shipped_instances", "documents.shipped_instances", None),
    (documents, "report_to_doc", "documents.serialize", None),
    (cli, "report_to_doc", "documents.serialize", None),
    (documents, "canonical_json", "documents.serialize", _text_bytes),
    (cli, "canonical_json", "documents.serialize", _text_bytes),
    (cli, "main", "cli.main", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = 0
        # seconds spent in the tracer's own work: installing and removing the
        # wrappers, opening and closing spans and computing their counters
        self.own = 0.0

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = {"id": len(self.spans), "name": name, "parent": parent, "op": self.op, "start": perf_counter()}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span):
        span["end"] = perf_counter()
        self._stack.pop()

    def root(self, name, op):
        """Open the span of one benchmark operation; close it with `end`."""
        self.op = op
        return self._open(name)

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            called = perf_counter()
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                span.update(counter(args, kwargs, result))
            self.own += span["start"] - called + perf_counter() - span["end"]
            return result

        return traced

    def install(self):
        start = perf_counter()
        for module, attr, name, counter in HOOKS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))
        self.own += perf_counter() - start

    def uninstall(self):
        start = perf_counter()
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        self.own += perf_counter() - start

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, sort_keys=True) + "\n")


def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds and summed
    counters; per layer (the name up to the first dot): self seconds."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    by_name: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    by_layer: dict[str, float] = defaultdict(float)
    for s in spans:
        total = s["end"] - s["start"]
        own = total - child_time[s["id"]]
        row = by_name[s["name"]]
        row["calls"] += 1
        row["s"] += total
        row["self_s"] += own
        for key in ("coeffs", "indices", "bytes"):
            if key in s:
                row[key] += s[key]
        by_layer[s["name"].split(".", 1)[0]] += own
    return by_name, by_layer


def expansion_reuse(spans):
    """Share of verify calls that needed an expansion and took it from the
    verifier's memo, i.e. ran no eta_quotient beneath them; 0 when there are
    no verify calls."""
    expanded = {s["parent"] for s in spans if s["name"] == "series.eta_quotient"}
    verify = [s for s in spans if s["name"] == "verification.verify_instance"]
    reused = sum(1 for s in verify if s["needs_expansion"] and s["id"] not in expanded)
    return reused / len(verify) if verify else 0.0

