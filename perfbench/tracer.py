"""Traced CLI child and the self-time arithmetic over its spans.

As a script, this runs one ``debias-embed`` command in-process with a
span around every call into the modules' public functions::

    python3 perfbench/tracer.py SPANS_JSON SPAWN_NS OP_ID -- <cli arguments>

The wrappers are installed from outside: every module-level binding of a
traced function is replaced, so internal calls such as
``debias.pca_basis`` and ``intrinsic.pca_basis`` count as calls into the
``subspace`` layer. Spans (name, start, end, parent, op id) and the
counts taken at the same boundaries stay in memory and are written to
SPANS_JSON when the command returns. SPAWN_NS is the parent's
CLOCK_MONOTONIC reading just before it started this process.

As a module, it only aggregates span files; it never imports the
package under test.
"""

from __future__ import annotations

import time

START_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

MB = 1e6


def _size(path) -> int:
    return os.path.getsize(path)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# layer.function -> counts taken from (args, kwargs, result) at the span's end
TRACED = {
    "embeddings.load_vec": lambda a, k, r: {"rows": len(r), "bytes": _size(_arg(a, k, 0, "path"))},
    "embeddings.save_vec": lambda a, k, r: {"rows": len(_arg(a, k, 0, "space")),
                                            "bytes": _size(_arg(a, k, 1, "path"))},
    "embeddings.normalize": None,
    "embeddings.space_fingerprint": None,
    "lexicon.builtin_lexicon": None,
    "lexicon.split_pairs": None,
    "subspace.difference_matrix": lambda a, k, r: {"rows": r.shape[0],
                                                   "pairs": len(_arg(a, k, 1, "pairs"))},
    "subspace.pca_basis": None,
    "subspace.ppa_basis": None,
    "subspace.save_subspace": None,
    "debias.run_variant": None,
    "debias.debias_space": lambda a, k, r: {"rows": len(r)},
    "align.load_dictionary": None,
    "align.procrustes_fit": lambda a, k, r: {"used": r.fit_pair_count,
                                             "entries": len(_arg(a, k, 2, "dictionary"))},
    "align.apply_map": None,
    "align.merge_spaces": None,
    "intrinsic.inbias": None,
    "intrinsic.cross_score_matrix": None,
    "extrinsic.load_corpus": None,
    "extrinsic.split_corpus": None,
    "extrinsic.featurize": lambda a, k, r: {"kept": len(r[1]), "records": len(_arg(a, k, 1, "records"))},
    "extrinsic.train_classifier": None,
    "extrinsic.evaluate_gap": None,
    "manifest.file_fingerprint": lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path"))},
    "manifest.RunManifest.write": None,
    "cli.cmd_align": None,
    "cli.cmd_debias": None,
    "cli.cmd_report": None,
}


class Recorder:
    """Keeps spans in memory; one instance per traced process."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, func, count):
        recorder = self

        def traced(*args, **kwargs):
            span = {"id": len(recorder.spans), "op": recorder.op_id, "name": name,
                    "parent": recorder._stack[-1] if recorder._stack else None,
                    "rss0_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    "start_ns": time.clock_gettime_ns(time.CLOCK_MONOTONIC)}
            recorder.spans.append(span)
            recorder._stack.append(span["id"])
            try:
                result = func(*args, **kwargs)
                if count is not None:
                    span.update(count(args, kwargs, result))
                return result
            finally:
                span["end_ns"] = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
                span["rss1_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                recorder._stack.pop()

        return traced


def install(recorder: Recorder) -> None:
    """Replace every module-level binding of each traced function."""
    import importlib

    modules = {name: importlib.import_module(f"debias_embed.{name}")
               for name in ("cli", "embeddings", "lexicon", "subspace", "debias", "align",
                            "intrinsic", "extrinsic", "manifest")}
    wrappers = {}
    for name, count in TRACED.items():
        layer, *path = name.split(".")
        owner = modules[layer]
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, path[-1])
        wrapper = recorder.wrap(name, original, count)
        setattr(owner, path[-1], wrapper)
        wrappers[id(original)] = wrapper
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])


def _main(argv) -> int:
    spans_path, spawn_ns, op_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON SPAWN_NS OP_ID -- <cli arguments>")
    recorder = Recorder(op_id)
    install(recorder)
    from debias_embed import cli

    main_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    rc = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"op": op_id, "spawn_ns": int(spawn_ns), "start_ns": START_NS,
                   "main_ns": main_ns, "rc": rc, "spans": recorder.spans}, fh)
    return rc


# ---- aggregation (parent side) ---------------------------------------------

#: per-layer metric -> unit, "better"; the names later changes refer to
PER_LAYER = {
    "embeddings.load_vec.s": ("s", "lower"),
    "embeddings.load_vec.rows": ("count", "lower"),
    "embeddings.load_vec.mb_per_s": ("MB/s", "higher"),
    "embeddings.load_vec.rss_growth_mb": ("MB", "lower"),
    "embeddings.save_vec.s": ("s", "lower"),
    "embeddings.save_vec.rows": ("count", "lower"),
    "embeddings.save_vec.mb_per_s": ("MB/s", "higher"),
    "embeddings.normalize.s": ("s", "lower"),
    "embeddings.normalize.rss_growth_mb": ("MB", "lower"),
    "embeddings.space_fingerprint.s": ("s", "lower"),
    "debias.run_variant.s": ("s", "lower"),
    "debias.debias_space.s": ("s", "lower"),
    "debias.debias_space.rows": ("count", "lower"),
    "debias.debias_space.rss_growth_mb": ("MB", "lower"),
    "subspace.difference_matrix.s": ("s", "lower"),
    "subspace.difference_matrix.resolved_frac": ("fraction", "higher"),
    "subspace.pca_basis.s": ("s", "lower"),
    "subspace.pca_basis.calls": ("count", "lower"),
    "subspace.ppa_basis.s": ("s", "lower"),
    "subspace.ppa_basis.calls": ("count", "lower"),
    "subspace.save_subspace.s": ("s", "lower"),
    "align.load_dictionary.s": ("s", "lower"),
    "align.procrustes_fit.s": ("s", "lower"),
    "align.procrustes_fit.used_frac": ("fraction", "higher"),
    "align.apply_map.s": ("s", "lower"),
    "align.merge_spaces.s": ("s", "lower"),
    "align.merge_spaces.rss_growth_mb": ("MB", "lower"),
    "intrinsic.inbias.s": ("s", "lower"),
    "intrinsic.cross_score_matrix.s": ("s", "lower"),
    "intrinsic.cross_score_matrix.pca_fits": ("count", "lower"),
    "extrinsic.load_corpus.s": ("s", "lower"),
    "extrinsic.split_corpus.s": ("s", "lower"),
    "extrinsic.featurize.s": ("s", "lower"),
    "extrinsic.featurize.kept_frac": ("fraction", "higher"),
    "extrinsic.train_classifier.s": ("s", "lower"),
    "extrinsic.evaluate_gap.s": ("s", "lower"),
    "lexicon.builtin_lexicon.s": ("s", "lower"),
    "lexicon.split_pairs.s": ("s", "lower"),
    "manifest.file_fingerprint.s": ("s", "lower"),
    "manifest.file_fingerprint.mb_per_s": ("MB/s", "higher"),
    "manifest.RunManifest.write.s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.cpu_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}

# ratio metric suffix -> (numerator counter, denominator counter)
_RATIOS = {
    "resolved_frac": ("rows", "pairs"),
    "used_frac": ("used", "entries"),
    "kept_frac": ("kept", "records"),
}


def self_seconds(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover (spans nest)."""
    own = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return {i: ns / 1e9 for i, ns in own.items()}


def op_metrics(children: list[dict], cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one op from its children's span files."""
    spans = []
    for child in children:  # span ids restart in every child process
        base = len(spans)
        spans += [dict(s, id=s["id"] + base,
                       parent=None if s["parent"] is None else s["parent"] + base)
                  for s in child["spans"]]
    own = self_seconds(spans)
    by_id = {s["id"]: s for s in spans}
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name.get(name, []))

    out = {}
    for metric in PER_LAYER:
        name, _, suffix = metric.rpartition(".")
        group = by_name.get(name, [])
        if name not in TRACED:
            continue
        if suffix == "s":
            out[metric] = float(sum(own[s["id"]] for s in group))
        elif suffix == "rows":
            out[metric] = float(total(name, "rows"))
        elif suffix == "calls":
            out[metric] = float(len(group))
        elif suffix == "mb_per_s":
            seconds = sum(s["end_ns"] - s["start_ns"] for s in group) / 1e9
            out[metric] = total(name, "bytes") / MB / seconds if seconds else 0.0
        elif suffix == "rss_growth_mb":
            out[metric] = sum(s["rss1_kb"] - s["rss0_kb"] for s in group) / 1024
        elif suffix in _RATIOS:
            num, den = _RATIOS[suffix]
            out[metric] = total(name, num) / total(name, den) if total(name, den) else 0.0
        elif suffix == "pca_fits":
            out[metric] = float(sum(_under(by_id, s, name)
                                    for s in by_name.get("subspace.pca_basis", [])))
    out["cli.startup_s"] = sum(c["main_ns"] - c["spawn_ns"] for c in children) / 1e9
    out["cli.self_s"] = float(sum(own[s["id"]] for s in spans if s["name"].startswith("cli.cmd_")))
    out["cli.cpu_s"] = cpu_s
    return out


def _under(by_id, span, ancestor) -> bool:
    parent = span["parent"]
    while parent is not None:
        if by_id[parent]["name"] == ancestor:
            return True
        parent = by_id[parent]["parent"]
    return False


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {m: statistics.median(op[m] for op in per_op) for m in per_op[0]}


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
