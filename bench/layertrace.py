"""Outside-in layer tracing for latstab.

The tracer wraps the public functions of each layer module from outside the
package: every module attribute that is bound to a traced function object is
replaced, so a name imported into several modules (``lll_rows`` lives in
``reduction``, ``lattice`` and ``subgroups``) is traced at every call site.
Nothing under ``src/`` is edited and everything is restored on exit.

Each call records one span (function, start, end, parent span, run id) in
memory; a layer's self time is its spans' durations minus the time their
child spans cover. Counts that have no span of their own (enumeration nodes,
top-level search candidates) are taken at the same boundaries.
"""

from __future__ import annotations

import gzip
import math
import sys
from functools import cached_property
from time import perf_counter

# (module, attribute path) of every traced function; the module is also its
# layer, except that the Philox stream helper belongs to the sampling layer.
TRACED = {
    "sampling": ["sample_lattice", "sample_gm", "sample_exact_2d",
                 "sample_gaussian_baseline", "gm_basis", "is_prime",
                 "SamplerSpec.__post_init__", "SamplerSpec.with_stream"],
    "rng": ["stream_generator"],
    "lattice": ["Lattice.__post_init__", "Lattice.from_exact",
                "Lattice.from_rows", "Lattice.covolume", "Lattice._reduced",
                "Lattice._reduced_inverse", "Lattice._exact_gram",
                "Lattice.gram_matrix", "Lattice._rows", "Lattice._gram_rows",
                "subgroup_covolume", "exact_gram_determinant", "saturate",
                "saturation_index", "canonical_form", "closest_vector",
                "lll_reduce", "dual", "sublattice", "vector_norm",
                "enumerate_short_vectors"],
    "reduction": ["lll_rows", "gso", "nearest_plane"],
    "enumeration": ["short_vectors", "close_vectors",
                    "primitive_half_vectors"],
    "intmat": ["saturation", "hnf_rows", "bareiss_det", "matmul",
               "complete_primitive_row", "adjugate", "gram", "diagonalize",
               "row_rank"],
    "subgroups": ["minimal_subgroup", "subgroups_within", "exists_below"],
    "constants": ["hermite_upper", "hermite_constant", "thunder_integral_log",
                  "b_constant_log", "rankin_row"],
    "siegel": ["mc_integral", "normalization_ratio", "stability_mass",
               "alpha_quantiles", "scaling_ratio", "siegel_transform_count",
               "_execute"],
    "stability": ["covrad_lower", "is_stable", "alpha", "alpha_profile",
                  "in_s_k", "min_covolume"],
    "cli": ["main", "_write_csv", "_write_manifest", "_sha256"],
}
LAYER_OF_MODULE = {"rng": "sampling"}
SEARCHES = ("subgroups.minimal_subgroup", "subgroups.subgroups_within",
           "subgroups.exists_below")
HARNESS = "harness"

# span record fields
NAME, START, END, PARENT, RUN, DATA = range(6)


def _hook_data(name, args, result):
    """Per-call payload kept for the cross-checks and ratio counts."""
    if name == "sampling.sample_lattice":
        return args[0].stream
    if name in ("subgroups.exists_below", "subgroups.minimal_subgroup"):
        return (args[1], result if isinstance(result, bool) else result[0])
    if name == "subgroups.subgroups_within":
        return (args[2], [covol for covol, _ in result])
    if name == "lattice.closest_vector":
        return result.distance
    if name == "lattice.subgroup_covolume":
        return result
    if name in ("enumeration.short_vectors",
                "enumeration.primitive_half_vectors"):
        return len(result)
    return None


HOOKED = frozenset({
    "sampling.sample_lattice", "subgroups.exists_below",
    "subgroups.minimal_subgroup", "subgroups.subgroups_within",
    "lattice.closest_vector", "lattice.subgroup_covolume",
    "enumeration.short_vectors", "enumeration.primitive_half_vectors",
})


class Tracer:
    """In-memory span recorder; use as a context manager around traced work.

    ``spans`` is a list of [name, start, end, parent, run, data] records in
    call order. Each entry into the context opens a harness root span that
    encloses everything traced until the exit; a tracer may be entered
    several times and keeps accumulating.
    """

    def __init__(self, latstab_modules):
        self.modules = latstab_modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = 0
        self.counters: list[tuple] = []  # (NodeCounter, run id)
        self.candidates: dict[int, int] = {}
        self.useful: dict[int, int] = {}
        self._window = None  # [min covolume] of the current top candidate
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def open(self, name) -> list:
        rec = [name, perf_counter(), 0.0,
               self.stack[-1] if self.stack else -1, self.run, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec) -> None:
        rec[END] = perf_counter()
        self.stack.pop()

    def _wrap(self, name, func):
        spans = self.spans
        stack = self.stack
        hooked = name in HOOKED
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1], tracer.run, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = func(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if hooked:
                rec[DATA] = _hook_data(name, args, result)
                if name == "lattice.subgroup_covolume":
                    tracer._note_covolume(rec)
            return result

        return traced

    def _note_covolume(self, rec) -> None:
        window = self._window
        if window is not None and self.spans[rec[PARENT]][NAME] in SEARCHES:
            window[0] = min(window[0], rec[DATA])

    # -- search candidates ----------------------------------------------------

    def _wrap_candidates(self, orig, slack):
        code = orig.__code__
        tracer = self

        def counted(gen, search, mode):
            run = tracer.run
            for item in gen:
                before = search.threshold
                tracer.candidates[run] = tracer.candidates.get(run, 0) + 1
                window = [math.inf]
                tracer._window = window
                try:
                    yield item
                finally:
                    tracer._window = None
                    covol = window[0]
                    if mode == "minimal_subgroup":
                        useful = covol * slack < before
                    elif mode == "subgroups_within":
                        useful = covol <= before
                    else:
                        useful = covol < before
                    if useful:
                        tracer.useful[run] = tracer.useful.get(run, 0) + 1

        def candidates(*args, **kwargs):
            caller = sys._getframe(1).f_code
            gen = orig(*args, **kwargs)
            if caller is code:
                return gen  # a recursion level, not a candidate of the search
            return counted(gen, args[3], caller.co_name)

        return candidates

    # -- patching -------------------------------------------------------------

    def _replace_everywhere(self, orig, new) -> None:
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, new)

    def _patch_member(self, cls, attr, name) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, cached_property):
            prop = cached_property(self._wrap(name, raw.func))
            prop.__set_name__(cls, attr)
            new = prop
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__))
        else:
            new = self._wrap(name, raw)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, new)

    def __enter__(self):
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in self.modules}
        for modname, members in TRACED.items():
            mod = by_name[modname]
            layer = LAYER_OF_MODULE.get(modname, modname)
            for member in members:
                name = f"{layer}.{member}"
                if "." in member:
                    clsname, attr = member.split(".")
                    self._patch_member(getattr(mod, clsname), attr, name)
                else:
                    orig = getattr(mod, member)
                    self._replace_everywhere(orig, self._wrap(name, orig))
        subgroups = by_name["subgroups"]
        self._replace_everywhere(
            subgroups._candidates,
            self._wrap_candidates(subgroups._candidates, subgroups.SLACK))
        counter_cls = by_name["enumeration"].NodeCounter
        init = counter_cls.__init__
        tracer = self

        def counter_init(counter, *args, **kwargs):
            init(counter, *args, **kwargs)
            tracer.counters.append((counter, tracer.run))

        self._restore.append((counter_cls, "__init__", init))
        counter_cls.__init__ = counter_init
        self._root = self.open(HARNESS)
        return self

    def __exit__(self, *exc):
        self.close(self._root)
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()
        return False

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write every span as tab-separated text (times in microseconds
        from the root span's start)."""
        t0 = self.spans[0][START]
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("id\tname\tstart_us\tend_us\tparent\trun\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[NAME]}\t{(s[START] - t0) * 1e6:.1f}\t"
                         f"{(s[END] - t0) * 1e6:.1f}\t{s[PARENT]}\t{s[RUN]}\n")


# -- derived numbers ----------------------------------------------------------


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def run_counts(tracer: Tracer, run: int | None = None) -> dict[str, int]:
    """Exact machine-independent counts, for one run id or all of them."""
    counts: dict[str, int] = {}
    for s in tracer.spans:
        if run is None or s[RUN] == run:
            counts[s[NAME]] = counts.get(s[NAME], 0) + 1
    pick = (lambda r: True) if run is None else (lambda r: r == run)
    counts["enumeration.nodes"] = sum(c.nodes for c, r in tracer.counters
                                      if pick(r))
    counts["subgroups.candidates"] = sum(v for r, v in
                                         tracer.candidates.items() if pick(r))
    counts["subgroups.useful"] = sum(v for r, v in tracer.useful.items()
                                     if pick(r))
    counts["enumeration.vectors"] = sum(
        s[DATA] for s in tracer.spans
        if s[NAME] == "enumeration.short_vectors" and pick(s[RUN]))
    counts["enumeration.primitive"] = sum(
        s[DATA] for s in tracer.spans
        if s[NAME] == "enumeration.primitive_half_vectors" and pick(s[RUN]))
    return dict(sorted(counts.items()))


def lattices(tracer: Tracer):
    """Per-lattice records of the traced run, in draw order.

    A lattice starts at a draw made directly by a pass (a ``siegel._execute``
    span) or by a CLI command; it ends at the next such draw or at the end
    of the pass. Each record carries the pass span, the stream index, the
    interval and the hooked results of the calls made for the lattice.
    """
    spans = tracer.spans
    out = []
    current = None
    for s in spans:
        name = s[NAME]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        if name == "sampling.sample_lattice" and parent in ("siegel._execute",
                                                            "cli.main"):
            current = {"pass": s[PARENT], "run": s[RUN], "stream": s[DATA],
                       "start": s[START], "results": []}
            out.append(current)
        elif current is not None and s[DATA] is not None and name in (
                "subgroups.exists_below", "subgroups.subgroups_within",
                "subgroups.minimal_subgroup", "lattice.closest_vector"):
            current["results"].append((name, s[DATA]))
    for j, rec in enumerate(out):
        nxt = out[j + 1] if j + 1 < len(out) else None
        if nxt is not None and nxt["pass"] == rec["pass"]:
            rec["end"] = nxt["start"]
        else:
            rec["end"] = spans[rec["pass"]][END]
    return out


def _pct(values, q):
    """Linear-interpolation percentile of a non-empty list."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def layer_metrics(tracer: Tracer, n_lattices: int,
                  n_commands: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: name -> (value, unit)."""
    spans = tracer.spans
    own = self_times(spans)
    counts = run_counts(tracer)
    ms_by_name: dict[str, float] = {}
    ms_by_layer: dict[str, float] = {}
    for s, t in zip(spans, own):
        if s[NAME] == HARNESS:
            continue  # the root encloses patching, not traced work
        ms_by_name[s[NAME]] = ms_by_name.get(s[NAME], 0.0) + 1e3 * t
        layer = layer_of(s[NAME])
        ms_by_layer[layer] = ms_by_layer.get(layer, 0.0) + 1e3 * t

    def c(name):
        return counts.get(name, 0)

    def ms(*names):
        return sum(ms_by_name.get(n, 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    gso_in_lll = sum(1 for s in spans if s[NAME] == "reduction.gso"
                     and spans[s[PARENT]][NAME] == "reduction.lll_rows")
    per_lattice = lattices(tracer)
    lat_ms = [1e3 * (r["end"] - r["start"]) for r in per_lattice]
    slowest = max(per_lattice, key=lambda r: r["end"] - r["start"])

    m = {
        "sampling.draws": (c("sampling.sample_lattice"), "count"),
        "sampling.draw_ms": (ms_by_layer.get("sampling", 0.0), "ms"),
        "sampling.draws_per_lattice":
            (ratio(c("sampling.sample_lattice"), n_lattices), "ratio"),
        "lattice.constructs": (c("lattice.Lattice.__post_init__"), "count"),
        "lattice.construct_ms": (ms("lattice.Lattice.__post_init__",
                                    "lattice.Lattice.from_exact",
                                    "lattice.Lattice.from_rows"), "ms"),
        "lattice.covolume_calls": (c("lattice.subgroup_covolume"), "count"),
        "lattice.covolume_ms": (ms("lattice.subgroup_covolume"), "ms"),
        "lattice.exact_det_calls":
            (c("lattice.exact_gram_determinant"), "count"),
        "lattice.exact_det_ms": (ms("lattice.exact_gram_determinant"), "ms"),
        "lattice.saturate_calls": (c("lattice.saturate"), "count"),
        "lattice.saturate_ms": (ms("lattice.saturate"), "ms"),
        "lattice.cvp_calls": (c("lattice.closest_vector"), "count"),
        "lattice.cvp_ms": (ms("lattice.closest_vector"), "ms"),
        "lattice.self_ms": (ms_by_layer.get("lattice", 0.0), "ms"),
        "reduction.lll_calls": (c("reduction.lll_rows"), "count"),
        "reduction.lll_ms": (ms("reduction.lll_rows"), "ms"),
        "reduction.gso_calls": (c("reduction.gso"), "count"),
        "reduction.gso_ms": (ms("reduction.gso"), "ms"),
        "reduction.gso_per_lll":
            (ratio(gso_in_lll, c("reduction.lll_rows")), "ratio"),
        "reduction.babai_calls": (c("reduction.nearest_plane"), "count"),
        "reduction.babai_ms": (ms("reduction.nearest_plane"), "ms"),
        "reduction.self_ms": (ms_by_layer.get("reduction", 0.0), "ms"),
        "enumeration.svp_calls": (c("enumeration.short_vectors"), "count"),
        "enumeration.svp_ms": (ms("enumeration.short_vectors"), "ms"),
        "enumeration.nodes": (c("enumeration.nodes"), "count"),
        "enumeration.vectors": (c("enumeration.vectors"), "count"),
        "enumeration.primitive_ratio":
            (ratio(c("enumeration.primitive"), c("enumeration.vectors")),
             "ratio"),
        "enumeration.cvp_calls": (c("enumeration.close_vectors"), "count"),
        "enumeration.cvp_ms": (ms("enumeration.close_vectors"), "ms"),
        "enumeration.self_ms": (ms_by_layer.get("enumeration", 0.0), "ms"),
        "intmat.saturation_calls": (c("intmat.saturation"), "count"),
        "intmat.saturation_ms": (ms("intmat.saturation"), "ms"),
        "intmat.hnf_ms": (ms("intmat.hnf_rows"), "ms"),
        "intmat.bareiss_calls": (c("intmat.bareiss_det"), "count"),
        "intmat.bareiss_ms": (ms("intmat.bareiss_det"), "ms"),
        "intmat.matmul_ms": (ms("intmat.matmul"), "ms"),
        "intmat.complete_row_ms": (ms("intmat.complete_primitive_row"), "ms"),
        "intmat.adjugate_calls": (c("intmat.adjugate"), "count"),
        "intmat.self_ms": (ms_by_layer.get("intmat", 0.0), "ms"),
        "subgroups.calls": (sum(c(d) for d in SEARCHES), "count"),
        "subgroups.self_ms": (ms_by_layer.get("subgroups", 0.0), "ms"),
        "subgroups.candidates": (c("subgroups.candidates"), "count"),
        "subgroups.useful_per_candidate":
            (ratio(c("subgroups.useful"), c("subgroups.candidates")),
             "ratio"),
        "siegel.self_ms": (ms_by_layer.get("siegel", 0.0), "ms"),
        "siegel.passes": (ratio(c("siegel._execute"), n_commands),
                          "1/command"),
        "siegel.lattice_ms_p50": (_pct(lat_ms, 50), "ms"),
        "siegel.lattice_ms_p99": (_pct(lat_ms, 99), "ms"),
        "siegel.slowest_stream": (slowest["stream"], "index"),
        "stability.self_ms": (ms_by_layer.get("stability", 0.0), "ms"),
        "constants.ms": (ms_by_layer.get("constants", 0.0), "ms"),
        "cli.output_ms": (ms("cli._write_csv", "cli._write_manifest",
                             "cli._sha256"), "ms"),
        "cli.self_ms": (ms_by_layer.get("cli", 0.0), "ms"),
        "trace.harness_ms": (ms_by_layer.get(HARNESS, 0.0), "ms"),
        "trace.spans": (len(spans), "count"),
    }
    return m
