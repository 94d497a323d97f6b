"""In-memory tracing of mzeta from the outside.

install() replaces public names of the package with timing wrappers, at the
place each caller looks the name up: the module attribute for callers that
write ``zeta.joint_distribution``, the importing module's own global for
callers that did ``from .poly import gaussian_binomial``, the class attribute
for methods, and the dispatch dicts of the CLI for the verify checks.

Three kinds of wrapper exist, chosen by how often a name is called:

* spans: one record per call (name, op id, parent id, start, end), for the
  layer boundaries that run a handful of times per op;
* frames: the same bookkeeping without a record, for names called thousands
  of times (polynomial products, cell-set scans), aggregated by name;
* enumerators: a generator that times each ``next()`` and counts objects.

Every call pushes a frame, so a parent's self time is its duration minus the
time its children (recorded or not) were on the stack.  Recursive or
re-entrant calls of the same name are passed straight through, so busy time
counts the outermost call once.
"""
from __future__ import annotations

import itertools
import json
from collections import Counter, defaultdict
from time import perf_counter

JD = "zeta.joint_distribution"
SCAN = "zeta.unitary_factor_scan"

# CLI name of each verify check, as reported in the per-layer metrics.
VERIFY_CHECKS = (
    "euler-mahonian-a",
    "euler-mahonian-den",
    "lemma42",
    "lemma43",
    "hadamard",
    "reciprocity",
    "b-equidistribution",
    "d-equidistribution",
)

# The cell-set functions of mzeta.admissible, timed together as one layer.
CELL_SETS = (
    "n_plus_split",
    "n_minus_set",
    "n_minus_row",
    "n_plus_high_row",
    "m_sets",
    "u_set",
    "u_inv_set",
    "i_set",
    "iexc",
)

DOMAINS = ("words", "admissible", "B", "D")

# Spans that only wrap other layers' calls; their self time is unattributed.
CONTAINERS = ("cli.main", "zeta.RationalW.for_composition", "zeta.conjecture_report")


class Frame:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "child", "objects", "enum_s", "kernels", "attrs")

    def __init__(self, fid, parent, op, name, start):
        self.id = fid
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = start
        self.child = 0.0
        self.objects = 0
        self.enum_s = 0.0
        self.kernels = None
        self.attrs = None


class Tracer:
    """Spans and counters of one pass, held in memory until the pass ends."""

    def __init__(self):
        self.spans: list[Frame] = []
        self.busy = defaultdict(float)   # name -> time in outermost calls
        self.self_s = defaultdict(float)  # name -> busy minus children
        self.calls = Counter()            # name -> outermost calls
        self.under = Counter()            # (name, parent name) -> calls
        self.under_s = defaultdict(float)  # (name, parent name) -> time
        self.objects = Counter()          # enumerator -> objects yielded
        self._active = Counter()
        self._ids = itertools.count(1)
        self._enum_depth = 0
        self.stack: list[Frame] = []

    # -- ops -------------------------------------------------------------
    def run_op(self, op_id: int, key: str, fn):
        """Run one op under a root frame; the root's children are the covered time."""
        root = Frame(next(self._ids), 0, op_id, "op", perf_counter())
        root.attrs = {"key": key}
        self.stack.append(root)
        try:
            return fn()
        finally:
            root.end = perf_counter()
            self.stack.pop()
            self.spans.append(root)

    # -- wrappers --------------------------------------------------------
    def _call(self, name, record, fn, args, kwargs, on_exit=None):
        if self._active[name] or not self.stack:
            return fn(*args, **kwargs)
        parent = self.stack[-1]
        frame = Frame(next(self._ids), parent.id, parent.op, name, perf_counter())
        self.stack.append(frame)
        self._active[name] += 1
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            frame.end = end = perf_counter()
            self.stack.pop()
            self._active[name] -= 1
            dur = end - frame.start
            parent.child += dur
            self.busy[name] += dur
            self.self_s[name] += dur - frame.child
            self.calls[name] += 1
            key = (name, parent.name)
            self.under[key] += 1
            self.under_s[key] += dur
            if on_exit is not None:
                on_exit(frame, args, kwargs, result)
            if record:
                self.spans.append(frame)

    def wrap(self, name, fn, record=True, on_exit=None):
        def wrapper(*args, **kwargs):
            return self._call(name, record, fn, args, kwargs, on_exit)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def count_calls(self, name, fn):
        """Count calls on the enclosing frame, without timing them."""
        stack = self.stack

        def wrapper(*args, **kwargs):
            if stack:
                top = stack[-1]
                if top.kernels is None:
                    top.kernels = Counter()
                top.kernels[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def enumerator(self, name, genfn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._iterate(name, genfn(*args, **kwargs))

        wrapper.__wrapped__ = genfn
        return wrapper

    def _iterate(self, name, it):
        stack = self.stack
        busy = 0.0
        count = 0
        done = object()
        # An enumerator started inside another one (signed_perms under
        # even_signed_perms) is part of the outer one's work, so only an
        # outermost enumerator adds to its name's totals.
        outermost = self._enum_depth == 0
        try:
            while True:
                outer = self._enum_depth == 0
                self._enum_depth += 1
                t0 = perf_counter()
                try:
                    item = next(it, done)
                finally:
                    dt = perf_counter() - t0
                    self._enum_depth -= 1
                busy += dt
                if outer and stack:
                    top = stack[-1]
                    top.child += dt
                    top.enum_s += dt
                    if item is not done:
                        top.objects += 1
                if item is done:
                    return
                count += 1
                yield item
        finally:
            if outermost:
                self.busy[name] += busy
                self.objects[name] += count

    # -- results ---------------------------------------------------------
    def unattributed_s(self, pass_s: float) -> float:
        """Time of the pass that no layer span covers: the harness time
        around each op, plus the self time of the container spans, which wrap
        whole commands or pipelines and do no layer's work of their own."""
        covered = sum(f.child for f in self.spans if f.name == "op")
        return pass_s - covered + sum(self.self_s[name] for name in CONTAINERS)

    def dump(self, path) -> None:
        rows = [
            [f.id, f.parent, f.op, f.name, f.start, f.end, f.attrs] for f in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start", "end", "attrs"], "spans": rows}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the public names of every mzeta layer where their callers find them."""
    from mzeta import admissible, cli, multiset, poly, signed, verify, zeta

    for mod, name in (
        (multiset, "words"),
        (admissible, "admissible_perms"),
        (signed, "signed_perms"),
        (signed, "even_signed_perms"),
    ):
        setattr(mod, name, tracer.enumerator(f"{mod.__name__[6:]}.{name}", getattr(mod, name)))

    def jd_exit(frame, args, kwargs, result):
        frame.attrs = {
            "domain": args[0],
            "pair": list(args[1]),
            "objects": frame.objects,
            "kernels": dict(frame.kernels or {}),
        }

    def scan_exit(frame, args, kwargs, result):
        bounds = args[1]
        directions = 1 + bounds.max_b * (bounds.max_a + 1)
        frame.attrs = {
            "candidates": directions * bounds.max_d,
            "hits": len(result) if result is not None else 0,
        }

    spans = {
        "joint_distribution": jd_exit,
        "w_numerator": None,
        "hadamard_check": None,
        "reciprocity_check": None,
        "conjecture_report": None,
        "unitary_factor_scan": scan_exit,
        "hadamard_series_coefficient": None,
    }
    for name, on_exit in spans.items():
        setattr(zeta, name, tracer.wrap(f"zeta.{name}", getattr(zeta, name), on_exit=on_exit))

    rw = zeta.RationalW
    rw.for_composition = classmethod(
        tracer.wrap("zeta.RationalW.for_composition", rw.__dict__["for_composition"].__func__)
    )
    rw.series = tracer.wrap("zeta.RationalW.series", rw.series)
    rw.evaluate = tracer.wrap("zeta.RationalW.evaluate", rw.evaluate)

    # Polynomial layer: frames only, these run thousands of times per pass.
    mul = tracer.wrap("poly.UniPoly.mul", poly.UniPoly.__mul__, record=False)
    poly.UniPoly.__mul__ = mul
    poly.UniPoly.__rmul__ = mul
    poly.UniPoly.div_exact = tracer.wrap("poly.UniPoly.div_exact", poly.UniPoly.div_exact, record=False)
    poly.BiPoly.divide_exact = tracer.wrap(
        "poly.BiPoly.divide_exact", poly.BiPoly.divide_exact, record=False
    )
    poly.BiPoly.__init__ = tracer.wrap("poly.BiPoly.init", poly.BiPoly.__init__, record=False)
    gauss = tracer.wrap("poly.gaussian_binomial", poly.gaussian_binomial, record=False)
    poly.gaussian_binomial = gauss
    zeta.gaussian_binomial = gauss
    # cyclotomic keeps its lru_cache underneath; the wrapper only times it.
    poly.cyclotomic = tracer.wrap("poly.cyclotomic", poly.cyclotomic, record=False)
    cim = tracer.wrap("poly.cyclotomic_in_monomial", poly.cyclotomic_in_monomial, record=False)
    poly.cyclotomic_in_monomial = cim
    zeta.cyclotomic_in_monomial = cim

    for name in CELL_SETS:
        setattr(admissible, name, tracer.wrap("admissible.cell_sets", getattr(admissible, name), record=False))

    signed.b_stats = tracer.count_calls("signed.b_stats", signed.b_stats)
    signed.d_stats = tracer.count_calls("signed.d_stats", signed.d_stats)

    for table in (cli.CHECKS_BY_ETA, cli.CHECKS_BY_N):
        for check, fn in list(table.items()):
            wrapped = tracer.wrap(f"verify.{check}", fn)
            table[check] = wrapped
            setattr(verify, fn.__name__, wrapped)

    cli.main = tracer.wrap("cli.main", cli.main)
    cli.build_parser = tracer.wrap("cli.build_parser", cli.build_parser)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hit_ratio(fn) -> float:
    info = fn.cache_info()
    return _ratio(info.hits, info.hits + info.misses)


def layer_metrics(tracer: Tracer, pass_s: float, sanity_key: str) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see BENCHMARK.json)."""
    from mzeta import admissible, poly

    t = tracer
    out: dict[str, float] = {}
    for name in ("multiset.words", "admissible.admissible_perms", "signed.signed_perms"):
        out[f"{name}.busy_s"] = t.busy[name]
        out[f"{name}.objects"] = t.objects[name]
    out["signed.even_signed_perms.objects"] = t.objects["signed.even_signed_perms"]

    jd_spans = [f for f in t.spans if f.name == JD]
    for kernel, domain in (("signed.d_stats", "D"), ("signed.b_stats", "B")):
        spans = [f for f in jd_spans if f.attrs["domain"] == domain]
        calls = sum(f.attrs["kernels"].get(kernel, 0) for f in spans)
        out[f"{kernel}.calls_per_object"] = _ratio(calls, sum(f.attrs["objects"] for f in spans))

    out[f"{JD}.self_s"] = t.self_s[JD]
    for domain in DOMAINS:
        spans = [f for f in jd_spans if f.attrs["domain"] == domain]
        self_s = sum(f.end - f.start - f.child for f in spans)
        objects = sum(f.attrs["objects"] for f in spans)
        out[f"{JD}.self_ns_per_object.{domain}"] = _ratio(self_s * 1e9, objects)

    out["zeta.w_numerator.self_s"] = t.self_s["zeta.w_numerator"]
    for name in ("zeta.hadamard_check", "zeta.reciprocity_check", "zeta.RationalW.series"):
        out[f"{name}.busy_s"] = t.busy[name]

    scans = [f for f in t.spans if f.name == SCAN]
    divisions = t.under[("poly.BiPoly.divide_exact", SCAN)]
    hits = sum(f.attrs["hits"] for f in scans)
    out[f"{SCAN}.busy_s"] = t.busy[SCAN]
    out[f"{SCAN}.candidates"] = sum(f.attrs["candidates"] for f in scans)
    out[f"{SCAN}.divisions"] = divisions
    out[f"{SCAN}.hits"] = hits
    out[f"{SCAN}.hits_per_division"] = _ratio(hits, divisions)

    out["poly.UniPoly.mul.calls"] = t.calls["poly.UniPoly.mul"]
    out["poly.UniPoly.mul.busy_s"] = t.busy["poly.UniPoly.mul"]
    out["poly.UniPoly.div_exact.calls"] = t.calls["poly.UniPoly.div_exact"]
    out["poly.BiPoly.divide_exact.calls"] = t.calls["poly.BiPoly.divide_exact"]
    out["poly.BiPoly.divide_exact.busy_s"] = t.busy["poly.BiPoly.divide_exact"]
    out["poly.gaussian_binomial.busy_s"] = t.busy["poly.gaussian_binomial"]
    out["poly.cyclotomic.busy_s"] = t.busy["poly.cyclotomic"]
    out["poly.BiPoly.init.busy_s"] = t.under_s[("poly.BiPoly.init", JD)]
    # The wrappers hide cache_info(); read it from the cached function underneath.
    out["poly.totient.hit_ratio"] = _hit_ratio(poly.totient)
    out["poly.cyclotomic.hit_ratio"] = _hit_ratio(poly.cyclotomic.__wrapped__)
    out["admissible.block_lookup.hit_ratio"] = _hit_ratio(admissible.block_lookup)

    out["admissible.cell_sets.busy_s"] = t.busy["admissible.cell_sets"]
    out["admissible.cell_sets.calls"] = t.calls["admissible.cell_sets"]
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.busy_s"] = t.busy[f"verify.{check}"]
        out[f"verify.{check}.self_s"] = t.self_s[f"verify.{check}"]
    out["cli.main.self_s"] = t.self_s["cli.main"]
    out["cli.build_parser.busy_s"] = t.busy["cli.build_parser"]

    out["trace.unattributed_s"] = t.unattributed_s(pass_s)
    out.update(_sanity_row(t, jd_spans, sanity_key))
    return out


def _sanity_row(t: Tracer, jd_spans: list[Frame], key: str) -> dict[str, float]:
    """Re-anchor figures for eta = 1^9: the two numerator routes and enumeration."""
    row = {"sanity.ones9.den_iexc_s": 0.0, "sanity.ones9.maj_des_s": 0.0, "sanity.ones9.enum_admissible_s": 0.0}
    ops = {f.op for f in t.spans if f.name == "op" and f.attrs["key"] == key}
    for f in jd_spans:
        if f.op not in ops:
            continue
        if f.attrs["pair"] == ["den", "iexc"]:
            row["sanity.ones9.den_iexc_s"] += f.end - f.start
            row["sanity.ones9.enum_admissible_s"] += f.enum_s
        elif f.attrs["pair"] == ["maj", "des"]:
            row["sanity.ones9.maj_des_s"] += f.end - f.start
    return row

