"""Spans around the public functions and methods of each gaugeworks layer.

The benchmark wraps the library from outside: each wrapped callable records
one span (name, start, end, parent) in memory, and self time is a span's
duration minus the time its child spans cover.  Constructions of the two
matrix classes are counted, not spanned.  Functions are patched at every
module that binds them by name (``cli`` imports most of its callees that
way), classes once on the class itself.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# (layer, module, names); "Class.method" patches a method on the class.
LAYERS = [
    ("qmat.elim", "gaugeworks.exactlinalg.qmat", [
        "QMat.rref", "QMat.rank", "QMat.kernel", "QMat.solve", "QMat.det",
        "QMat.inverse", "QMat.column_space_basis", "QMat.in_column_span",
        "span_union", "intersect_spans"]),
    ("qmat.arith", "gaugeworks.exactlinalg.qmat", [
        "QMat.__add__", "QMat.__sub__", "QMat.__neg__", "QMat.scale",
        "QMat.__matmul__", "QMat.apply", "QMat.hstack", "QMat.vstack",
        "QMat.take_cols", "QMat.take_rows", "QMat.transpose", "kron"]),
    ("fpmat.elim", "gaugeworks.exactlinalg.fpmat", [
        "FpMat.rref", "FpMat.rank", "FpMat.kernel", "FpMat.solve",
        "FpMat.column_space_basis", "FpMat.inverse", "FpMat.is_invertible",
        "fp_span_union", "fp_homology_two_term", "quotient_projection"]),
    ("fpmat.matmul", "gaugeworks.exactlinalg.fpmat", [
        "FpMat.__matmul__", "FpMat.power", "fp_kron"]),
    ("fpmat.arith", "gaugeworks.exactlinalg.fpmat", [
        "FpMat.__add__", "FpMat.__sub__", "FpMat.__neg__", "FpMat.scale",
        "FpMat.hstack", "FpMat.vstack", "FpMat.take_cols", "FpMat.take_rows",
        "FpMat.transpose"]),
    ("snf", "gaugeworks.exactlinalg.snf", ["smith_normal_form", "kernel_over_zp"]),
    ("modules.homology", "gaugeworks.exactlinalg.modules", [
        "kernel", "cokernel", "homology_two_term"]),
    ("modules.map_new", "gaugeworks.exactlinalg.modules", ["ModuleMap.__init__"]),
    ("rationals.check_prime", "gaugeworks.exactlinalg.rationals", ["check_prime"]),
    ("filphi.rhom", "gaugeworks.filphi", ["rhom_mfphi"]),
    ("filphi.admissible", "gaugeworks.filphi", ["is_weakly_admissible"]),
    ("filphi", "gaugeworks.filphi", [
        "PhiModule.__init__", "FilteredSpace.__init__", "FilteredPhiModule.__init__",
        "FilteredSpace.from_subspaces", "rhom_phi", "rhom_mfphi_two_term", "tate",
        "newton_number", "hodge_number", "tensor", "dual", "internal_hom"]),
    ("beilinson.cartesian", "gaugeworks.beilinson", ["verify_cartesian"]),
    ("beilinson.fm_fibre", "gaugeworks.beilinson", ["fm_fibre"]),
    ("beilinson", "gaugeworks.beilinson", [
        "corners", "SquareData.__init__", "SquareData.corner_dims"]),
    ("fgauge.build", "gaugeworks.fgauge", [
        "FpGauge.__init__", "FCrystalPoint.__init__", "gauge_from_fcrystal",
        "twist_gauge", "extend_window", "direct_sum"]),
    ("fgauge.validate", "gaugeworks.fgauge", ["validate"]),
    ("fgauge.cohomology", "gaugeworks.fgauge", ["syntomic_cohomology"]),
    ("fgauge.weights", "gaugeworks.fgauge", ["hodge_tate_weights"]),
    ("fgauge.realization", "gaugeworks.fgauge", ["rational_realization"]),
    ("redlocus.build", "gaugeworks.redlocus.components", [
        "ThetaModule.__init__", "GradedThetaModule.__init__",
        "A1Module.__init__", "FilThetaModule.__init__"]),
    ("redlocus.build", "gaugeworks.redlocus.gluing", ["ReducedFGauge.__init__"]),
    ("redlocus.build", "gaugeworks.redlocus.bk", [
        "A1Flag.__init__", "A1Flag.to_module", "A1Flag.from_module",
        "bk_flag", "bk_filtheta", "bk_reduced"]),
    ("redlocus.cohomology", "gaugeworks.redlocus.gluing", ["reduced_syntomic_cohomology"]),
    ("redlocus.cohomology", "gaugeworks.redlocus.components", [
        "coh_dR", "coh_Hod", "coh_HTc", "coh_dRplus"]),
    ("redlocus.tensor_dual", "gaugeworks.redlocus.bk", [
        "tensor_reduced", "dual_reduced", "A1Flag.tensor", "A1Flag.dual"]),
    ("higgs", "gaugeworks.higgs", [
        "GradedHiggsModule.__init__", "check_higgs", "koszul_differential",
        "hodge_cohomology"]),
    ("cli", "gaugeworks.cli", [
        "main", "run_job", "_run_file", "build_filphi", "build_fgauge",
        "build_reduced", "build_higgs", "_build_module", "_rational_matrix",
        "_int_matrix", "table_tate", "table_bk", "table_weights"]),
]
COUNTED = [
    ("qmat.new", "gaugeworks.exactlinalg.qmat", "QMat.__init__"),
    ("fpmat.new", "gaugeworks.exactlinalg.fpmat", "FpMat.__init__"),
]
ROOT = "unattributed"


def _entry_bits(result) -> int:
    """Largest numerator or denominator bit length in an elimination result."""
    best = 0
    stack = [result]
    while stack:
        x = stack.pop()
        if isinstance(x, Fraction):
            best = max(best, abs(x.numerator).bit_length(), x.denominator.bit_length())
        elif isinstance(x, tuple):
            stack.extend(x)
        elif hasattr(x, "rows") and hasattr(x, "nrows"):
            for row in x.rows:
                for v in row:
                    if isinstance(v, Fraction):
                        best = max(best, abs(v.numerator).bit_length(),
                                   v.denominator.bit_length())
    return best


class Tracer:
    """In-memory span recorder; ``install`` patches the library, ``uninstall`` undoes it."""

    def __init__(self):
        # span i: names[i], starts[i], ends[i], parents[i] (-1 for a root)
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: list[list] = []       # [child-covered seconds, span index]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.max_entry_bits = 0
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args=(), kwargs=None, post=None):
        stack = self._stack
        idx = len(self.names)
        parent = stack[-1] if stack else None
        self.names.append(name)
        self.parents.append(parent[1] if parent else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        frame = [0.0, idx]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            self.self_s[name] += dur - frame[0]
            self.calls[name] += 1
            self.starts[idx] = start
            self.ends[idx] = end
            if parent is not None:
                parent[0] += dur
        if post is not None:
            t0 = perf_counter()
            post(result)
            if parent is not None:  # keep the tracer's own work out of every self time
                parent[0] += perf_counter() - t0
        return result

    def _wrap(self, name: str, fn):
        tracer = self
        post = None
        if name == "qmat.elim":
            def post(result):
                tracer.max_entry_bits = max(tracer.max_entry_bits, _entry_bits(result))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "snf" and args and hasattr(args[0], "nrows"):
                tracer.counts["snf.entries"] += args[0].nrows * args[0].ncols
            return tracer.call(name, fn, args, kwargs, post)
        return wrapper

    def _counting(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, module_name: str, attr: str, make):
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, new)
            return
        orig = getattr(module, attr)
        new = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gaugeworks" or mod_name.startswith("gaugeworks.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, new)

    def install(self):
        for layer, module_name, names in LAYERS:
            for attr in names:
                self._patch(module_name, attr, lambda fn, n=layer: self._wrap(n, fn))
        for name, module_name, attr in COUNTED:
            self._patch(module_name, attr, lambda fn, n=name: self._counting(n, fn))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def write(self, path):
        """Spans as gzipped JSON lines: [name, start, end, parent index]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(f'["{name}",{start:.9f},{end:.9f},{parent}]\n')
