"""Batch front-end: job files in, tables and machine-readable reports out.

A job file is one JSON document (matrices of exact rationals are arrays of
strings "num/den"; nothing ever passes through floating point):

    {"format": 1, "prime": 3, "kind": "filphi", "payload": {...},
     "outputs": [...]}            # outputs optional

Verbs: ``compute`` runs jobs and prints one deterministic text block per
job (optionally writing a JSON report mirroring the input with computed
fields), ``check`` runs the same jobs, each with its own ``outputs``, but
prints only ``ok: <file>`` for each one that succeeds, ``table`` prints the
built-in reference tables for the twist families.  Exit codes: 0 success,
1 for schema violations (the message names the field), 2 for mathematical
law violations (the message quotes the law).  Identical input bytes produce
identical output bytes; ``--jobs N`` only parallelizes across job files.

The environment variable GAUGEWORKS_SEED is reserved for randomized test
corpus generation and is never read by any computation here.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from functools import cache, partial

from .beilinson import corners, fm_fibre, verify_cartesian
from .errors import LawViolation, SchemaError
from .exactlinalg import (FGModule, FpMat, ModuleMap, QMat, check_prime,
                          format_rational)
from .exactlinalg.fpmat import residues
from .exactlinalg.rationals import exact_int, format_ratio, rational_entry
from .fgauge import (FCrystalPoint, FpGauge, gauge_from_fcrystal,
                     hodge_tate_weights, rational_realization,
                     syntomic_cohomology, twist_gauge)
from .filphi import (FilteredPhiModule, FilteredSpace, hodge_number,
                     is_weakly_admissible, newton_number, rhom_mfphi, tate)
from .higgs import GradedHiggsModule, hodge_cohomology
from .redlocus import (A1Module, FilThetaModule, ReducedFGauge, bk_reduced,
                       reduced_syntomic_cohomology)

DEFAULT_OUTPUTS = {
    "filphi": ("cohomology", "newton", "hodge", "admissible"),
    "square": ("corners", "residual", "fm"),
    "fgauge": ("validate", "cohomology", "weights", "realization"),
    "reduced": ("components", "cohomology"),
    "higgs": ("check", "cohomology"),
}
KINDS = tuple(DEFAULT_OUTPUTS)


# ---------------------------------------------------------------------------
# the job reader
# ---------------------------------------------------------------------------


class _Field:
    """A value of a job document with its path, which names it in a schema error.

    Each method is one leaf kind: it checks the value's JSON type and reads
    it, or steps to a child, whose path is built once, from this one.
    """

    __slots__ = ("value", "path")

    def __init__(self, value, path: str):
        self.value, self.path = value, path

    def fail(self, message: str):
        raise SchemaError(self.path, message)

    def dict(self) -> dict:
        if not isinstance(self.value, dict):
            self.fail(f"expected an object, got {self.value!r}")
        return self.value

    def need(self, name: str) -> _Field:
        if name not in self.dict():
            raise SchemaError(f"{self.path}.{name}", "missing required field")
        return _Field(self.value[name], f"{self.path}.{name}")

    def get(self, name: str, default) -> _Field:
        return _Field(self.dict().get(name, default), f"{self.path}.{name}")

    def list(self, n: int | None = None, noun: str = "entries") -> list:
        """The list, of exactly ``n`` items when ``n`` is given (printed at any size)."""
        if not isinstance(self.value, list):
            self.fail(f"expected a list, got {self.value!r}")
        if n is not None and len(self.value) != n:
            self.fail(f"expected {format_rational(n)} {noun}")
        return self.value

    def each(self, n: int | None = None, noun: str = "entries") -> list[_Field]:
        return [_Field(x, f"{self.path}[{k}]") for k, x in enumerate(self.list(n, noun))]

    def keyed(self, what: str):
        """``(int(key), child)`` for each key of the object, in order.

        A key is the integer's own spelling, ``str(int(key)) == key``, so no
        two keys name the same integer ("+2", "02" and " 2" are bad keys).
        """
        for key, value in self.dict().items():
            try:
                k = int(key)
            except ValueError:  # not an integer, or past the digit limit
                k = None
            if k is None or str(k) != key:
                self.fail(f"bad {what} key {key!r}")
            yield k, _Field(value, f"{self.path}[{key}]")

    def int(self) -> int:
        try:
            return exact_int(self.value)
        except ValueError as err:
            self.fail(str(err))

    def window(self) -> tuple[int, int]:
        if not (isinstance(self.value, list) and len(self.value) == 2):
            self.fail("expected [lo, hi]")
        lo, hi = (end.int() for end in self.each())
        if lo > hi:
            self.fail(f"expected lo <= hi, got [{lo}, {hi}]")
        return lo, hi

    def width(self) -> int:
        """Length of the first row of a matrix given as a list of rows (0 if none)."""
        rows = self.list()
        return len(_Field(rows[0], f"{self.path}[0]").list()) if rows else 0

    def rationals(self, rows: int, cols: int) -> QMat:
        return _rational_matrix(self.value, rows, cols, self.path)

    def mod(self, p: int, rows: int, cols: int, seen: dict) -> FpMat:
        return _int_matrix(p, self.value, rows, cols, self.path, seen)


@contextmanager
def _schema(path: str):
    try:
        yield
    except LawViolation:
        raise
    except ValueError as err:
        raise SchemaError(path, str(err)) from None


def _matrix(data, rows: int, cols: int, path: str, build, entry):
    """``build(data)`` once ``data`` is a list of ``rows`` rows of ``cols`` entries each.

    When ``build`` raises ValueError, ``entry`` re-reads the entries one by one,
    so the first bad one is named at its own path; no other path is built.
    """
    if not isinstance(data, list) or len(data) != rows:
        raise SchemaError(path, f"expected {rows} rows")
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{path}[{i}]", f"expected a row of length {cols}")
    try:
        return build(data)
    except ValueError:
        for i, row in enumerate(data):
            for j, x in enumerate(row):
                with _schema(f"{path}[{i}][{j}]"):
                    entry(x)
        raise


def _rational_matrix(data, rows: int, cols: int, path: str) -> QMat:
    """The matrix of rational entries, each read by ``QMat``'s one entry rule."""
    return _matrix(data, rows, cols, path, lambda d: QMat(d, cols), rational_entry)


def _int_matrix(p: int, data, rows: int, cols: int, path: str, seen: dict) -> FpMat:
    """The matrix of JSON ints mod p, read by ``fpmat.residues``.

    ``seen`` holds the matrices read so far from one document, so equal matrices
    there are one object (and compare by identity).
    """
    key = (_matrix(data, rows, cols, path, partial(residues, p),
                   lambda x: residues(p, [[x]])), cols)
    m = seen.get(key)
    if m is None:
        m = seen[key] = FpMat._made(p, *key)
    return m


# ---------------------------------------------------------------------------
# payload builders
# ---------------------------------------------------------------------------


def build_filphi(p: int, payload: dict) -> FilteredPhiModule:
    pl = _Field(payload, "payload")
    if "tate" in payload:
        return tate(pl.need("tate").int(), p)
    dim = pl.need("dim").int()
    frob = pl.need("frobenius").rationals(dim, dim)
    fil = pl.need("filtration")
    lo, hi = fil.need("window").window()
    dims = fil.need("dims").each(hi - lo + 1)
    sizes = [d.int() for d in dims]
    if sizes and sizes[0] != dim:
        dims[0].fail("must equal the underlying dimension")
    trans = fil.get("transitions", []).each(hi - lo, "matrices")
    transitions = tuple(t.rationals(sizes[k], sizes[k + 1]) for k, t in enumerate(trans))
    with _schema(fil.path):
        return FilteredPhiModule(p, FilteredSpace(lo, hi, tuple(sizes), transitions), frob)


def _build_module(p: int, data: _Field) -> FGModule:
    free = data.need("free").int()
    torsion = tuple(e.int() for e in data.get("torsion", []).each())
    with _schema(data.path):
        return FGModule(p, free, torsion)


def build_fgauge(p: int, payload: dict) -> FpGauge:
    pl = _Field(payload, "payload")
    if "fcrystal" in payload:
        fc = pl.need("fcrystal")
        rank = fc.need("rank").int()
        return gauge_from_fcrystal(FCrystalPoint(p, rank, fc.need("tau").rationals(rank, rank)))
    a, b = pl.need("window").window()
    modules = tuple(_build_module(p, m) for m in pl.need("modules").each(b - a + 1))

    def maps(field: str, sources, targets) -> tuple[ModuleMap, ...]:
        return tuple(ModuleMap(s, t, m.rationals(t.ngens, s.ngens))
                     for s, t, m in zip(sources, targets,
                                        pl.need(field).each(b - a, "matrices")))

    ts = maps("t", modules[1:], modules[:-1])
    us = maps("u", modules[:-1], modules[1:])
    tau = pl.need("tau").rationals(modules[0].ngens, modules[-1].ngens)
    return FpGauge(p, (a, b), modules, ts, us, ModuleMap(modules[-1], modules[0], tau))


def build_reduced(p: int, payload: dict) -> ReducedFGauge:
    pl = _Field(payload, "payload")
    if "bk" in payload:
        return bk_reduced(pl.need("bk").int(), p)
    htc = pl.need("htc")
    lo, hi = htc.need("window").window()
    dims = [d.int() for d in htc.need("dims").each(hi - lo + 1)]
    xs, ds = htc.get("x", []).each(), htc.get("d", []).each()
    if len(xs) != hi - lo or len(ds) != hi - lo:
        htc.fail("need one x and one D per adjacent pair in the window")
    seen: dict = {}
    xs = tuple(x.mod(p, dims[k + 1], dims[k], seen) for k, x in enumerate(xs))
    ds = tuple(d.mod(p, dims[k], dims[k + 1], seen) for k, d in enumerate(ds))
    with _schema(htc.path):
        a1 = A1Module(p, lo, hi, tuple(dims), xs, ds)
    drp = pl.need("drp")
    n = drp.need("dim").int()
    dlo, dhi = drp.need("window").window()
    flags = tuple(f.mod(p, n, f.width(), seen)
                  for f in drp.need("flags").each(dhi - dlo + 1, "bases"))
    ft = FilThetaModule(p, n, dlo, dhi, flags, drp.need("theta").mod(p, n, n, seen))
    alpha_dr = pl.need("alpha_dr").mod(p, n, a1.dim_at(a1.stable_level()), seen)
    alpha_hod = {deg: mat.mod(p, len(mat.list()), mat.width(), seen)
                 for deg, mat in pl.need("alpha_hod").keyed("degree")}
    return ReducedFGauge(htc=a1, drp=ft, alpha_dr=alpha_dr, alpha_hod=alpha_hod)


def build_higgs(p: int, payload: dict) -> GradedHiggsModule:
    pl = _Field(payload, "payload")
    d = pl.need("directions").int()
    dims = {deg: v.int() for deg, v in pl.need("pieces").keyed("degree")}
    fields, per_direction, seen = {}, pl.get("fields", {}), {}
    for k, per in per_direction.keyed("direction"):
        if not 1 <= k <= d:
            per_direction.fail(f"direction {k} out of range 1..{d}")
        fields[k] = {deg: mat.mod(p, dims.get(deg - 1, 0), dims.get(deg, 0), seen)
                     for deg, mat in per.keyed("degree")}
    with _schema(pl.path):
        return GradedHiggsModule(p, d, dims, fields)


# ---------------------------------------------------------------------------
# job execution
# ---------------------------------------------------------------------------


def _record_laws(results: dict, lines: list[str]) -> None:
    """Record a value as lawful: its constructor raised the first law it broke."""
    results.update(valid=True, violations=[])
    lines.append("valid: true")


def run_job(doc: dict, prime_flag: int | None):
    """Returns (text, report_dict).  Raises SchemaError / LawViolation."""
    if not isinstance(doc, dict):
        raise SchemaError("$", "job document must be a JSON object")
    fmt = doc.get("format")
    if fmt != 1:
        raise SchemaError("format", f"unsupported format {fmt!r}; expected 1")
    job = _Field(doc, "$")
    kind = job.need("kind").value
    if kind not in KINDS:
        raise SchemaError("kind", f"unknown kind {kind!r}; expected one of {KINDS}")
    p = doc.get("prime", prime_flag)
    if p is None:
        raise SchemaError("prime", "missing prime (set it in the job or pass --prime)")
    if prime_flag is not None and "prime" in doc and doc["prime"] != prime_flag:
        raise SchemaError("prime", f"--prime {prime_flag} conflicts with job prime {doc['prime']}")
    p = _Field(p, "prime").int()
    with _schema("prime"):
        check_prime(p)
    payload = _Field(job.need("payload").value, "payload").dict()
    outputs = _Field(doc.get("outputs", [*DEFAULT_OUTPUTS[kind]]), "outputs").list()
    for o in outputs:
        if o not in DEFAULT_OUTPUTS[kind]:
            raise SchemaError("outputs", f"unknown output {o!r} for kind {kind!r}")
    num = format_rational  # exact past the 4300-digit limit of str(int)
    results: dict = {}
    lines = [f"kind: {kind}", f"prime: {num(p)}"]

    if kind in ("filphi", "square"):
        obj = build_filphi(p, payload)
        if kind == "filphi":
            if "cohomology" in outputs:
                r = rhom_mfphi(obj)
                results["h0"], results["h1"] = r.dims
                lines.append(f"rhom h0 h1: {num(r.h0)} {num(r.h1)}")
            if "newton" in outputs:
                results["newton"] = newton_number(obj)
                lines.append(f"newton: {num(results['newton'])}")
            if "hodge" in outputs:
                results["hodge"] = hodge_number(obj)
                lines.append(f"hodge: {num(results['hodge'])}")
            if "admissible" in outputs:
                results["admissible"] = is_weakly_admissible(obj).value
                lines.append(f"weakly admissible: {results['admissible']}")
        else:
            sq = corners(obj)
            if "corners" in outputs:
                dims = sq.corner_dims()
                results["corners"] = {k: list(v) for k, v in sorted(dims.items())}
                for name, (h0, h1) in sorted(dims.items()):
                    lines.append(f"corner {name} h0 h1: {num(h0)} {num(h1)}")
            if "residual" in outputs:
                res = verify_cartesian(sq)
                results["residual"] = list(res.h) + [res.chain_defect]
                lines.append(f"cartesian residual: {num(res.h[0])} {num(res.h[1])} "
                             f"{num(res.h[2])} defect {num(res.chain_defect)}")
            if "fm" in outputs:
                fm = fm_fibre(obj)
                results["fm_h0"], results["fm_h1"] = fm.dims
                lines.append(f"twisted fibre h0 h1: {num(fm.h0)} {num(fm.h1)}")

    elif kind == "fgauge":
        g = build_fgauge(p, payload)
        if "validate" in outputs:
            _record_laws(results, lines)
        if "cohomology" in outputs:
            h0, h1 = syntomic_cohomology(g)
            results["h0"] = {"free": h0.free_rank, "torsion": list(h0.torsion)}
            results["h1"] = {"free": h1.free_rank, "torsion": list(h1.torsion)}
            lines.append(f"syntomic h0: {h0}")
            lines.append(f"syntomic h1: {h1}")
        if "weights" in outputs:
            w = hodge_tate_weights(g)
            results["weights"] = {num(k): v for k, v in sorted(w.items())}
            pretty = ", ".join(f"{num(k)}:{num(v)}" for k, v in sorted(w.items())) or "none"
            lines.append(f"hodge-tate weights: {pretty}")
        if "realization" in outputs:
            phi = rational_realization(g)
            results["realization_dim"] = phi.dim
            f = phi.frobenius
            results["realization_frobenius"] = [[format_ratio(x, f.den) for x in row]
                                                for row in f.num]
            lines.append(f"rational realization dim: {num(phi.dim)}")

    elif kind == "reduced":
        g = build_reduced(p, payload)
        red = reduced_syntomic_cohomology(g)
        if "components" in outputs:
            results["components"] = {k: list(v) for k, v in sorted(red.components.items())}
            for name in sorted(red.components):
                h0, h1 = red.components[name]
                lines.append(f"component {name} h0 h1: {num(h0)} {num(h1)}")
        if "cohomology" in outputs:
            results["h"] = list(red.h)
            lines.append(f"reduced h0 h1 h2: {num(red.h[0])} {num(red.h[1])} {num(red.h[2])}")

    elif kind == "higgs":
        m = build_higgs(p, payload)
        if "check" in outputs:
            _record_laws(results, lines)
        if "cohomology" in outputs:
            weights = _Field(payload, "payload").get("weights", None)
            if weights.value is None:
                support = sorted(m.dims)
                weights = range(support[0], support[-1] + m.directions + 1) if support else ()
            else:
                weights = [w.int() for w in weights.each()]
            results["cohomology"] = {}
            for i in weights:
                hs = hodge_cohomology(m, i)
                results["cohomology"][num(i)] = [h for _, h in hs]
                pretty = " ".join(num(h) for _, h in hs)
                lines.append(f"weight {num(i)} koszul h: {pretty}")

    report = {"format": 1, "prime": p, "kind": kind, "payload": payload, "results": results}
    return "\n".join(lines) + "\n", report


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are all distinct; a repeated key is a schema error."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError("$", f"duplicate key {key!r}")
            seen.add(key)
    return obj


# one decoder for every document, as json.loads keeps one for its defaults
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _run_file(path: str, prime_flag: int | None):
    """Worker: returns (status, text, report) with status in {0, 1, 2}."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            # json.loads's reading of bytes: the encoding from the first bytes
            doc = _DECODER.decode(raw.decode(json.detect_encoding(raw), "surrogatepass"))
        except SchemaError:
            raise
        except ValueError as err:
            # malformed JSON, or an integer literal past the interpreter's
            # 4300-digit limit; the limit stays, since an exponent that long
            # would otherwise hang in p ** n
            raise SchemaError("$", f"invalid JSON: {err}") from None
        text, report = run_job(doc, prime_flag)
        return 0, text, report
    except SchemaError as err:
        return 1, f"schema error: {err}\n", None
    except LawViolation as err:
        return 2, f"law violated: {err}\n", None


# ---------------------------------------------------------------------------
# reference tables
# ---------------------------------------------------------------------------


def table_tate(p: int, lo: int, hi: int) -> str:
    lines = [f"twist cohomology at p = {p}", "   n  h0  h1"]
    for n in range(lo, hi + 1):
        r = rhom_mfphi(tate(n, p))
        lines.append(f"{n:>4}  {r.h0:>2}  {r.h1:>2}")
    return "\n".join(lines) + "\n"


def table_bk(p: int) -> str:
    lines = [f"reduced twist cohomology at p = {p}", "   n  h0  h1  h2"]
    for n in range(-p, p + 1):
        r = reduced_syntomic_cohomology(bk_reduced(n, p))
        lines.append(f"{n:>4}  {r.h[0]:>2}  {r.h[1]:>2}  {r.h[2]:>2}")
    return "\n".join(lines) + "\n"


def table_weights(p: int, lo: int, hi: int) -> str:
    lines = [f"twist gauge weights at p = {p}", "   n  weights"]
    for n in range(lo, hi + 1):
        w = hodge_tate_weights(twist_gauge(n, p))
        pretty = ", ".join(f"{k}:{v}" for k, v in sorted(w.items())) or "none"
        lines.append(f"{n:>4}  {pretty}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use."""
    parser = argparse.ArgumentParser(
        prog="gaugeworks",
        description="exact computations with filtered Frobenius modules, "
                    "F-gauges over F_p, reduced-locus data and Higgs modules")
    sub = parser.add_subparsers(dest="verb", required=True)

    pc = sub.add_parser("compute", help="run job files and print results")
    pc.add_argument("jobs", nargs="+", help="job files (JSON)")
    pc.add_argument("--prime", type=int, default=None,
                    help="prime override; errors if a job disagrees")
    pc.add_argument("--jobs-parallel", "--jobs", dest="nproc", type=int, default=1,
                    metavar="N", help="process up to N job files in parallel")
    pc.add_argument("--report", default=None,
                    help="write a JSON report (single job file only)")

    pk = sub.add_parser("check", help="run job files and print ok per file")
    pk.add_argument("jobs", nargs="+")
    pk.add_argument("--prime", type=int, default=None)
    pk.set_defaults(nproc=1, report=None)

    pt = sub.add_parser("table", help="print built-in reference tables")
    pt.add_argument("family", choices=("tate", "bk", "weights"))
    pt.add_argument("--prime", type=int, required=True)
    pt.add_argument("--min", dest="lo", type=int, default=-5)
    pt.add_argument("--max", dest="hi", type=int, default=5)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    if args.verb == "table":
        try:
            check_prime(args.prime)
        except ValueError as err:
            sys.stderr.write(f"schema error: prime: {err}\n")
            return 1
        if args.family == "tate":
            sys.stdout.write(table_tate(args.prime, args.lo, args.hi))
        elif args.family == "bk":
            sys.stdout.write(table_bk(args.prime))
        else:
            sys.stdout.write(table_weights(args.prime, args.lo, args.hi))
        return 0

    if args.report is not None and len(args.jobs) != 1:
        sys.stderr.write("schema error: --report: needs exactly one job file\n")
        return 1
    if args.nproc > 1 and len(args.jobs) > 1:
        # imported here: the pool pulls in multiprocessing, ~2 MB that
        # sequential runs never use
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.nproc) as pool:
            outcomes = list(pool.map(_run_file, args.jobs,
                                     [args.prime] * len(args.jobs)))
    else:
        outcomes = (_run_file(path, args.prime) for path in args.jobs)
    code = 0
    for path, (status, text, report) in zip(args.jobs, outcomes):
        if status != 0:
            sys.stderr.write(f"{path}: {text}")
            code = code or status
        elif args.verb == "check":
            sys.stdout.write(f"ok: {path}\n")
        else:
            sys.stdout.write(f"== {path}\n{text}")
            if args.report is not None:
                # integers stay JSON numbers at any size; parsing keeps the limit
                limit = sys.get_int_max_str_digits()
                sys.set_int_max_str_digits(0)
                try:
                    with open(args.report, "w", encoding="utf-8") as fh:
                        json.dump(report, fh, sort_keys=True, indent=2)
                        fh.write("\n")
                finally:
                    sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
