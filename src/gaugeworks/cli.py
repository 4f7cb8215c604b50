"""Batch front-end: job files in, tables and machine-readable reports out.

A job file is one JSON document (matrices of exact rationals are arrays of
strings "num/den"; nothing ever passes through floating point):

    {"format": 1, "prime": 3, "kind": "filphi", "payload": {...},
     "outputs": [...]}            # outputs optional

Verbs: ``compute`` runs jobs and prints one deterministic text block per
job (optionally writing a JSON report mirroring the input with computed
fields), ``check`` runs the same jobs, every output included, but prints
only ``ok: <file>`` for each one that succeeds, ``table`` prints the built-in
reference tables for the twist families.  Exit codes: 0 success, 1 for
schema violations (the message names the field), 2 for mathematical law
violations (the message quotes the law).  Identical input bytes produce
identical output bytes; ``--jobs N`` only parallelizes across job files.

The environment variable GAUGEWORKS_SEED is reserved for randomized test
corpus generation and is never read by any computation here.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from functools import cache
from math import lcm

from .beilinson import corners, fm_fibre, verify_cartesian
from .errors import LawViolation, SchemaError
from .exactlinalg import (FGModule, FpMat, ModuleMap, QMat, check_prime,
                          format_rational, rational_pair)
from .exactlinalg.rationals import format_ratio
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
# schema helpers
# ---------------------------------------------------------------------------


def _need(payload, field: str, path: str):
    if field not in _as_dict(payload, path):
        raise SchemaError(f"{path}.{field}", "missing required field")
    return payload[field]


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected a list, got {value!r}")
    return value


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {value!r}")
    return value


def _as_window(value, path: str) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2):
        raise SchemaError(path, "expected [lo, hi]")
    lo, hi = _as_int(value[0], f"{path}[0]"), _as_int(value[1], f"{path}[1]")
    if lo > hi:
        raise SchemaError(path, f"expected lo <= hi, got [{lo}, {hi}]")
    return lo, hi


def _row_width(rows: list, path: str) -> int:
    """Length of the first row of a matrix given as a list of rows (0 if none)."""
    return len(_as_list(rows[0], f"{path}[0]")) if _as_list(rows, path) else 0


def _sized(value, n: int, path: str, noun: str) -> list:
    """``value`` as a list of exactly ``n`` items, ``n`` printed at any size."""
    if len(_as_list(value, path)) != n:
        raise SchemaError(path, f"expected {format_rational(n)} {noun}")
    return value


def _int_key(key: str, path: str, what: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise SchemaError(path, f"bad {what} key {key!r}") from None


@contextmanager
def _schema(path: str):
    try:
        yield
    except LawViolation:
        raise
    except ValueError as err:
        raise SchemaError(path, str(err)) from None


def _rows(data, rows: int, cols: int, path: str):
    """The rows of a ``rows`` x ``cols`` list of rows, as ``(i, row)``, each
    checked for its length before it is yielded."""
    if not isinstance(data, list) or len(data) != rows:
        raise SchemaError(path, f"expected {rows} rows")
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{path}[{i}]", f"expected a row of length {cols}")
        yield i, row


def _pair(value) -> tuple[int, int]:
    """A rational entry as ``(num, den)``: a JSON int, or a literal string."""
    if type(value) is int:
        return value, 1
    if type(value) is str:
        return rational_pair(value)
    raise ValueError(f"expected a rational string, got {value!r}")


def _rational_matrix(data, rows: int, cols: int, path: str) -> QMat:
    """Integer rows over the lcm of the entries' reduced denominators, with no
    Fraction; an entry's path is built only to name a bad one."""
    pairs = []
    for i, row in _rows(data, rows, cols, path):
        try:
            pairs.append(list(map(_pair, row)))
        except ValueError:
            for j, x in enumerate(row):
                with _schema(f"{path}[{i}][{j}]"):
                    _pair(x)
            raise
    den = lcm(*{d for r in pairs for _, d in r})
    return QMat([[n * (den // d) for n, d in r] for r in pairs], cols, den=den)


def _int_matrix(p: int, data, rows: int, cols: int, path: str) -> FpMat:
    """The matrix of JSON ints mod p; an entry's path is built only to name a bad one."""
    for i, row in _rows(data, rows, cols, path):
        if not all(type(x) is int for x in row):
            j = next(j for j, x in enumerate(row) if type(x) is not int)
            raise SchemaError(f"{path}[{i}][{j}]", "expected an integer mod p")
    return FpMat(p, data, ncols=cols)


# ---------------------------------------------------------------------------
# payload builders
# ---------------------------------------------------------------------------


def build_filphi(p: int, payload: dict) -> FilteredPhiModule:
    if "tate" in payload:
        return tate(_as_int(payload["tate"], "payload.tate"), p)
    dim = _as_int(_need(payload, "dim", "payload"), "payload.dim")
    frob = _rational_matrix(_need(payload, "frobenius", "payload"),
                            dim, dim, "payload.frobenius")
    fil = _need(payload, "filtration", "payload")
    lo, hi = _as_window(_need(fil, "window", "payload.filtration"),
                        "payload.filtration.window")
    dims = _sized(_need(fil, "dims", "payload.filtration"), hi - lo + 1,
                  "payload.filtration.dims", "entries")
    dims = [_as_int(x, f"payload.filtration.dims[{k}]") for k, x in enumerate(dims)]
    if dims and dims[0] != dim:
        raise SchemaError("payload.filtration.dims[0]",
                          "must equal the underlying dimension")
    raw_trans = _sized(fil.get("transitions", []), hi - lo,
                       "payload.filtration.transitions", "matrices")
    transitions = tuple(
        _rational_matrix(t, dims[k], dims[k + 1],
                         f"payload.filtration.transitions[{k}]")
        for k, t in enumerate(raw_trans))
    with _schema("payload.filtration"):
        fs = FilteredSpace(lo, hi, tuple(dims), transitions)
        return FilteredPhiModule(p, fs, frob)


def _build_module(p: int, data, path: str) -> FGModule:
    free = _as_int(_need(data, "free", path), f"{path}.free")
    torsion = _as_list(data.get("torsion", []), f"{path}.torsion")
    torsion = tuple(_as_int(e, f"{path}.torsion[{k}]") for k, e in enumerate(torsion))
    with _schema(path):
        return FGModule(p, free, torsion)


def build_fgauge(p: int, payload: dict) -> FpGauge:
    if "fcrystal" in payload:
        fc = payload["fcrystal"]
        rank = _as_int(_need(fc, "rank", "payload.fcrystal"), "payload.fcrystal.rank")
        tau = _rational_matrix(_need(fc, "tau", "payload.fcrystal"),
                               rank, rank, "payload.fcrystal.tau")
        return gauge_from_fcrystal(FCrystalPoint(p, rank, tau))
    a, b = _as_window(_need(payload, "window", "payload"), "payload.window")
    raw_modules = _sized(_need(payload, "modules", "payload"), b - a + 1,
                         "payload.modules", "entries")
    modules = tuple(_build_module(p, m, f"payload.modules[{k}]")
                    for k, m in enumerate(raw_modules))

    def maps(field: str, sources, targets) -> tuple[ModuleMap, ...]:
        raw = _sized(_need(payload, field, "payload"), b - a, f"payload.{field}",
                     "matrices")
        return tuple(
            ModuleMap(sources[k], targets[k],
                      _rational_matrix(data, targets[k].ngens, sources[k].ngens,
                                       f"payload.{field}[{k}]"))
            for k, data in enumerate(raw))

    ts = maps("t", modules[1:], modules[:-1])
    us = maps("u", modules[:-1], modules[1:])
    tau_mat = _rational_matrix(_need(payload, "tau", "payload"),
                               modules[0].ngens, modules[-1].ngens, "payload.tau")
    tau = ModuleMap(modules[-1], modules[0], tau_mat)
    return FpGauge(p, (a, b), modules, ts, us, tau)


def build_reduced(p: int, payload: dict) -> ReducedFGauge:
    if "bk" in payload:
        return bk_reduced(_as_int(payload["bk"], "payload.bk"), p)
    raw_htc = _need(payload, "htc", "payload")
    lo, hi = _as_window(_need(raw_htc, "window", "payload.htc"), "payload.htc.window")
    raw_dims = _as_list(_need(raw_htc, "dims", "payload.htc"), "payload.htc.dims")
    dims = _sized([_as_int(x, f"payload.htc.dims[{k}]") for k, x in enumerate(raw_dims)],
                  hi - lo + 1, "payload.htc.dims", "entries")
    raw_x = _as_list(raw_htc.get("x", []), "payload.htc.x")
    raw_d = _as_list(raw_htc.get("d", []), "payload.htc.d")
    if len(raw_x) != hi - lo or len(raw_d) != hi - lo:
        raise SchemaError("payload.htc",
                          "need one x and one D per adjacent pair in the window")
    xs = tuple(_int_matrix(p, mat, dims[k + 1], dims[k], f"payload.htc.x[{k}]")
               for k, mat in enumerate(raw_x))
    ds = tuple(_int_matrix(p, mat, dims[k], dims[k + 1], f"payload.htc.d[{k}]")
               for k, mat in enumerate(raw_d))
    with _schema("payload.htc"):
        htc = A1Module(p, lo, hi, tuple(dims), xs, ds)
    raw_drp = _need(payload, "drp", "payload")
    n = _as_int(_need(raw_drp, "dim", "payload.drp"), "payload.drp.dim")
    dlo, dhi = _as_window(_need(raw_drp, "window", "payload.drp"), "payload.drp.window")
    raw_flags = _sized(_need(raw_drp, "flags", "payload.drp"), dhi - dlo + 1,
                       "payload.drp.flags", "bases")
    flags = [_int_matrix(p, cols, n, _row_width(cols, f"payload.drp.flags[{k}]"),
                         f"payload.drp.flags[{k}]")
             for k, cols in enumerate(raw_flags)]
    theta = _int_matrix(p, _need(raw_drp, "theta", "payload.drp"), n, n,
                        "payload.drp.theta")
    drp = FilThetaModule(p, n, dlo, dhi, tuple(flags), theta)
    alpha_dr_raw = _need(payload, "alpha_dr", "payload")
    dim_stable = htc.dim_at(htc.stable_level())
    alpha_dr = _int_matrix(p, alpha_dr_raw, n, dim_stable, "payload.alpha_dr")
    raw_hod = _as_dict(_need(payload, "alpha_hod", "payload"), "payload.alpha_hod")
    alpha_hod = {}
    for key, mat in raw_hod.items():
        deg = _int_key(key, "payload.alpha_hod", "degree")
        path = f"payload.alpha_hod[{key}]"
        width = _row_width(mat, path)  # checks that mat is a list before len()
        alpha_hod[deg] = _int_matrix(p, mat, len(mat), width, path)
    return ReducedFGauge(htc=htc, drp=drp, alpha_dr=alpha_dr, alpha_hod=alpha_hod)


def build_higgs(p: int, payload: dict) -> GradedHiggsModule:
    d = _as_int(_need(payload, "directions", "payload"), "payload.directions")
    raw_pieces = _as_dict(_need(payload, "pieces", "payload"), "payload.pieces")
    dims = {_int_key(key, "payload.pieces", "degree"): _as_int(v, f"payload.pieces[{key}]")
            for key, v in raw_pieces.items()}
    fields = {}
    for kdir, per in _as_dict(payload.get("fields", {}), "payload.fields").items():
        k = _int_key(kdir, "payload.fields", "direction")
        if not 1 <= k <= d:
            raise SchemaError("payload.fields", f"direction {k} out of range 1..{d}")
        fields[k] = per_out = {}
        for key, mat in _as_dict(per, f"payload.fields[{kdir}]").items():
            deg = _int_key(key, f"payload.fields[{kdir}]", "degree")
            per_out[deg] = _int_matrix(p, mat, dims.get(deg - 1, 0), dims.get(deg, 0),
                                       f"payload.fields[{kdir}][{key}]")
    with _schema("payload"):
        return GradedHiggsModule(p, d, dims, fields)


# ---------------------------------------------------------------------------
# job execution
# ---------------------------------------------------------------------------


def _record_laws(results: dict, lines: list[str]) -> None:
    """Record a value as lawful: its constructor raised the first law it broke."""
    results["valid"] = True
    results["violations"] = []
    lines.append("valid: true")


def run_job(doc: dict, prime_flag: int | None):
    """Returns (text, report_dict).  Raises SchemaError / LawViolation."""
    if not isinstance(doc, dict):
        raise SchemaError("$", "job document must be a JSON object")
    fmt = doc.get("format")
    if fmt != 1:
        raise SchemaError("format", f"unsupported format {fmt!r}; expected 1")
    kind = _need(doc, "kind", "$")
    if kind not in KINDS:
        raise SchemaError("kind", f"unknown kind {kind!r}; expected one of {KINDS}")
    p = doc.get("prime", prime_flag)
    if p is None:
        raise SchemaError("prime", "missing prime (set it in the job or pass --prime)")
    if prime_flag is not None and "prime" in doc and doc["prime"] != prime_flag:
        raise SchemaError("prime", f"--prime {prime_flag} conflicts with job prime {doc['prime']}")
    p = _as_int(p, "prime")
    with _schema("prime"):
        check_prime(p)
    payload = _as_dict(_need(doc, "payload", "$"), "payload")
    outputs = (tuple(_as_list(doc["outputs"], "outputs")) if "outputs" in doc
               else DEFAULT_OUTPUTS[kind])
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
            weights = payload.get("weights")
            if weights is None:
                support = sorted(m.dims)
                weights = list(range(support[0], support[-1] + m.directions + 1)) \
                    if support else []
            weights = [_as_int(w, "payload.weights[]")
                       for w in _as_list(weights, "payload.weights")]
            results["cohomology"] = {}
            for i in weights:
                hs = hodge_cohomology(m, i)
                results["cohomology"][num(i)] = [h for _, h in hs]
                pretty = " ".join(num(h) for _, h in hs)
                lines.append(f"weight {num(i)} koszul h: {pretty}")

    report = {"format": 1, "prime": p, "kind": kind, "payload": payload,
              "results": results}
    return "\n".join(lines) + "\n", report


def _run_file(path: str, prime_flag: int | None):
    """Worker: returns (status, text, report) with status in {0, 1, 2}."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            doc = json.loads(raw)
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
