"""Command line surface.

Every command is deterministic for fixed flags: enumerations are emitted
in the library's fixed orders and JSON is dumped with sorted keys.  Exit
codes: 0 success, 1 usage error, 2 verification failure, 3 arithmetic
failure or breached internal invariant (arithmetic overflow cannot happen
with Python integers, so in practice this code flags invariant breaches).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import dyck, ideals, matrices, rootsys, supports, verify

USAGE_EXIT = 1
VERIFY_EXIT = 2
OVERFLOW_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _bfile(pairs) -> str:
    return "".join(f"{k} {v}\n" for k, v in pairs)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit_sequence(values, args) -> None:
    """(n, value) pairs as a b-file, a JSON sequence or a CSV table."""
    if args.format == "json":
        _emit(_json_dump({"sequence": [{"n": n, "value": v} for n, v in values]}), args.out)
    elif args.format == "csv":
        _emit("n,value\n" + "".join(f"{n},{v}\n" for n, v in values), args.out)
    else:
        _emit(_bfile(values), args.out)


def _emit_matrix(key: str, m: matrices.ExactMatrix, args) -> None:
    """A square matrix as an aligned table, CSV rows, or JSON under ``key``."""
    if args.format == "json":
        _emit(_json_dump({"n": args.n, key: m.rows()}), args.out)
    elif args.format == "csv":
        _emit("".join(",".join(str(v) for v in row) + "\n" for row in m.rows()), args.out)
    else:
        _emit(matrices.format_table(m) + "\n", args.out)


def cmd_catalan_matrix(args) -> int:
    _emit_matrix("entries", matrices.matrix(dyck.cell_count_rows(args.n)), args)
    return 0


def cmd_cells(args) -> int:
    n = args.n
    if args.i is not None or args.j is not None:
        if args.i is None or args.j is None:
            raise ValueError("--i and --j must be given together")
        words = [p.word for p in dyck.cell_paths(n, args.i, args.j)]
        if args.format == "json":
            _emit(_json_dump({"n": n, "i": args.i, "j": args.j, "paths": words}), args.out)
        else:
            _emit("".join(w + "\n" for w in words), args.out)
        return 0
    _emit_matrix("counts", matrices.matrix(dyck.cell_count_rows(n)), args)
    return 0


def cmd_bn(args) -> int:
    _emit_sequence([(n, ideals.b_count_formula(n)) for n in range(1, args.upto + 1)], args)
    return 0


def cmd_enumerate_basic(args) -> int:
    records = [ideals.ideal_record(b) for b in ideals.enumerate_basic(args.n)]
    if args.format == "json":
        _emit(_json_dump(records), args.out)
    else:
        lines = [
            f"{r['p']} {r['q']} gens={r['generators']} qa={int(r['quasi_abelian'])} "
            f"nd={r['nd_plus']} qnd={r['qnd']}"
            for r in records
        ]
        _emit("".join(line + "\n" for line in lines), args.out)
    return 0


def cmd_quasi_abelian(args) -> int:
    _emit_sequence([(n, ideals.quasi_abelian_count(n)) for n in range(1, args.upto + 1)], args)
    return 0


def cmd_qnd_histogram(args) -> int:
    hist = Counter(ideals.qnd_from_plus_degree(b) for b in ideals.basic_ideals(args.n))
    pairs = sorted(hist.items())
    if args.format == "json":
        _emit(_json_dump({"n": args.n, "histogram": [{"qnd": k, "count": v} for k, v in pairs]}), args.out)
    else:
        _emit(_bfile(pairs), args.out)
    return 0


def cmd_support_classes(args) -> int:
    classes = supports.enumerate_classes(args.n)
    if args.format == "json":
        records = [supports.class_record(t, case, args.level) for t, case in classes]
        _emit(_json_dump(records), args.out)
    elif args.format == "csv":
        counts = Counter(case for _, case in classes)
        body = "".join(
            f"{args.n},{args.level},{case},{counts[case]}\n"
            for case in sorted(counts)
        )
        _emit("n,level,case,count\n" + body, args.out)
    elif args.format == "bfile":
        values = [(n, len(supports.enumerate_classes(n))) for n in range(1, args.n)]
        _emit_sequence(values + [(args.n, len(classes))], args)
    else:
        lines = [" ".join(t.words()) + f" case={case}" for t, case in classes]
        _emit("".join(line + "\n" for line in lines), args.out)
    return 0


def cmd_split_search(args) -> int:
    rs = rootsys.build_root_system(args.type)
    hits = rootsys.highest_root_split_search(rs)
    payload = {
        "type": rs.label,
        "positive_roots": len(rs.positive_roots),
        "violations": [[list(x) for x in triple] for triple in hits],
    }
    if args.format == "json":
        _emit(_json_dump(payload), args.out)
    else:
        _emit(f"{rs.label}: {len(hits)} violating splits\n", args.out)
    return 0 if not hits else VERIFY_EXIT


def cmd_order_check(args) -> int:
    poset = rootsys.window(rootsys.build_root_system(args.type))
    same = rootsys.orders_coincide(poset)
    if args.format == "json":
        _emit(
            _json_dump(
                {
                    "type": args.type,
                    "window_size": len(poset.elements),
                    "orders_coincide": same,
                    "covers": poset.cover_relations(),
                }
            ),
            args.out,
        )
    else:
        _emit(f"{args.type}: |D|={len(poset.elements)} orders_coincide={same}\n", args.out)
    return 0 if same else VERIFY_EXIT


def cmd_verify(args) -> int:
    names = verify.SUITES if args.suite == "all" else (args.suite,)
    checks = verify.run_suites(names, max_n=args.max_n, include_e78=args.include_e78)
    lines = [
        f"{'PASS' if c.ok else 'FAIL'} {c.suite}.{c.name}: {c.detail}" for c in checks
    ]
    passed = sum(c.ok for c in checks)
    lines.append(f"{passed}/{len(checks)} checks passed (max-n {args.max_n})")
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0 if passed == len(checks) else VERIFY_EXIT


def build_parser() -> _Parser:
    parser = _Parser(prog="catborel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, formats, **kwargs):
        """A subcommand accepting only the formats it implements; the
        first one is the default."""
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", metavar="PATH", default=None)
        return p

    p = add(
        "catalan-matrix", cmd_catalan_matrix, ("table", "json", "csv"),
        help="print the n-th cell-count matrix",
    )
    p.add_argument("n", type=positive_int)

    p = add(
        "cells", cmd_cells, ("table", "json", "csv"),
        help="cell counts, or the paths of one cell",
    )
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)

    p = add("bn", cmd_bn, ("bfile", "json", "csv"), help="the basic-ideal counting sequence")
    p.add_argument("--upto", type=positive_int, required=True)

    p = add(
        "enumerate-basic", cmd_enumerate_basic, ("table", "json"),
        help="list all basic ideals with invariants",
    )
    p.add_argument("--n", type=positive_int, required=True)

    p = add("quasi-abelian", cmd_quasi_abelian, ("bfile", "json"), help="quasi-abelian ideal counts")
    p.add_argument("--upto", type=positive_int, required=True)

    p = add(
        "qnd-histogram", cmd_qnd_histogram, ("bfile", "json"),
        help="histogram of quasi-nilpotency degrees",
    )
    p.add_argument("--n", type=positive_int, required=True)

    p = add(
        "support-classes", cmd_support_classes, ("table", "json", "csv", "bfile"),
        help="level-normalized support classes",
    )
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--level", type=positive_int, default=1)

    p = add(
        "split-search", cmd_split_search, ("table", "json"),
        help="search for forbidden highest-root splits",
    )
    p.add_argument("--type", required=True, metavar="LABEL")

    p = add(
        "order-check", cmd_order_check, ("table", "json"),
        help="compare the two window orders",
    )
    p.add_argument("--type", required=True, metavar="LABEL")

    p = add("verify", cmd_verify, ("table",), help="run the self-verification suites")
    p.add_argument("--suite", choices=verify.SUITES + ("all",), default="all")
    p.add_argument("--max-n", type=positive_int, default=6, dest="max_n")
    p.add_argument("--include-e78", action="store_true", dest="include_e78")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        sys.stderr.write(f"catborel: error: {exc}\n")
        return USAGE_EXIT
    except (OverflowError, MemoryError, AssertionError, RuntimeError, KeyError) as exc:
        # arithmetic failure or a breached internal invariant
        sys.stderr.write(f"catborel: internal failure: {exc}\n")
        return OVERFLOW_EXIT


if __name__ == "__main__":
    sys.exit(main())
