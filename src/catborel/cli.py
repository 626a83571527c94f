"""Command line surface.

Every command is deterministic for fixed flags: enumerations are emitted
in the library's fixed orders and JSON is dumped with sorted keys.  Exit
codes: 0 success, 1 usage error, 2 verification failure, 3 arithmetic
failure or breached internal invariant (arithmetic overflow cannot happen
with Python integers, so in practice this code flags invariant breaches).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from functools import lru_cache

# Each command imports the modules it runs when it runs, so that start-up
# loads only those: ``bn`` needs no Dyck path and no root system.

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
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _int_at_least(text: str, minimum: int) -> int:
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def max_n_int(text: str) -> int:
    """``verify --max-n``, refused below ``verify.MIN_MAX_N`` with one message."""
    from . import verify

    return _int_at_least(text, verify.MIN_MAX_N)


def _json_dump(obj) -> str:
    import json

    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit_sequence(values, args) -> None:
    """(n, value) pairs, read once, as a b-file, a JSON sequence or a CSV
    table."""
    if args.format == "json":
        _emit(_json_dump({"sequence": [{"n": n, "value": v} for n, v in values]}), args.out)
    elif args.format == "csv":
        _emit("n,value\n" + "".join(f"{n},{v}\n" for n, v in values), args.out)
    else:
        _emit(_bfile(values), args.out)


def _emit_matrix(key: str, rows: list[list[int]], args) -> None:
    """A square matrix as an aligned table, CSV rows, or JSON under ``key``."""
    from . import matrices

    m = matrices.matrix(rows)
    if args.format == "json":
        _emit(_json_dump({"n": args.n, key: m.rows()}), args.out)
    elif args.format == "csv":
        _emit("".join(",".join(str(v) for v in row) + "\n" for row in m.rows()), args.out)
    else:
        _emit(matrices.format_table(m) + "\n", args.out)


def cmd_catalan_matrix(args) -> int:
    from . import dyck

    _emit_matrix("entries", dyck.cell_count_rows(args.n), args)
    return 0


def cmd_cells(args) -> int:
    from . import dyck

    n = args.n
    if args.i is not None or args.j is not None:
        if args.i is None or args.j is None:
            raise ValueError("--i and --j must be given together")
        # the library's empty index-0 cells are a convention, not a cell to ask for
        if not (1 <= args.i <= n and 1 <= args.j <= n):
            raise ValueError(f"--i and --j must lie in 1..{n}, got {args.i} and {args.j}")
        words = [p.word for p in dyck.cell_paths(n, args.i, args.j)]
        if args.format == "json":
            _emit(_json_dump({"n": n, "i": args.i, "j": args.j, "paths": words}), args.out)
        else:
            _emit("".join(w + "\n" for w in words), args.out)
        return 0
    _emit_matrix("counts", dyck.cell_count_rows(n), args)
    return 0


def cmd_bn(args) -> int:
    from . import sequences

    _emit_sequence(sequences.b_sequence(args.upto), args)
    return 0


@lru_cache(maxsize=None)
def _pairs_json(pairs: tuple[tuple[int, int], ...]) -> str:
    """Rendered once per interval tuple, which a path's records share."""
    if not pairs:
        return "[]"
    body = ",\n".join(f"      [\n        {i},\n        {j}\n      ]" for i, j in pairs)
    return "[\n" + body + "\n    ]"


def _record_json(r: dict) -> str:
    """One ``ideals.ideal_record`` as ``_json_dump`` renders it as a list
    element: the text of ``json.dumps(r, sort_keys=True, indent=2)``
    indented by two spaces.  The ``p``/``q`` words are letters only, so
    nothing needs escaping."""
    return (
        "  {\n"
        f'    "generators": {r["generators"]},\n'
        f'    "n": {r["n"]},\n'
        f'    "nd_plus": {r["nd_plus"]},\n'
        f'    "p": "{r["p"]}",\n'
        f'    "q": "{r["q"]}",\n'
        f'    "qnd": {r["qnd"]},\n'
        f'    "quasi_abelian": {"true" if r["quasi_abelian"] else "false"},\n'
        f'    "s_minus": {_pairs_json(r["s_minus"])},\n'
        f'    "s_plus": {_pairs_json(r["s_plus"])}\n'
        "  }"
    )


def _record_line(r: dict) -> str:
    return (
        f"{r['p']} {r['q']} gens={r['generators']} qa={int(r['quasi_abelian'])} "
        f"nd={r['nd_plus']} qnd={r['qnd']}\n"
    )


def cmd_enumerate_basic(args) -> int:
    # Each record is rendered as soon as it is built, so no record dict
    # outlives its line, and the JSON skips the stdlib's pure-Python
    # indent encoder.  The text is written in one call: 1 MB block writes
    # read a higher peak RSS in perfbench, whose reading includes its own.
    from . import ideals

    records = (ideals.ideal_record(b) for b in ideals.enumerate_basic(args.n))
    if args.format == "json":
        _emit("[\n" + ",\n".join(map(_record_json, records)) + "\n]\n", args.out)
    else:
        _emit("".join(map(_record_line, records)), args.out)
    return 0


def cmd_quasi_abelian(args) -> int:
    from . import sequences

    _emit_sequence(sequences.quasi_abelian_sequence(args.upto), args)
    return 0


def cmd_qnd_histogram(args) -> int:
    from . import ideals

    pairs = sorted(ideals.qnd_histogram(args.n).items())
    if args.format == "json":
        _emit(_json_dump({"n": args.n, "histogram": [{"qnd": k, "count": v} for k, v in pairs]}), args.out)
    else:
        _emit(_bfile(pairs), args.out)
    return 0


def cmd_support_classes(args) -> int:
    from . import supports

    if args.level is not None and args.format in ("table", "bfile"):
        raise ValueError(f"--level is not printed by --format {args.format}; use json or csv")
    level = args.level or 1
    classes = supports.enumerate_classes(args.n)
    if args.format == "json":
        records = [supports.class_record(t, case, level) for t, case in classes]
        _emit(_json_dump(records), args.out)
    elif args.format == "csv":
        counts = Counter(case for _, case in classes)
        body = "".join(
            f"{args.n},{level},{case},{counts[case]}\n"
            for case in sorted(counts)
        )
        _emit("n,level,case,count\n" + body, args.out)
    elif args.format == "bfile":
        values = [(n, len(supports.enumerate_classes(n))) for n in range(1, args.n)]
        _emit_sequence(values + [(args.n, len(classes))], args)
    else:
        text = "".join(
            f"{p.word} {q.word} {pp.word} {qp.word} case={case}\n"
            for (p, q, pp, qp), case in classes
        )
        _emit(text, args.out)
    return 0


def cmd_split_search(args) -> int:
    from . import rootsys

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
    from . import rootsys

    poset = rootsys.window(rootsys.build_root_system(args.type))
    same = rootsys.orders_coincide(poset)
    label = poset.system.label
    if args.format == "json":
        _emit(
            _json_dump(
                {
                    "type": label,
                    "window_size": len(poset.elements),
                    "orders_coincide": same,
                    "covers": poset.cover_relations(),
                }
            ),
            args.out,
        )
    else:
        _emit(f"{label}: |D|={len(poset.elements)} orders_coincide={same}\n", args.out)
    return 0 if same else VERIFY_EXIT


def cmd_verify(args) -> int:
    from . import verify

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

    def command(name, fn, formats, **kwargs):
        """A subcommand accepting only the formats it implements; the
        first one is the default."""
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", metavar="PATH", default=None)
        return p

    p = command(
        "catalan-matrix", cmd_catalan_matrix, ("table", "json", "csv"),
        help="print the n-th cell-count matrix",
    )
    p.add_argument("n", type=positive_int)

    p = command(
        "cells", cmd_cells, ("table", "json", "csv"),
        help="cell counts, or the paths of one cell",
    )
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)

    p = command("bn", cmd_bn, ("bfile", "json", "csv"), help="the basic-ideal counting sequence")
    p.add_argument("--upto", type=positive_int, required=True)

    p = command(
        "enumerate-basic", cmd_enumerate_basic, ("table", "json"),
        help="list all basic ideals with invariants",
    )
    p.add_argument("--n", type=positive_int, required=True)

    p = command("quasi-abelian", cmd_quasi_abelian, ("bfile", "json"), help="quasi-abelian ideal counts")
    p.add_argument("--upto", type=positive_int, required=True)

    p = command(
        "qnd-histogram", cmd_qnd_histogram, ("bfile", "json"),
        help="histogram of quasi-nilpotency degrees",
    )
    p.add_argument("--n", type=positive_int, required=True)

    p = command(
        "support-classes", cmd_support_classes, ("table", "json", "csv", "bfile"),
        help="level-normalized support classes",
    )
    p.add_argument("--n", type=positive_int, required=True)
    # None: json and csv print level 1, table and bfile refuse the flag
    p.add_argument("--level", type=positive_int, default=None)

    p = command(
        "split-search", cmd_split_search, ("table", "json"),
        help="search for forbidden highest-root splits",
    )
    p.add_argument("--type", required=True, metavar="LABEL")

    p = command(
        "order-check", cmd_order_check, ("table", "json"),
        help="compare the two window orders",
    )
    p.add_argument("--type", required=True, metavar="LABEL")

    p = command("verify", cmd_verify, ("table",), help="run the self-verification suites")
    # no choices: verify.run_suites refuses an unknown suite, and listing the
    # suites here would import verify at every start-up
    p.add_argument("--suite", default="all", metavar="NAME", help="one suite, or all")
    p.add_argument("--max-n", type=max_n_int, default=6, dest="max_n")
    p.add_argument("--include-e78", action="store_true", dest="include_e78")

    return parser


def main(argv=None) -> int:
    # b_n passes the default 4300-digit limit of int-to-text near n = 7140;
    # interpreters older than the limit (before 3.10.7) have no setter
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
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
