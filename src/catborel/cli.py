"""Command line surface.

Every command is deterministic for fixed flags: enumerations are emitted
in the library's fixed orders and JSON is dumped with sorted keys.  A
command computes its whole output and a verdict and writes nothing;
``main`` writes the output to stdout or to ``--out`` and sets every exit
code.  Exit codes: 0 success, 1 usage error, 2 verification failure
(``split-search``, ``order-check`` and ``verify`` only), 3 arithmetic
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


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _json_dump(obj, element=None) -> str:
    """``obj`` as JSON, keys sorted, indented by two.  Given ``element``,
    ``obj`` is a non-empty list and ``element`` writes each item as that
    text holds it, which spares the stdlib's pure-Python indent encoder."""
    if element is not None:
        return "[\n" + ",\n".join(map(element, obj)) + "\n]\n"
    import json

    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _sequence(values, fmt: str) -> str:
    """(n, value) pairs, read once, as a b-file, a JSON sequence or a CSV
    table."""
    if fmt == "json":
        return _json_dump({"sequence": [{"n": n, "value": v} for n, v in values]})
    if fmt == "csv":
        return "n,value\n" + "".join(f"{n},{v}\n" for n, v in values)
    return _bfile(values)


def _matrix(key: str, rows: tuple[tuple[int, ...], ...], n: int, fmt: str) -> str:
    """Square matrix rows as a space-aligned table, CSV rows, or JSON under ``key``."""
    if fmt == "json":
        return _json_dump({"n": n, key: rows})
    if fmt == "csv":
        return "".join(",".join(str(v) for v in row) + "\n" for row in rows)
    width = max(len(str(v)) for row in rows for v in row)
    return "".join(" ".join(str(v).rjust(width) for v in row) + "\n" for row in rows)


def cmd_catalan_matrix(args) -> tuple[str, bool]:
    from . import dyck

    return _matrix("entries", dyck.cell_count_rows(args.n), args.n, args.format), True


def cmd_cells(args) -> tuple[str, bool]:
    from . import dyck

    n = args.n
    if args.i is None and args.j is None:
        return _matrix("counts", dyck.cell_count_rows(n), n, args.format), True
    if args.i is None or args.j is None:
        raise ValueError("--i and --j must be given together")
    words = [p.word for p in dyck.cell_paths(n, args.i, args.j)]
    if args.format == "json":
        return _json_dump({"n": n, "i": args.i, "j": args.j, "paths": words}), True
    return "".join(w + "\n" for w in words), True


def cmd_bn(args) -> tuple[str, bool]:
    from . import sequences

    return _sequence(sequences.b_sequence(args.upto), args.format), True


@lru_cache(maxsize=None)
def _pairs_json(pairs: tuple[tuple[int, int], ...]) -> str:
    """Rendered once per interval tuple, which a path's records share."""
    if not pairs:
        return "[]"
    body = ",\n".join(f"      [\n        {i},\n        {j}\n      ]" for i, j in pairs)
    return "[\n" + body + "\n    ]"


def _record_json(r: dict) -> str:
    """One record of ``ideals.basic_records`` as ``_json_dump`` renders it
    as a list element: the text of ``json.dumps(r, sort_keys=True,
    indent=2)`` indented by two spaces.  The ``p``/``q`` words are
    letters only, so nothing needs escaping."""
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


def cmd_enumerate_basic(args) -> tuple[str, bool]:
    # Each record is rendered as soon as it is built, so no record dict
    # outlives its line, and the JSON skips the stdlib's pure-Python
    # indent encoder.
    from . import ideals

    records = ideals.basic_records(args.n)
    if args.format == "json":
        return "[\n" + ",\n".join(map(_record_json, records)) + "\n]\n", True
    return "".join(map(_record_line, records)), True


def cmd_quasi_abelian(args) -> tuple[str, bool]:
    from . import sequences

    return _sequence(sequences.quasi_abelian_sequence(args.upto), args.format), True


def cmd_qnd_histogram(args) -> tuple[str, bool]:
    from . import sequences

    pairs = list(sequences.qnd_row(args.n))
    if args.format == "json":
        return _json_dump({"n": args.n, "histogram": [{"qnd": k, "count": v} for k, v in pairs]}), True
    return _bfile(pairs), True


def _class_json(t, tag: str) -> str:
    """One quadruple's record as ``_json_dump`` renders it as a list
    element, keys sorted; ``tag`` is its JSON-quoted shape or null."""
    p, q, pp, qp = t
    return (
        f'  {{\n    "case": {tag},\n    "level": 1,\n    "n": {p.semilength},\n    "p": "{p.word}",\n'
        f'    "p_prime": "{pp.word}",\n    "q": "{q.word}",\n    "q_prime": "{qp.word}"\n  }}'
    )


def cmd_support_classes(args) -> tuple[str, bool]:
    from . import supports

    classes = supports.enumerate_classes(args.n)
    if args.format == "json":
        tags = {case: f'"{case}"' for case in supports.CASES}
        return _json_dump(classes, lambda item: _class_json(item[0], tags.get(item[1], "null"))), True
    if args.format == "csv":
        counts = Counter(case for _, case in classes)
        body = "".join(f"{args.n},1,{case},{counts[case]}\n" for case in sorted(counts))
        return "n,level,case,count\n" + body, True
    if args.format == "bfile":
        values = [(n, len(supports.enumerate_classes(n))) for n in range(1, args.n)]
        return _sequence(values + [(args.n, len(classes))], args.format), True
    text = "".join(
        f"{p.word} {q.word} {pp.word} {qp.word} case={case}\n"
        for (p, q, pp, qp), case in classes
    )
    return text, True


def cmd_split_search(args) -> tuple[str, bool]:
    from . import rootsys

    rs = rootsys.build_root_system(args.type)
    hits = rootsys.highest_root_split_search(rs)
    if args.format == "json":
        payload = {
            "type": rs.label,
            "positive_roots": len(rs.positive_roots),
            "violations": [[list(x) for x in triple] for triple in hits],
        }
        return _json_dump(payload), not hits
    return f"{rs.label}: {len(hits)} violating splits\n", not hits


def cmd_order_check(args) -> tuple[str, bool]:
    from . import rootsys

    poset = rootsys.window(rootsys.build_root_system(args.type))
    same = rootsys.orders_coincide(poset)
    label = poset.system.label
    if args.format == "json":
        payload = {
            "type": label,
            "window_size": len(poset.elements),
            "orders_coincide": same,
            "covers": poset.cover_relations(),
        }
        return _json_dump(payload), same
    return f"{label}: |D|={len(poset.elements)} orders_coincide={same}\n", same


def cmd_verify(args) -> tuple[str, bool]:
    from . import verify

    names = verify.SUITES if args.suite == "all" else (args.suite,)
    checks = verify.run_suites(names, max_n=args.max_n)
    lines = [
        f"{'PASS' if c.ok else 'FAIL'} {c.suite}.{c.name}: {c.detail}" for c in checks
    ]
    passed = sum(c.ok for c in checks)
    lines.append(f"{passed}/{len(checks)} checks passed (max-n {args.max_n})")
    return "".join(line + "\n" for line in lines), passed == len(checks)


def build_parser() -> _Parser:
    parser = _Parser(prog="catborel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, formats, **kwargs):
        """A subcommand accepting only the formats it implements; the
        first one is the default, and a command with one format takes no
        ``--format``."""
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        if len(formats) > 1:
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
    # verify.run_suites refuses a max-n below 2
    p.add_argument("--max-n", type=int, default=6, dest="max_n")

    return parser


def main(argv=None) -> int:
    # b_n passes the default 4300-digit limit of int-to-text near n = 7140;
    # interpreters older than the limit (before 3.10.7) have no setter
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, ok = args.fn(args)
        # The text is written in one call: 1 MB block writes read a higher
        # peak RSS in perfbench, whose reading includes its own.
        if args.out is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        sys.stderr.write(f"catborel: error: {exc}\n")
        return USAGE_EXIT
    except (OverflowError, MemoryError, AssertionError, RuntimeError, KeyError) as exc:
        # arithmetic failure or a breached internal invariant
        sys.stderr.write(f"catborel: internal failure: {exc}\n")
        return OVERFLOW_EXIT
    return 0 if ok else VERIFY_EXIT


if __name__ == "__main__":
    sys.exit(main())
