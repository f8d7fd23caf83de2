"""Command-line interface.

Subcommands: ``homology`` (dump F^H), ``table`` (genus-graded grids of
Euler characteristics), ``supercharacter`` (modular envelope cycle index
sums), ``oracle`` (brute-force class listings), ``verify`` (the full
cross-check suite).  Exit codes: 0 success, 1 verification failure,
2 usage error.

Only what ``homology`` and ``table`` run is imported here; the other
subcommands import their modules (cycleindex, graphs, verify) in their
own bodies, so a run loads only what it uses.
"""

from __future__ import annotations

import argparse
import json
import sys

from .genfun import LinkConfig, euler_table, f_homology
from .rationals import QQ
from .series import TruncatedSeries, TruncationSpec, VariableSet

__all__ = ["main", "build_parser"]


def _entries(text: str) -> list[str]:
    """The comma-separated entries of ``text``; an empty one is a usage error."""
    entries = text.split(",")
    if not all(v.strip() for v in entries):
        raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
    return entries


def _parse_m(text: str):
    return tuple(int(v) if v.strip().lstrip("-").isdigit() else v.strip() for v in _entries(text))


def _parse_d(text: str):
    return int(text) if text.strip().lstrip("-").isdigit() else text.strip()


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _int_list_at_least(low: int):
    item = _int_at_least(low)

    def parse(text: str) -> tuple[int, ...]:
        return tuple(item(v) for v in text.split(","))

    parse.__name__ = "int list"
    return parse


def _emit(text: str, output: str | None):
    if output:
        try:
            with open(output, "w") as f:
                f.write(text)
        except OSError as exc:
            raise SystemExit2(f"cannot write {output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _config_from_args(args) -> LinkConfig:
    cfg = LinkConfig.create(args.m, args.d)
    if args.r is not None and args.r != cfg.r:
        raise SystemExit2(f"--r {args.r} does not match {len(cfg.m_parities)} entries in --m")
    if cfg.in_validity_range is False:
        print(
            f"warning: d={cfg.d_value} <= 2*max(m)+1={2 * max(cfg.m_values) + 1}; "
            "the formulas are derived above that range, output is formal",
            file=sys.stderr,
        )
    return cfg


class SystemExit2(SystemExit):
    def __init__(self, message):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _series_output(series, fmt: str) -> str:
    """A series as text (canonical form), csv or json, one row per term."""
    if fmt == "text":
        return series.to_text() + "\n"
    rows = series.rows()
    if fmt == "json":
        terms = [{"monomial": m, "coefficient": c} for m, c in rows]
        return json.dumps({"terms": terms}, indent=2) + "\n"
    lines = ["monomial,coefficient"] + [f"{m},{c}" for m, c in rows]
    return "\n".join(lines) + "\n"


def cmd_homology(args) -> int:
    cfg = _config_from_args(args)
    x_max = args.x_max if args.x_max is not None else 2 * args.t_max
    series = f_homology(cfg, args.t_max, x_total_max=x_max)
    _emit(_series_output(series, args.format), args.output)
    return 0


def cmd_table(args) -> int:
    # the layout check of euler_table, made before any warning is printed
    if len(args.m) > 2:
        raise SystemExit2("the published grid layout is defined for r <= 2")
    cfg = _config_from_args(args)
    table = euler_table(cfg, args.genus, args.t_max)
    if args.format == "json":
        text = json.dumps(table.to_json_obj(), indent=2) + "\n"
    elif args.format == "csv":
        text = table.to_csv()
    else:
        text = table.to_text()
    _emit(text, args.output)
    return 0


def cmd_supercharacter(args) -> int:
    from .cycleindex import feynman_regrade, mod_envelope_supercharacter

    if args.weight < 1:  # no positive arity: the empty series
        series = TruncatedSeries.zero(
            VariableSet(has_hbar=True), TruncationSpec(hbar_window=(0, args.genus))
        )
    else:
        series = mod_envelope_supercharacter(args.twist, args.weight, args.genus)
        if args.feynman_regrade:
            series = feynman_regrade(series)
    _emit(_series_output(series, args.format), args.output)
    return 0


def cmd_oracle(args) -> int:
    from .graphs import EnumerationBudget, check_cell, enumerate_classes

    budget = EnumerationBudget(t_max=args.budget_t, hairs_max=args.budget_hairs)
    # a cell the enumeration cannot take exits 2 before any warning
    s_vec = check_cell(len(args.m), args.s, args.t, budget)
    cfg = _config_from_args(args)
    classes = enumerate_classes(cfg, s_vec, args.t, budget)
    chi = sum(c.contribution for c in classes)
    payload = {
        "s": list(s_vec),
        "t": args.t,
        "genus": args.t - sum(s_vec) + 1,
        "euler_characteristic": chi,
        "classes": [
            {
                "key": c.key,
                "internal_vertices": c.n_internal,
                "edges": c.edge_count,
                "degree": c.degree,
                "killed": c.killed,
                "automorphisms": c.automorphism_count,
                "contribution": c.contribution,
            }
            for c in classes
        ],
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_checks

    try:
        results = run_checks(only=args.only, t_max=args.t_max)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    failed = False
    lines = [f"backend: {QQ.__module__}"]
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        lines.append(f"[{status}] {res.name}")
        for note in res.notes:
            lines.append(f"    note: {note}")
        for detail in res.details:
            lines.append(f"    {detail}")
        failed = failed or not res.ok
    lines.append("verification " + ("FAILED" if failed else "passed"))
    _emit("\n".join(lines) + "\n", args.output)
    if failed:
        diff = [
            {"check": r.name, "failures": r.details} for r in results if not r.ok
        ]
        print(json.dumps(diff), file=sys.stderr)
    return 1 if failed else 0


class _HelpFormatter(argparse.HelpFormatter):
    """Fills ``{checks}`` in a help string with the verify check names.

    :mod:`linkchi.verify` loads every route; it is imported here only when
    help is printed, not on every run.
    """

    def _get_help_string(self, action):
        text = super()._get_help_string(action)
        if "{checks}" in text:
            from .verify import CHECK_NAMES

            text = text.replace("{checks}", ", ".join(CHECK_NAMES))
        return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkchi",
        description="Exact Euler-characteristic generating functions for "
        "string-link spaces and hairy graph complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p, need_genus=False):
        p.add_argument("--r", type=int, default=None, help="number of strands (optional consistency check)")
        p.add_argument("--m", type=_parse_m, required=True,
                       help="comma-separated source dimensions, integers or odd/even")
        p.add_argument("--d", type=_parse_d, required=True,
                       help="ambient dimension, integer or odd/even")
        p.add_argument("--t-max", type=_int_at_least(0), default=10,
                       help="complexity truncation order (>= 0)")
        if need_genus:
            p.add_argument("--genus", type=_int_at_least(0), required=True,
                           help="genus of the grid (>= 0)")

    def add_output(p, formats=("text", "csv", "json")):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("homology", help="dump the homology generating function F^H")
    add_config(p)
    p.add_argument("--x-max", type=_int_at_least(0), default=None,
                   help="total x-degree cap (>= 0; default 2*t_max, the full support)")
    add_output(p)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("table", help="genus-graded grid of Euler characteristics")
    add_config(p, need_genus=True)
    add_output(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("supercharacter", help="modular envelope supercharacter Z^{>0}")
    p.add_argument("--twist", choices=("plain", "det"), required=True)
    p.add_argument("--weight", type=_int_at_least(0), required=True,
                   help="arity weight bound (>= 0; 0 gives the empty series)")
    p.add_argument("--genus", type=_int_at_least(0), default=4, help="genus bound (>= 0)")
    p.add_argument("--feynman-regrade", action="store_true",
                   help="emit the Feynman-transform regrading (-Z with p -> -p)")
    add_output(p)
    p.set_defaults(fn=cmd_supercharacter)

    p = sub.add_parser("oracle", help="brute-force hairy graph class listing")
    add_config(p)
    p.add_argument("--s", type=_int_list_at_least(0), required=True,
                   help="comma-separated hair counts per color (each >= 0)")
    p.add_argument("--t", type=_int_at_least(0), required=True, help="complexity (>= 0)")
    p.add_argument("--budget-t", type=_int_at_least(0), default=5)
    p.add_argument("--budget-hairs", type=_int_at_least(0), default=6)
    add_output(p, formats=("json",))
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify", help="run the cross-verification suite",
                       formatter_class=_HelpFormatter)
    p.add_argument("--only", type=_entries, default=None,
                   help="comma-separated subset of checks ({checks})")
    p.add_argument("--t-max", type=_int_at_least(1), default=None,
                   help="scale the checks down to this truncation order (>= 1)")
    add_output(p, formats=("text",))
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
