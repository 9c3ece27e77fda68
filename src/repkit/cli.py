"""Command line front end.

    repkit analyze  --measure hd FILE.cnf
    repkit mps      FILE.cnf [--direct]
    repkit dope     FILE.cnf [-o OUT]
    repkit tree     --k 2 --h 3 [--emit cnf|doped|dot]
    repkit translate --mode cant FILE.dnf [-o OUT]
    repkit trigger  --k 1 FILE.cnf
    repkit trigger  --tree K H [--width W]
    repkit generate --k 2 --h 22 --variant 1 [-o OUT]
    repkit stats    [--table | --k K --h H [--variant V]] [--json]
    repkit verify   --k K --h H --variant V [--level formulas|hardness]

Exit codes: 0 success, 1 failed verification, 2 bad arguments, 3 malformed
DIMACS input, 4 size budget exceeded, 5 other invalid input, 6 a file that
cannot be read or written.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import bench, core, mps, reductions, translate, trees, trigger


def _read_clauses(path: str) -> tuple[list[core.Clause], str]:
    if path == "-":
        return core.parse_dimacs(sys.stdin.read())
    with open(path) as fh:
        return core.parse_dimacs(fh.read())


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _clause_out(c: core.Clause) -> list[int]:
    return sorted(c, key=abs)


def cmd_analyze(args) -> int:
    clauses, _ = _read_clauses(args.file)
    f = frozenset(clauses)
    m = args.measure
    out: dict = {"measure": m, "n": len(core.variables(f)), "c": len(f)}
    if m in ("hd", "phd", "whd"):
        rep = {"hd": reductions.hardness, "phd": reductions.p_hardness,
               "whd": reductions.w_hardness}[m](f)
        out["value"] = rep.value
        if rep.witness is not None:
            out["witness"] = {str(v): b for v, b in rep.witness}
    elif m == "hd-unsat":
        out["value"] = reductions.refutation_level(f)
    elif m == "whd-unsat":
        out["value"] = reductions.w_refutation_level(f)
    elif m in ("rk", "rinf"):
        if m == "rk":
            out["k"] = args.k
        g = reductions.reduce_r(f, args.k) if m == "rk" else reductions.reduce_r_inf(f)
        out["refuted"] = g == core.BOT_SET
        out["result"] = [_clause_out(c) for c in sorted(g, key=core.clause_key)]
    elif m in ("prime", "essential"):
        p = (reductions.prime_implicates if m == "prime"
             else reductions.essential_prime_implicates)(f)
        out["value"] = len(p)
        out["clauses"] = [_clause_out(c) for c in sorted(p, key=core.clause_key)]
    elif m == "sat":
        out["satisfiable"] = core.is_satisfiable(f)
    print(json.dumps(out, indent=2))
    return 0


def cmd_mps(args) -> int:
    clauses, _ = _read_clauses(args.file)
    f = frozenset(clauses)
    ws = mps.mps_subsets_direct(f) if args.direct else mps.mps_subsets(f)
    ws = sorted(ws, key=lambda w: (len(w.subset), core.clause_key(w.conclusion)))
    print(json.dumps({
        "count": len(ws),
        "total_mps": mps.is_total_mps(f),
        "max_prime_implicates": mps.has_max_prime_implicates(f),
        "witnesses": [{
            "subset": [_clause_out(c) for c in sorted(w.subset, key=core.clause_key)],
            "conclusion": _clause_out(w.conclusion),
        } for w in ws],
    }, indent=2))
    return 0


def cmd_dope(args) -> int:
    clauses, _ = _read_clauses(args.file)
    d = translate.dope(frozenset(clauses))
    comments = [f"doping variable {u} for clause {' '.join(map(str, _clause_out(c)))}"
                for u, c in d.new_vars.items()]  # in clause_key order, as dope numbers them
    _write(core.emit_dimacs(d.ordered, "cnf", comments), args.output)
    return 0


def cmd_tree(args) -> int:
    t = trees.extremal_tree(args.k, args.h)
    if args.emit == "dot":
        _write(trees.to_dot(t), args.output)
    else:
        doped = args.emit == "doped"
        clauses = trees.doped_tree(t).ordered if doped else trees.tree_clauses(t)
        comment = f"{'doped ' if doped else ''}extremal tree k={args.k} h={args.h}"
        _write(core.emit_dimacs(clauses, "cnf", [comment]), args.output)
    return 0


def cmd_translate(args) -> int:
    if args.mode == "xor":
        lits = [int(x) for x in args.xor.split()]
        res = translate.xor_chain(lits)
    else:
        clauses, fmt = _read_clauses(args.file)
        if fmt != "dnf":
            print("warning: input not marked 'p dnf', reading clauses as DNF",
                  file=sys.stderr)
        fn = translate.cant if args.mode == "cant" else translate.cantm
        res = fn(clauses)
    comments = [f"{res.kind} translation"] + [
        f"selector {v} for clause {' '.join(map(str, _clause_out(c)))}"
        for v, c in sorted(res.new_vars.items())]
    _write(core.emit_dimacs(res.ordered, "cnf", comments), args.output)
    return 0


def cmd_trigger(args) -> int:
    if args.tree:
        k_tree, h = args.tree
        width = k_tree - 1 if args.width is None else args.width
        print(trigger.depth_k_incomparable_family(trees.extremal_tree(k_tree, h), width).to_json())
        return 0
    clauses, _ = _read_clauses(args.file)
    p = reductions.prime_implicates(frozenset(clauses))
    h = trigger.trigger_hypergraph(p, args.k)
    tau, tau_set = trigger.transversal_number(h)
    nu, nu_edges = trigger.matching_number(h)
    print(json.dumps({
        "k": args.k,
        "vertices": len(h.vertices),
        "transversal_number": tau,
        "transversal": [_clause_out(c) for c in sorted(tau_set, key=core.clause_key)],
        "matching_number": nu,
        "matching": [[_clause_out(c) for c in sorted(e, key=core.clause_key)]
                     for e in nu_edges],
    }, indent=2))
    return 0


def cmd_generate(args) -> int:
    spec = bench.InstanceSpec(args.k, args.h, args.variant)
    _write(bench.instance_dimacs(spec), args.output)
    return 0


def cmd_stats(args) -> int:
    if args.table:
        rows = [bench.stats(bench.InstanceSpec(k, h, v))
                for k, h in bench.default_grid() for v in (1, 2, 3)]
    else:
        variants = [args.variant] if args.variant else [1, 2, 3]
        rows = [bench.stats(bench.InstanceSpec(args.k, args.h, v)) for v in variants]
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in rows], indent=2))
    elif args.csv:
        print(",".join(f.name for f in dataclasses.fields(bench.StatsRecord)))
        for r in rows:
            print(",".join(map(str, dataclasses.astuple(r))))
    else:
        hdr = f"{'k':>2} {'h':>3} {'i':>2} {'n':>9} {'c':>10} {'l':>10} {'alpha':>8} {'hd':>3}"
        print(hdr)
        for r in rows:
            print(f"{r.k:>2} {r.h:>3} {r.variant:>2} {r.n:>9} {r.c:>10} "
                  f"{r.l:>10} {r.alpha:>8} {r.hardness:>3}")
    return 0


def cmd_verify(args) -> int:
    spec = bench.InstanceSpec(args.k, args.h, args.variant)
    report = bench.verify(spec, args.level)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for later calls of
    `main` in the same process."""
    ap = argparse.ArgumentParser(prog="repkit", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="hardness measures and reductions")
    p.add_argument("file")
    p.add_argument("--measure", default="hd",
                   choices=["hd", "phd", "whd", "hd-unsat", "whd-unsat",
                            "rk", "rinf", "prime", "essential", "sat"])
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("mps", help="minimal premise subsets")
    p.add_argument("file")
    p.add_argument("--direct", action="store_true",
                   help="enumerate subsets instead of going through doping")
    p.set_defaults(fn=cmd_mps)

    p = sub.add_parser("dope", help="add a fresh variable to every clause")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_dope)

    p = sub.add_parser("tree", help="extremal trees and their clause-sets")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--emit", default="cnf", choices=["cnf", "doped", "dot"])
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser("translate", help="DNF/XOR to CNF translations")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--mode", default="cant", choices=["cant", "cantm", "xor"])
    p.add_argument("--xor", help="literals of the XOR (sum 0), e.g. '1 2 3'")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("trigger", help="trigger hypergraph bounds, or a separation certificate")
    p.add_argument("file", nargs="?")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--tree", type=int, nargs=2, metavar=("K", "H"),
                   help="certify the doped extremal_tree(K, H) instead of reading a file")
    p.add_argument("--width", type=int, help="the certificate's width (default K - 1)")
    p.set_defaults(fn=cmd_trigger)

    p = sub.add_parser("generate", help="benchmark instances")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--variant", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("stats", help="closed-form instance measures")
    p.add_argument("--table", action="store_true")
    p.add_argument("--k", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--variant", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("verify", help="check generated instances")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--variant", type=int, required=True)
    p.add_argument("--level", default="formulas", choices=["formulas", "hardness"])
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    if args.cmd == "stats" and not args.table and (args.k is None or args.h is None):
        ap.error("stats needs --table or both --k and --h")
    if args.cmd == "translate" and args.mode == "xor" and not args.xor:
        ap.error("--mode xor needs --xor 'lits'")
    if args.cmd == "trigger" and (args.file is None) == (args.tree is None):
        ap.error("trigger needs either FILE or --tree K H")
    if args.cmd == "trigger" and args.width is not None and args.tree is None:
        ap.error("--width needs --tree K H")
    try:
        return args.fn(args)
    except core.DimacsError as e:
        return _fail(e, 3)
    except core.SizeLimitExceeded as e:
        return _fail(e, 4)
    except ValueError as e:
        return _fail(e, 5)
    except OSError as e:
        return _fail(e, 6)


def _fail(e: Exception, code: int) -> int:
    print(f"repkit: {e}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
