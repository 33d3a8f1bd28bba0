"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 input/usage error,
4 internal error: any unexpected exception, such as a decomposition whose
certificate fails its own re-verification.  Commands that take --seed
default to seed 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .counting import (
    count_hamilton_cycles_exact,
    count_hamilton_decompositions_exact,
    decomposition_upper_bound,
    sandwich_experiment,
)
from .errors import FormatError, HamdecError
from .factors import extract_oriented_r_factor, oriented_reg
from .graphs import (
    OrientedGraph,
    random_regular_oriented,
    random_tournament,
    read_edge_list,
    rotational_tournament,
    write_edge_list,
)
from .pipeline import (
    DecompositionCertificate,
    RunConfig,
    approximate_decomposition,
    verify_certificate,
)


class UsageError(HamdecError):
    """Arguments that parse but cannot be acted on."""


def _read_graph(path: str) -> OrientedGraph:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"graph file {path} is not ASCII: {exc}") from exc
    return read_edge_list(text)


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(doc, out: str | None) -> None:
    _write_text(json.dumps(doc, indent=2) + "\n", out)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hamdec",
                                 description="Edge-disjoint Hamilton cycles in oriented graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a graph as an edge list")
    g.add_argument("--kind", choices=("rotational", "tournament", "regular"),
                   default="rotational")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--r", type=int, default=None, help="degree for --kind regular")
    g.add_argument("--seed", type=int, default=None,
                   help="seed for --kind tournament or regular (default 0)")
    g.add_argument("--out", default=None)

    r = sub.add_parser("reg", help="print the maximum regular factor degree")
    r.add_argument("graph")

    f = sub.add_parser("factor", help="emit an r-factor as an edge list")
    f.add_argument("graph")
    f.add_argument("--r", type=int, required=True)
    f.add_argument("--out", default=None)

    d = sub.add_parser("decompose", help="run the decomposition pipeline")
    d.add_argument("graph")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", default=None)

    v = sub.add_parser("verify", help="check a certificate against a graph")
    v.add_argument("graph")
    v.add_argument("certificate")

    b = sub.add_parser("bounds", help="decomposition upper bound for an (n, r)-regular graph")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--r", type=int, required=True)

    c = sub.add_parser("count-exact", help="exact cycle/decomposition counts")
    c.add_argument("graph")
    c.add_argument("--what", choices=("cycles", "decompositions"),
                   default="decompositions")

    s = sub.add_parser("sandwich", help="decomposition-count sandwich at tiny n")
    s.add_argument("--n", type=int, required=True)
    return ap


def cli_main(argv: Sequence[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except (HamdecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input: never exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def _dispatch(args) -> int:
    if args.command == "generate":
        if args.kind == "regular" and args.r is None:
            raise UsageError("--kind regular needs --r")
        if args.kind != "regular" and args.r is not None:
            raise UsageError(f"--r applies only to --kind regular, not {args.kind}")
        if args.kind == "rotational" and args.seed is not None:
            raise UsageError("--seed does not apply to --kind rotational, which is not random")
        if args.kind == "rotational":
            g = rotational_tournament(args.n)
        elif args.kind == "tournament":
            g = random_tournament(args.n, args.seed or 0)
        else:
            g = random_regular_oriented(args.n, args.r, args.seed or 0)
        _write_text(write_edge_list(g), args.out)
        return 0

    if args.command == "reg":
        g = _read_graph(args.graph)
        print(oriented_reg(g))
        return 0

    if args.command == "factor":
        g = _read_graph(args.graph)
        _write_text(write_edge_list(extract_oriented_r_factor(g, args.r)), args.out)
        return 0

    if args.command == "decompose":
        g = _read_graph(args.graph)
        cert, report = approximate_decomposition(g, RunConfig(seed=args.seed))
        _emit_json({"certificate": cert.to_json(), "report": report.to_json()},
                   args.out)
        return 0

    if args.command == "verify":
        g = _read_graph(args.graph)
        with open(args.certificate, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
                cert = DecompositionCertificate.from_json(
                    doc["certificate"] if "certificate" in doc else doc)
            except KeyError as exc:
                raise FormatError(f"certificate lacks the key {exc}") from exc
            except (ValueError, TypeError) as exc:
                raise FormatError(f"malformed certificate: {exc}") from exc
        ok, violation = verify_certificate(g, cert)
        if ok:
            print("certificate ok")
            return 0
        print(f"certificate invalid: {violation}", file=sys.stderr)
        return 1

    if args.command == "bounds":
        if args.n < 1 or args.r < 1:
            raise UsageError("bounds needs --n >= 1 and --r >= 1")
        if args.r > (args.n - 1) // 2:
            raise UsageError(f"no oriented graph on {args.n} vertices is "
                             f"{args.r}-regular: r exceeds (n-1)/2")
        _emit_json({"n": args.n, "r": args.r,
                    "upper_log": decomposition_upper_bound(args.n, args.r).log}, None)
        return 0

    if args.command == "count-exact":
        g = _read_graph(args.graph)
        if args.what == "cycles":
            lc = count_hamilton_cycles_exact(g)
        else:
            lc = count_hamilton_decompositions_exact(g)
        r = oriented_reg(g)
        upper = decomposition_upper_bound(n=g.n, r=r) if (
            args.what == "decompositions" and r >= 1) else None
        _emit_json({"n": g.n, "r": r, "what": args.what, "exact": lc.exact,
                    "exact_log": None if lc.is_zero else lc.log,
                    "upper_log": None if upper is None else upper.log}, None)
        return 0

    if args.command == "sandwich":
        _, payload = sandwich_experiment(args.n)
        _emit_json(payload, None)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
