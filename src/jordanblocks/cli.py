"""Command-line front end.

Subcommands mirror the library: ``tensor``, ``wedge``, ``sym``,
``ring constants``, ``adjoint classical``, ``g2 table``, ``springer apply``,
``predict char0``, ``series invert`` and ``verify paper``.  Partitions print
in compressed form like ``(8^2,5)``; ``--json`` switches any command to a
machine-readable document.  Exit status: 0 on success, 1 when a verification
fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .char0 import check_theorem
from .classical import cayley_series, good_char_report
from .errors import AlgebraError
from .fgl import GeneralizedLaw, additive, load_law, multiplicative, scaled_multiplicative
from .fields import Field
from .g2 import g2_table
from .linalg import Partition, jordan_partition, nilpotent_from_partition, unipotent_partition
from .repring import RingElement, structure_constants, sym_partition, tensor_partition, wedge_partition
from .series import TruncatedPoly, compose_inverse
from .verify import verify_paper


def parse_partition(text: str) -> Partition:
    return Partition(sorted((int(x) for x in text.split(",") if x.strip()), reverse=True))


def parse_law(spec: str, field: Field) -> GeneralizedLaw:
    if spec == "additive":
        return additive(field)
    if spec == "multiplicative":
        return multiplicative(field)
    if spec.startswith("scaled:"):
        return scaled_multiplicative(field, field(spec.split(":", 1)[1]))
    return load_law(spec)


def _emit(args, payload: dict, text: str) -> None:
    print(json.dumps(payload) if args.json else text)


def cmd_tensor(args) -> int:
    field = Field(args.p)
    law = parse_law(args.law, field)
    if args.a is not None and args.b is not None:
        lam, mu = Partition((args.a,)), Partition((args.b,))
    elif args.lam is not None and args.mu is not None:
        lam, mu = args.lam, args.mu
    else:
        raise AlgebraError("need either --a/--b or --lambda/--mu")
    part = tensor_partition(lam, mu, law, field)
    element = RingElement.from_partition(part)
    _emit(args, {"p": args.p, "law": args.law, "lambda": list(lam), "mu": list(mu),
                 "partition": part.to_json(), "class": element.to_json()},
          element.pretty())
    return 0


def cmd_power(args) -> int:
    field = Field(args.p)
    law = parse_law(args.law, field)
    fn = wedge_partition if args.command == "wedge" else sym_partition
    part = fn(args.lam, args.m, law, field)
    _emit(args, {"p": args.p, "law": args.law, "lambda": list(args.lam), "m": args.m,
                 "partition": part.to_json()},
          f"{part.compressed()}  [{RingElement.from_partition(part).pretty()}]")
    return 0


def cmd_ring(args) -> int:
    field = Field(args.p)
    law = parse_law(args.law, field)
    element = structure_constants(args.a, args.b, law, field)
    _emit(args, {"p": args.p, "law": args.law, "n": args.a, "m": args.b,
                 "class": element.to_json()},
          f"J{args.a} * J{args.b} = {element.pretty()}")
    return 0


def cmd_adjoint(args) -> int:
    report = good_char_report(args.kind, args.lam, args.p)
    _emit(args, report.to_json(),
          f"{args.kind} lambda={Partition(args.lam).compressed()} p={args.p}: "
          f"ad={report.nilpotent.compressed()} Ad={report.unipotent.compressed()} "
          f"equal={report.equal}")
    return 0


def cmd_g2(args) -> int:
    rows = g2_table(args.p)
    if args.json:
        print(json.dumps([row.to_json() for row in rows]))
    else:
        for row in rows:
            print(f"{row.orbit:8s} V={row.v_partition.compressed():12s} "
                  f"ad={row.adjoint_nilpotent.compressed():14s} "
                  f"Ad={row.adjoint_unipotent.compressed():14s} "
                  f"routes_agree={row.routes_agree} matches_table={row.matches_table}")
    return 0 if all(r.matches_table and r.routes_agree for r in rows) else 1


def cmd_springer(args) -> int:
    field = Field(args.p)
    x = nilpotent_from_partition(field, args.lam)
    trunc = max(args.lam, default=1) + 1
    if args.series == "cayley":
        eps = cayley_series(trunc, field)
    else:
        import random

        from .verify import random_series_with_unit
        eps = random_series_with_unit(random.Random(f"springer:{args.seed}"), field, trunc)
    from .classical import springer_image
    u = springer_image(eps, x)
    part = unipotent_partition(u)
    preserved = part == jordan_partition(x)
    _emit(args, {"p": args.p, "lambda": list(args.lam), "series": args.series,
                 "unipotent_partition": part.to_json(), "preserved": preserved},
          f"1 + eps(X): partition {part.compressed()}, preserved={preserved}")
    return 0 if preserved else 1


def cmd_predict(args) -> int:
    report = check_theorem(args.kind, args.lam)
    predicted = "-" if report.predicted is None else report.predicted.compressed()
    _emit(args, report.to_json(),
          f"{args.kind} {Partition(args.lam).compressed()}: n={report.n} gate={report.gate} "
          f"predicted={predicted} ad={report.ad.compressed()} contained={report.contained}")
    return 0


def cmd_series(args) -> int:
    field = Field(args.p)
    coeffs = [field(c) for c in args.coeffs.split(",")]
    f = TruncatedPoly.univariate(field, args.trunc, coeffs)
    g = compose_inverse(f)
    _emit(args, {"p": args.p, "trunc": args.trunc, "inverse": g.to_json()},
          f"inverse: {g!r}")
    return 0


def cmd_verify(args) -> int:
    results = verify_paper(only=args.only, seed=args.seed)
    if args.json:
        print(json.dumps([r.to_json() for r in results]))
    else:
        for r in results:
            print(f"{'PASS' if r.ok else 'FAIL'} {r.name:22s} {r.seconds:7.2f}s  {r.detail}")
    return 0 if all(r.ok for r in results) else 1


def _add_common(sub, lam=False, law=False, p=True):
    """--p, --law and --json; ``lam`` adds a --lambda that is required."""
    if p:
        sub.add_argument("--p", type=int, required=True, help="field characteristic (0 for Q)")
    if law:
        sub.add_argument("--law", default="additive",
                         help="additive | multiplicative | scaled:<c> | <file.json>")
    if lam:
        sub.add_argument("--lambda", dest="lam", type=parse_partition, required=True,
                         help="partition, e.g. 4,2,1")
    sub.add_argument("--json", action="store_true", help="emit a JSON document")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jordanblocks",
        description="Exact Jordan-block partitions under formal-group-law tensor products.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("tensor", help="tensor product of two block classes")
    s.add_argument("--a", type=int)
    s.add_argument("--b", type=int)
    s.add_argument("--lambda", dest="lam", type=parse_partition,
                   help="partition, e.g. 4,2,1 (with --mu, instead of --a/--b)")
    s.add_argument("--mu", dest="mu", type=parse_partition)
    _add_common(s, law=True)
    s.set_defaults(fn=cmd_tensor)

    for name in ("wedge", "sym"):
        s = subs.add_parser(name, help=f"{name} power partition")
        s.add_argument("--m", type=int, default=2)
        _add_common(s, lam=True, law=True)
        s.set_defaults(fn=cmd_power)

    s = subs.add_parser("ring", help="representation ring: 'constants'")
    s.add_argument("action", choices=["constants"])
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--b", type=int, required=True)
    _add_common(s, law=True)
    s.set_defaults(fn=cmd_ring)

    s = subs.add_parser("adjoint", help="classical adjoint partitions: 'classical'")
    s.add_argument("action", choices=["classical"])
    s.add_argument("--kind", choices=["GL", "Sp", "SO"], required=True)
    _add_common(s, lam=True)
    s.set_defaults(fn=cmd_adjoint)

    s = subs.add_parser("g2", help="exceptional table: 'table'")
    s.add_argument("action", choices=["table"])
    _add_common(s)
    s.set_defaults(fn=cmd_g2)

    s = subs.add_parser("springer", help="apply a Springer series: 'apply'")
    s.add_argument("action", choices=["apply"])
    s.add_argument("--series", choices=["cayley", "random"], default="cayley")
    s.add_argument("--seed", type=int, default=0)
    _add_common(s, lam=True)
    s.set_defaults(fn=cmd_springer)

    s = subs.add_parser("predict", help="characteristic-0 predictor: 'char0'")
    s.add_argument("action", choices=["char0"])
    s.add_argument("--kind", choices=["GL", "Sp", "SO"], required=True)
    _add_common(s, lam=True, p=False)
    s.set_defaults(fn=cmd_predict)

    s = subs.add_parser("series", help="series utilities: 'invert'")
    s.add_argument("action", choices=["invert"])
    s.add_argument("--coeffs", required=True, help="coefficients from degree 0, e.g. 0,1,1")
    s.add_argument("--trunc", type=int, default=8)
    _add_common(s)
    s.set_defaults(fn=cmd_series)

    s = subs.add_parser("verify", help="re-derive the published values: 'paper'")
    s.add_argument("action", choices=["paper"])
    s.add_argument("--only", help="run one suite (unique prefix allowed)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
