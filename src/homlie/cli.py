"""Command-line interface.

Subcommands: check-axioms, check-map, solve, classify, commuting-maps,
corollaries, reproduce-paper.  Output is deterministic; --output json emits a
stable schema {command, config, results: [...]}.  Exit status: 0 when every
reported check passes, 1 when any fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction

from .algebra import BUILTIN_NAMES, PresentationError, UnknownGenerator, Vector, Window, builtin
from .checker import (
    ClassModeMismatch,
    check_axioms,
    check_bilinear_class,
    check_multiplicative,
)
from .classify import (
    KNOWN_MAPS, PAPER_MAPS, DependentKnowns, UnknownMap, corollary_check, decompose, known_map,
    solve_commuting_maps,
)
from .dsl import ParseError, load
from .qfield import ForbiddenSpecialization, QRational
from .solver import nullspace_dim_specialized, stable_solve
from .suite import AcceptanceSuite, BadThreadCount, SuiteConfig, parse_thread_count

BILINEAR_FLAGS = {
    "biderivation": "biderivation",
    "super-biderivation": "super_biderivation",
    "alpha-biderivation": "alpha_biderivation",
    "alpha-super-biderivation": "alpha_super_biderivation",
}
LINEAR_FLAGS = {
    "derivation": "derivation",
    "super-derivation": "super_derivation",
    "alpha-derivation": "alpha_k_derivation",
    "commuting-map": "commuting_map",
}


def _parse_window(text):
    try:
        lo, hi = text.split("..")
        w = Window(int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"window must look like -6..6, got {text!r}")
    if w.lo > w.hi:
        raise argparse.ArgumentTypeError("window is empty")
    return w


def _parse_range(text):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must look like -4..4, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError("degree range is empty")
    return (lo, hi)


def _nonnegative_int(text):
    if not re.fullmatch(r"\d+", text):
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _thread_count(text):
    try:
        return parse_thread_count(text)
    except BadThreadCount as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_rational(text):
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")
    if value in (0, 1, -1):
        raise argparse.ArgumentTypeError("q may not be specialized to 0, 1 or -1")
    return value


def _load_algebra(name_or_path):
    if name_or_path in BUILTIN_NAMES:
        return builtin(name_or_path)
    return load(name_or_path)


def _common(sub):
    sub.add_argument("--algebra", required=True,
                     help="built-in name (%s) or an .alg file" % ", ".join(BUILTIN_NAMES))
    sub.add_argument("--window", type=_parse_window, default=Window(-6, 6),
                     help="degree window lo..hi (default -6..6)")
    sub.add_argument("--output", choices=("text", "json"), default="text")
    sub.add_argument("--out", help="write the report to this path instead of stdout")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for randomized spot checks")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let option values like -6..6 or -1/2 through the option detector
        self._negative_number_matcher = re.compile(r"^-\d+(\.\.-?\d+|/\d+)?$")

    def error(self, message):
        # one line on stderr; --help shows the usage
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser():
    ap = _Parser(
        prog="homlie",
        description="Exact biderivation, commuting-map and twisted-derivation "
                    "computations for graded Hom-Lie (super)algebras over Q(q).",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    sub = sp.add_parser("check-axioms", help="verify the algebra axioms on a window")
    _common(sub)
    sub.add_argument("--samples", type=_nonnegative_int, default=20,
                     help="random bilinearity spot checks (default 20)")

    sub = sp.add_parser("check-map", help="check a named map against a class")
    _common(sub)
    sub.add_argument("--map", required=True, choices=tuple(KNOWN_MAPS))
    sub.add_argument("--class", dest="cls", required=True,
                     choices=sorted(BILINEAR_FLAGS))

    sub = sp.add_parser("solve", help="stable solution space of a map class")
    _common(sub)
    sub.add_argument("--class", dest="cls", required=True,
                     choices=sorted(BILINEAR_FLAGS) + sorted(LINEAR_FLAGS))
    sub.add_argument("--degree", type=int, default=0, help="degree shift s")
    sub.add_argument("--parity", type=int, choices=(0, 1), default=0)
    sub.add_argument("--delta", type=_nonnegative_int, default=2, help="window enlargement")
    sub.add_argument("--k", type=_nonnegative_int, default=1,
                     help="twist power for alpha-derivation")
    sub.add_argument("--specialize-q", type=_parse_rational, default=None,
                     help="also report the window dimension at this rational q")

    sub = sp.add_parser("classify", help="solve and decompose against the named maps")
    _common(sub)
    sub.add_argument("--class", dest="cls", required=True, choices=sorted(BILINEAR_FLAGS))
    sub.add_argument("--degree", type=int, default=0)
    sub.add_argument("--parity", type=int, choices=(0, 1), default=0)
    sub.add_argument("--delta", type=_nonnegative_int, default=2)
    sub.add_argument("--knowns", default=None,
                     help="comma-separated named maps (default: a sensible set)")

    sub = sp.add_parser("commuting-maps", help="classify linear commuting maps")
    _common(sub)
    sub.add_argument("--parity", choices=("0", "1", "both"), default="both")
    sub.add_argument("--delta", type=_nonnegative_int, default=2)
    sub.add_argument("--degree-range", type=_parse_range, default=(-4, 4))

    sub = sp.add_parser("corollaries",
                        help="which commuting maps are automorphisms/derivations")
    _common(sub)
    sub.add_argument("--parity", choices=("0", "1", "both"), default="both")
    sub.add_argument("--delta", type=_nonnegative_int, default=2)
    sub.add_argument("--degree-range", type=_parse_range, default=(-4, 4))

    sub = sp.add_parser("reproduce-paper",
                        help="run the complete desk-scale verification suite")
    sub.add_argument("--window", type=_parse_window, default=Window(-6, 6))
    sub.add_argument("--delta", type=_nonnegative_int, default=2)
    sub.add_argument("--degree-range", type=_parse_range, default=(-4, 4))
    sub.add_argument("--threads", type=_thread_count, default=None,
                     help="parallel workers (default: HOMLIE_THREADS or 2)")
    sub.add_argument("--output", choices=("text", "json"), default="text")
    sub.add_argument("--out", default=None)
    sub.add_argument("--seed", type=int, default=0)
    return ap


def _emit(args, payload, any_failed):
    if args.output == "json":
        text = json.dumps(payload, indent=2, default=str) + "\n"
    else:
        lines = []
        for res in payload["results"]:
            status = res["status"].upper()
            lines.append(f"[{status:4s}] {res['name']}")
            for d in res.get("details", ()):
                lines.append(f"    {d}")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if any_failed else 0


def _config_dict(args, extra=None):
    cfg = {"algebra": getattr(args, "algebra", None)}
    if hasattr(args, "window"):
        cfg["window"] = [args.window.lo, args.window.hi]
    for key in ("degree", "parity", "delta", "k", "seed"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    if getattr(args, "specialize_q", None) is not None:
        cfg["specialize_q"] = str(args.specialize_q)
    if extra:
        cfg.update(extra)
    return cfg


def _witness_payload(report, limit=3):
    out = []
    for name, inputs, lhs, rhs in report.witnesses[:limit]:
        out.append({
            "identity": name,
            "inputs": [str(g) for g in inputs],
            "lhs": str(lhs),
            "rhs": str(rhs),
        })
    return out


def _random_vector(p, window, rng):
    gens = p.gens_in(window)
    v = Vector({})
    for _ in range(3):
        g = rng.choice(gens)
        c = QRational(rng.randint(-3, 3))
        v = v + Vector.of(g, c)
    return v


def cmd_check_axioms(args):
    p = _load_algebra(args.algebra)
    results = []
    rep = check_axioms(p, args.window)
    results.append({
        "name": "axioms", "status": "pass" if rep.passed else "fail",
        "details": [str(rep)], "witnesses": _witness_payload(rep),
    })
    mul = check_multiplicative(p, args.window)
    results.append({
        "name": "multiplicative", "status": "pass" if mul.passed else "fail",
        "details": [str(mul)], "witnesses": _witness_payload(mul),
    })
    rng = random.Random(args.seed)
    ok = True
    for _ in range(args.samples):
        x = _random_vector(p, args.window, rng)
        y = _random_vector(p, args.window, rng)
        z = _random_vector(p, args.window, rng)
        if p.bracket(x + y, z) != p.bracket(x, z) + p.bracket(y, z):
            ok = False
        if p.alpha(x + y) != p.alpha(x) + p.alpha(y):
            ok = False
    results.append({
        "name": "random-bilinearity", "status": "pass" if ok else "fail",
        "details": [f"{args.samples} random samples, seed {args.seed}"],
    })
    payload = {
        "command": "check-axioms",
        "config": _config_dict(args, {"samples": args.samples}),
        "results": results,
    }
    failed = any(r["status"] == "fail" for r in results if r["name"] != "multiplicative")
    return _emit(args, payload, failed)


def cmd_check_map(args):
    p = _load_algebra(args.algebra)
    cls = BILINEAR_FLAGS[args.cls]
    phi = known_map(args.map, p)
    rep = check_bilinear_class(p, phi, cls, args.window)
    payload = {
        "command": "check-map",
        "config": _config_dict(args, {"map": args.map, "class": args.cls}),
        "results": [{
            "name": f"{args.map} as {args.cls}",
            "status": "pass" if rep.passed else "fail",
            "details": [str(rep)],
            "witnesses": _witness_payload(rep),
        }],
    }
    return _emit(args, payload, not rep.passed)


def cmd_solve(args):
    p = _load_algebra(args.algebra)
    if args.cls in BILINEAR_FLAGS:
        kind, cls = "bilinear", BILINEAR_FLAGS[args.cls]
    else:
        kind, cls = "linear", LINEAR_FLAGS[args.cls]
    space = stable_solve(
        p, kind, cls, s=args.degree, parity=args.parity,
        window=args.window, delta=args.delta, k=args.k,
    )
    if space.raw_enlarged_dim is None:
        enlarged = "enlarged not solved (window space is 0)"
    else:
        enlarged = f"enlarged {space.raw_enlarged_dim}"
    details = [
        f"stable dim {space.dim} (raw window {space.raw_window_dim}, {enlarged})",
        "finite-window evidence only; not a proof over all degrees",
    ]
    result = {
        "name": f"{args.cls} degree {args.degree} parity {args.parity}",
        "status": "pass",
        "dim": space.dim,
        "details": details,
    }
    if args.specialize_q is not None:
        result["dim_specialized"] = nullspace_dim_specialized(space.system, args.specialize_q)
        details.append(
            f"window dim at q={args.specialize_q}: {result['dim_specialized']}"
        )
    payload = {
        "command": "solve",
        "config": _config_dict(args, {"class": args.cls}),
        "results": [result],
    }
    return _emit(args, payload, False)


def cmd_classify(args):
    p = _load_algebra(args.algebra)
    cls = BILINEAR_FLAGS[args.cls]
    if args.knowns:
        names = [x.strip() for x in args.knowns.split(",") if x.strip()]
    else:
        names = list(PAPER_MAPS.get((p.name, args.parity), ("phi_ad",)))
    knowns = {}
    for name in names:
        if name in knowns:
            raise DependentKnowns(
                f"the named maps are linearly dependent: {name} is listed twice"
            )
        knowns[name] = known_map(name, p)
    space = stable_solve(
        p, "bilinear", cls, s=args.degree, parity=args.parity,
        window=args.window, delta=args.delta,
    )
    result = {
        "name": f"{args.cls} degree {args.degree} parity {args.parity}",
        "dim": space.dim,
        "details": [],
    }
    if space.dim:
        rep = decompose(space, knowns)
        result["status"] = "pass" if rep.residual_dim == 0 else "fail"
        result["residual_dim"] = rep.residual_dim
        result["coefficients"] = [
            None if c is None else {k: str(v) for k, v in c.items()}
            for c in rep.coefficients
        ]
        result["details"].append(
            f"stable dim {space.dim}; residual outside span({', '.join(names)}) "
            f"= {rep.residual_dim}"
        )
    else:
        result["status"] = "pass"
        result["residual_dim"] = 0
        result["coefficients"] = []
        result["details"].append("stable dim 0")
    payload = {
        "command": "classify",
        "config": _config_dict(args, {"class": args.cls, "knowns": names}),
        "results": [result],
    }
    return _emit(args, payload, result["status"] == "fail")


def _parities(p, flag):
    if flag == "both":
        return (0, 1) if p.is_super else (0,)
    return (int(flag),)


def cmd_commuting_maps(args):
    p = _load_algebra(args.algebra)
    results = []
    for parity in _parities(p, args.parity):
        fam = solve_commuting_maps(
            p, parity, args.window, delta=args.delta, degree_range=args.degree_range
        )
        detail = [
            f"{len(fam.instances)} parameter(s); degree shifts "
            f"{sorted({s for s, _, _ in fam.instances})}"
        ]
        for i, (s, vec, _) in enumerate(fam.instances):
            shown = sorted(vec.items())[:4]
            entries = ", ".join(f"{k}: {v}" for k, v in shown)
            detail.append(f"{fam.parameters[i]} (degree {s}): {entries}"
                          + (" ..." if len(vec) > 4 else ""))
        results.append({
            "name": f"commuting maps, parity {parity}",
            "status": "pass",
            "dim": fam.dim,
            "details": detail,
        })
    payload = {
        "command": "commuting-maps",
        "config": _config_dict(args, {"degree_range": list(args.degree_range)}),
        "results": results,
    }
    return _emit(args, payload, False)


def cmd_corollaries(args):
    p = _load_algebra(args.algebra)
    results = []
    for parity in _parities(p, args.parity):
        fam = solve_commuting_maps(
            p, parity, args.window, delta=args.delta, degree_range=args.degree_range
        )
        props = ["derivation" if not p.is_super else "super_derivation"]
        if parity == 0:
            props.insert(0, "automorphism")
        for prop in props:
            rep = corollary_check(p, fam, prop, args.window)
            sols = [
                {k: str(v) for k, v in sol.items()} for sol in rep.solutions
            ]
            results.append({
                "name": f"commuting {prop}s, parity {parity}",
                "status": "pass",
                "coefficients": sols,
                "details": [
                    f"admissible parameter points: {sols}",
                    f"classified as: {rep.classifications}",
                ],
            })
    payload = {
        "command": "corollaries",
        "config": _config_dict(args, {"degree_range": list(args.degree_range)}),
        "results": results,
    }
    return _emit(args, payload, False)


def cmd_reproduce(args):
    cfg = SuiteConfig(
        window=args.window,
        delta=args.delta,
        degree_range=args.degree_range,
        threads=args.threads,
    )
    log = (lambda s: print(s, flush=True)) if args.output == "text" and not args.out \
        else (lambda s: None)
    suite = AcceptanceSuite(cfg, log=log)
    results = suite.run_all()
    payload = {
        "command": "reproduce-paper",
        "config": {
            "window": [args.window.lo, args.window.hi],
            "delta": args.delta,
            "degree_range": list(args.degree_range),
            "seed": args.seed,
        },
        "results": [
            {"name": r.name, "status": r.status, "details": r.details}
            for r in results
        ],
    }
    failed = any(not r.passed for r in results)
    if args.output == "text" and not args.out:
        print("all criteria passed" if not failed else "SOME CRITERIA FAILED")
        return 1 if failed else 0
    return _emit(args, payload, failed)


_HANDLERS = {
    "check-axioms": cmd_check_axioms,
    "check-map": cmd_check_map,
    "solve": cmd_solve,
    "classify": cmd_classify,
    "commuting-maps": cmd_commuting_maps,
    "corollaries": cmd_corollaries,
    "reproduce-paper": cmd_reproduce,
}


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ParseError, PresentationError, ClassModeMismatch,
            ForbiddenSpecialization, OSError, BadThreadCount,
            DependentKnowns) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnknownMap as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except UnknownGenerator as exc:
        print(f"error: unknown generator {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the input is too large to evaluate in memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
