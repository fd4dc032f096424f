"""Command-line interface.

Subcommands: field validate, code build, insdel encode/decode/corrupt,
affine encode/decode/corrupt/params, separator build/verify, sync
build/verify, bounds, experiment run.  Exit status 0 on success, 1 on
domain failures (decode failure, construction failure, capacity, failed
experiment assertions), 2 on usage errors.  All randomness flows from
--seed flags; identical invocations produce identical bytes.

Every code kind reads and writes words over its alphabet code.q, and
decode inverts encode, so `insdel decode` on an affine spec writes the
message bits.  `affine encode/decode/corrupt` are the insdel commands with
bit-stream defaults: raw format, an affine code from --epsilon/--n0/--seed
when --code is absent (and only affine specs), and insertions drawn from
{0, 1}.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from . import bounds as bounds_mod
from . import harness
from .affine_insdel import AffineCode, affine_params, affine_params_sweep
from .editops import insdel_channel
from .errors import (CapacityError, ConstructionFailure, DecodeFailure,
                     InsdelError, InvalidSpecError, UsageError)
from .formats import read_json, read_values, write_json, write_values
from .gf import BinaryField, Field, PrimeField, field_from_json
from .hamming_ecc import LinearCode, random_linear_code, rs_build
from .linear_insdel import (InsdelCode, SystematicInsdelCode,
                            build_explicit, build_monte_carlo)
from .separator import (SeparatorSequence, construct_explicit, local_check,
                        max_undesired, sample_separator)
from .sync_string import SyncString, construct_sync_string, verify_eta


def _field_from_args(args) -> Field:
    if args.prime is not None and args.degree is not None:
        raise UsageError("give either --prime or --degree, not both")
    if args.prime is not None:
        return PrimeField(args.prime)
    if args.degree is not None:
        return BinaryField(args.degree, args.modulus)
    raise UsageError("a field is required: --prime P or --degree L")


def _add_field_flags(parser) -> None:
    parser.add_argument("--prime", type=int, help="prime field size p")
    parser.add_argument("--degree", type=int, help="binary extension degree l")
    parser.add_argument("--modulus", type=int,
                        help="irreducible polynomial bitmask (optional)")


def _add_word_flags(parser, fmt: str) -> None:
    parser.add_argument("--in", dest="infile", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--format", default=fmt, choices=["json", "csv", "raw"])


def _add_channel_flags(parser, fmt: str) -> None:
    _add_word_flags(parser, fmt)
    parser.add_argument("--ins", type=int, default=0)
    parser.add_argument("--del", type=int, default=0)
    parser.add_argument("--seed", type=int, required=True)


def _load_spec(path, parse, what: str):
    """Read a JSON file and parse it; a spec of the wrong shape fails
    wherever the parser first touches it, so report it as a usage error
    (InvalidSpecError, exit 2), not a traceback."""
    spec = read_json(path)
    try:
        return parse(spec)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise InvalidSpecError(f"malformed {what} {path}: {exc}") from exc


_CODE_KINDS = {"insdel": InsdelCode, "systematic-insdel": SystematicInsdelCode,
               "affine": AffineCode}


def _parse_code(spec: dict):
    """A spec without "kind" is a linear code, as LinearCode.to_json
    writes it; any other kind must be one of _CODE_KINDS."""
    if "kind" not in spec:
        return LinearCode.from_json(spec)
    if spec["kind"] not in _CODE_KINDS:
        raise InvalidSpecError(f"unknown code kind {spec['kind']!r}")
    return _CODE_KINDS[spec["kind"]].from_json(spec)


def _load_code(path: str):
    return _load_spec(path, _parse_code, "code spec")


def _cmd_field_validate(args) -> int:
    field = _field_from_args(args)
    text = json.dumps(field.to_json(), sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _cmd_code_build(args) -> int:
    if args.kind in ("rs", "random", "insdel-explicit", "insdel-mc"):
        field = _field_from_args(args)
        if args.n is None or args.m is None:
            raise UsageError(f"--n and --m are required for kind {args.kind}")
    if args.kind == "rs":
        code = rs_build(field, args.n, args.m)
    elif args.kind == "random":
        code = random_linear_code(field, args.m, args.n, args.seed)
    elif args.kind == "insdel-explicit":
        inner = rs_build(field, args.n, args.m)
        code = build_explicit(inner, f=args.f, e=args.e, c=args.c,
                              lambda_fraction=args.lambda_fraction,
                              max_seeds=args.max_seeds)
    elif args.kind == "insdel-mc":
        inner = rs_build(field, args.n, args.m)
        code = build_monte_carlo(inner, args.seed, f=args.f, e=args.e,
                                 a=args.a)
    elif args.kind == "affine":
        code = affine_params(args.epsilon, args.n0, seed=args.seed,
                             kappa=args.kappa)
    elif args.kind == "systematic":
        base = _load_code(args.base)
        if not isinstance(base, InsdelCode):
            raise UsageError("--base must point to an insdel code spec")
        code = SystematicInsdelCode(base)
    else:
        raise UsageError(f"unknown code kind {args.kind!r}")
    write_json(args.out, code.to_json())
    return 0


def _code_from_args(args):
    """The code of --code.  The affine commands take only affine specs,
    and without --code build the code from --epsilon, --n0 and --seed."""
    affine = args.group == "affine"
    if affine and not args.code:
        if args.epsilon is None or args.n0 is None:
            raise UsageError("need --code, or --epsilon and --n0")
        return affine_params(args.epsilon, args.n0, seed=args.seed)
    code = _load_code(args.code)
    if affine and not isinstance(code, AffineCode):
        raise UsageError(f"{args.code} is not an affine code spec")
    return code


def _cmd_insdel_encode(args) -> int:
    code = _code_from_args(args)
    msg = read_values(args.infile, args.format)
    word = code.encode(msg)
    write_values(args.out, list(word), args.format)
    return 0


def _cmd_insdel_decode(args) -> int:
    code = _code_from_args(args)
    word = read_values(args.infile, args.format)
    msg = code.decode(word)
    write_values(args.out, list(msg), args.format)
    return 0


def _cmd_insdel_corrupt(args) -> int:
    if args.code:
        q = _load_code(args.code).q
    elif args.q:
        q = args.q
    else:
        raise UsageError("--code or --q is required to pick insertion symbols")
    word = read_values(args.infile, args.format)
    out = insdel_channel(word, args.ins, getattr(args, "del"), args.seed, q)
    write_values(args.out, list(out), args.format)
    return 0


def _cmd_affine_params(args) -> int:
    eps = [float(v) for v in args.epsilons.split(",")]
    rows = affine_params_sweep(eps, args.n0, seed=args.seed)
    lines = ["epsilon,n0,l0,t,m0,l_s,n,m,rate,kappa"]
    for r in rows:
        lines.append(f"{r.epsilon},{r.n0},{r.l0},{r.t},{r.m0},{r.l_s},"
                     f"{r.n},{r.m},{r.rate!r},{r.kappa}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_separator_build(args) -> int:
    if args.sample:
        if args.a is None or args.seed is None:
            raise UsageError("--sample needs --a and --seed")
        seq = sample_separator(args.n, args.a, args.seed)
        meta = {"mode": "sample", "seed": args.seed}
    else:
        if getattr(args, "lambda") is None:
            raise UsageError("--lambda is required for the explicit build")
        seq, seed_used, a = construct_explicit(
            args.n, getattr(args, "lambda"), e=args.e, c=args.c,
            max_seeds=args.max_seeds)
        meta = {"mode": "explicit", "seed": seed_used, "a": a}
    payload = seq.to_json()
    payload.update(meta)
    write_json(args.out, payload)
    return 0


def _cmd_separator_verify(args) -> int:
    seq = _load_spec(args.infile, SeparatorSequence.from_json,
                     "separator spec")
    lam = max_undesired(seq, budget_n=args.budget)
    target = getattr(args, "lambda")
    check = local_check(seq, target, c=args.c) \
        if target is not None and 1 <= target < seq.n else None
    print(json.dumps({"n": seq.n, "a": seq.a, "max_undesired": lam,
                      "local_check": None if check is None else check.passed},
                     sort_keys=True))
    if target is not None and lam > target:
        print(f"max_undesired {lam} exceeds lambda {target}", file=sys.stderr)
        return 1
    return 0


def _cmd_sync_build(args) -> int:
    s = construct_sync_string(args.n0, args.eta, args.seed)
    write_json(args.out, s.to_json())
    return 0


def _cmd_sync_verify(args) -> int:
    s = _load_spec(args.infile, SyncString.from_json, "sync spec")
    ok, triple = verify_eta(s, budget_n=args.budget)
    print(json.dumps({"n": s.n, "eta": s.eta, "ok": ok,
                      "violation": triple}, sort_keys=True))
    return 0 if ok else 1


def _cmd_bounds(args) -> int:
    if args.sweep:
        deltas = [i / args.sweep for i in range(args.sweep)]
    else:
        if args.delta is None:
            raise UsageError("--delta (or --sweep) is required")
        deltas = [args.delta]
    rows = bounds_mod.sweep(deltas, args.q)
    lines = ["delta,existence,half_singleton,half_plotkin"]
    lines.extend(f"{d!r},{e!r},{hs!r},{hp!r}" for (d, e, hs, hp) in rows)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _load_insdel_code(path: str) -> InsdelCode:
    code = _load_code(path)
    if not isinstance(code, InsdelCode):
        raise UsageError(f"code_file {path} must hold an insdel code spec "
                         f"(kind 'insdel'), not a {type(code).__name__}")
    return code


def _parse_experiment(cfg: dict):
    """Experiment config -> the harness call it asks for, not yet run."""
    kind = cfg.get("kind")
    base_seed = int(cfg.get("base_seed", 0))
    if kind == "random_code_distance":
        return partial(
            harness.random_code_distance_experiment,
            field_from_json(cfg["field"]), int(cfg["n"]), int(cfg["m"]),
            float(cfg["delta"]), int(cfg["trials"]), base_seed)
    if kind == "systematic_distance":
        return partial(
            harness.systematic_distance_experiment,
            field_from_json(cfg["field"]), int(cfg["n"]), int(cfg["m"]),
            int(cfg["trials"]), base_seed)
    if kind == "decode_success_sweep":
        return partial(
            harness.decode_success_sweep, _load_insdel_code(cfg["code_file"]),
            int(cfg["k_max"]), int(cfg["trials_per_k"]), base_seed)
    if kind == "systematic_insdel_wrapper":
        return partial(
            harness.systematic_insdel_wrapper_experiment,
            _load_insdel_code(cfg["code_file"]), int(cfg["trials"]), base_seed,
            kappa=cfg.get("kappa"))
    raise UsageError(f"unknown experiment kind {kind!r}")


def _cmd_experiment_run(args) -> int:
    experiment = _load_spec(args.config, _parse_experiment,
                            "experiment config")
    result = experiment()
    result.write_csv(args.out)
    if not result.ok:
        failed = [k for k, v in result.assertions.items() if not v]
        print(f"assertions failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="insdelcode",
        description="linear and affine codes for insertion/deletion channels")
    sub = top.add_subparsers(dest="group", required=True)

    p_field = sub.add_parser("field", help="field spec utilities")
    field_sub = p_field.add_subparsers(dest="cmd", required=True)
    pv = field_sub.add_parser("validate", help="validate and print a field spec")
    _add_field_flags(pv)
    pv.add_argument("--out")
    pv.set_defaults(func=_cmd_field_validate)

    p_code = sub.add_parser("code", help="build and persist code instances")
    code_sub = p_code.add_subparsers(dest="cmd", required=True)
    pb = code_sub.add_parser("build")
    pb.add_argument("--kind", required=True,
                    choices=["rs", "random", "insdel-explicit", "insdel-mc",
                             "affine", "systematic"])
    _add_field_flags(pb)
    pb.add_argument("--n", type=int)
    pb.add_argument("--m", type=int)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--f", type=float, default=0.01,
                    help="insdel radius fraction of the inner radius")
    pb.add_argument("--e", type=float, default=3.0)
    pb.add_argument("--c", type=float, default=4.0)
    pb.add_argument("--lambda-fraction", type=float, default=0.2)
    pb.add_argument("--max-seeds", type=int, default=4096)
    pb.add_argument("--a", type=int)
    pb.add_argument("--epsilon", type=float)
    pb.add_argument("--n0", type=int)
    pb.add_argument("--kappa", type=int)
    pb.add_argument("--base", help="existing insdel spec to wrap (systematic)")
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=_cmd_code_build)

    p_insdel = sub.add_parser("insdel", help="encode/decode/corrupt words")
    insdel_sub = p_insdel.add_subparsers(dest="cmd", required=True)
    p_affine = sub.add_parser(
        "affine", help="the binary affine code (insdel commands on bits)")
    affine_sub = p_affine.add_subparsers(dest="cmd", required=True)
    for group, fmt in ((insdel_sub, "json"), (affine_sub, "raw")):
        for name, fn in (("encode", _cmd_insdel_encode),
                         ("decode", _cmd_insdel_decode)):
            pc = group.add_parser(name)
            pc.add_argument("--code", required=group is insdel_sub)
            if group is affine_sub:
                pc.add_argument("--epsilon", type=float)
                pc.add_argument("--n0", type=int)
                pc.add_argument("--seed", type=int, default=0)
            _add_word_flags(pc, fmt)
            pc.set_defaults(func=fn)
    pc = insdel_sub.add_parser("corrupt")
    pc.add_argument("--code")
    pc.add_argument("--q", type=int)
    _add_channel_flags(pc, "json")
    pc.set_defaults(func=_cmd_insdel_corrupt)
    pa = affine_sub.add_parser("corrupt")
    _add_channel_flags(pa, "raw")
    pa.set_defaults(func=_cmd_insdel_corrupt, code=None, q=2)
    pa = affine_sub.add_parser("params")
    pa.add_argument("--epsilons", required=True,
                    help="comma-separated epsilon grid")
    pa.add_argument("--n0", type=int, required=True)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out")
    pa.set_defaults(func=_cmd_affine_params)

    p_sep = sub.add_parser("separator", help="synchronization separator sequences")
    sep_sub = p_sep.add_subparsers(dest="cmd", required=True)
    ps = sep_sub.add_parser("build")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--lambda", type=int)
    ps.add_argument("--e", type=float, default=3.0)
    ps.add_argument("--c", type=float, default=4.0)
    ps.add_argument("--max-seeds", type=int, default=4096)
    ps.add_argument("--sample", action="store_true",
                    help="uniform random runs instead of the explicit search")
    ps.add_argument("--a", type=int)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=_cmd_separator_build)
    ps = sep_sub.add_parser("verify")
    ps.add_argument("--in", dest="infile", required=True)
    ps.add_argument("--lambda", type=int)
    ps.add_argument("--c", type=float, default=4.0)
    ps.add_argument("--budget", type=int, default=200)
    ps.set_defaults(func=_cmd_separator_verify)

    p_sync = sub.add_parser("sync", help="eta-synchronization strings")
    sync_sub = p_sync.add_subparsers(dest="cmd", required=True)
    py = sync_sub.add_parser("build")
    py.add_argument("--n0", type=int, required=True)
    py.add_argument("--eta", type=float, default=0.01)
    py.add_argument("--seed", type=int, default=0)
    py.add_argument("--out", required=True)
    py.set_defaults(func=_cmd_sync_build)
    py = sync_sub.add_parser("verify")
    py.add_argument("--in", dest="infile", required=True)
    py.add_argument("--budget", type=int, default=60)
    py.set_defaults(func=_cmd_sync_verify)

    p_bounds = sub.add_parser("bounds", help="rate bound calculators")
    p_bounds.add_argument("--delta", type=float)
    p_bounds.add_argument("--q", type=int, required=True)
    p_bounds.add_argument("--sweep", type=int,
                          help="emit N grid points delta = i/N")
    p_bounds.add_argument("--out")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_exp = sub.add_parser("experiment", help="Monte Carlo experiments")
    exp_sub = p_exp.add_subparsers(dest="cmd", required=True)
    pe = exp_sub.add_parser("run")
    pe.add_argument("--config", required=True, help="experiment config JSON")
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=_cmd_experiment_run)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DecodeFailure, ConstructionFailure, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, InsdelError, OSError, ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
