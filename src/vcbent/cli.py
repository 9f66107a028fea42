"""Command-line surface.

Exit codes: 0 success/affirmative, 1 negative verdict, 2 usage or parse
error.  All output is deterministic UTF-8; --pretty swaps the machine 'x'
for ξ in human-facing spectra.  Each command imports the modules it runs,
so a cold process loads no others.
"""

from __future__ import annotations

import argparse
import json
import sys

from .mvfunction import MvFunction, _length_to_n, add_constant, sign_of, try_from_sign
from .vctransform import (
    Spectrum,
    format_spectrum_lines,
    forward_fast,
    inverse,
    parse_spectrum_lines,
)


class UsageError(Exception):
    pass


def _pretty(text: str, enabled: bool) -> str:
    return text.replace("x", "ξ") if enabled else text


def _parse_function(p: int, digits: str) -> MvFunction:
    try:
        return MvFunction.from_digits(p, _length_to_n(p, len(digits)), digits)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _print_spectrum(s: Spectrum, out, pretty: bool) -> None:
    for line in format_spectrum_lines(s):
        print(_pretty(line, pretty), file=out)


# -- commands -------------------------------------------------------------------


def cmd_spectrum(args, out) -> int:
    from . import bentlab

    f = MvFunction.from_digits(args.p, args.n, args.values)
    s = forward_fast(sign_of(f))
    _print_spectrum(s, out, args.pretty)
    try:
        exps = bentlab.strict_exponents(s)
        print("strict-exponents: " + "".join(str(e) for e in exps), file=out)
    except bentlab.NotStrict:
        pass
    return 0


def cmd_check(args, out) -> int:
    from . import bentlab

    f = MvFunction.from_digits(args.p, args.n, args.values)
    verdict = bentlab.is_bent(f)
    print(verdict.to_json(), file=out)
    return 0 if verdict.is_bent else 1


def _render_matrix(w, out) -> None:
    from .genperm import as_dense

    if w.size > 9:
        return
    dense = as_dense(w)
    print("W:", file=out)
    if dense.denom != 1:
        print(f"scale: 1/{dense.denom}", file=out)
    for row in dense.rows:
        print(" ".join(str(c) for c in row), file=out)


def cmd_permute(args, out) -> int:
    from . import bentlab, permexpr
    from .genperm import apply, conjugate_by_c

    try:
        expr = permexpr.parse(args.expr)
    except permexpr.ExprParseError as exc:
        raise UsageError(str(exc)) from exc
    perm = permexpr.evaluate(expr)
    if args.function is not None:
        f = _parse_function(args.p, args.function)
        spectrum = bentlab.circular_spectrum(f)
    else:
        with open(args.spectrum) as fh:
            spectrum = parse_spectrum_lines(fh.readlines())
    if perm.size != len(spectrum):
        raise UsageError(f"permutation size {perm.size} does not match spectrum length")
    # W first, so that a refused conjugation leaves stdout empty
    w = conjugate_by_c(perm) if args.via == "dense" else permexpr.conjugate_expr(expr)
    permuted = apply(perm, spectrum)
    print("spectrum:", file=out)
    _print_spectrum(permuted, out, args.pretty)
    try:
        g = bentlab.spectrum_is_bent(permuted)
        print(f"g: {g.digit_string()}", file=out)
    except bentlab.NotBentSpectrum as exc:
        idx, val = exc.witness
        print(f"not-bent: {exc.stage} (index {idx}: {val})", file=out)
    _render_matrix(w, out)
    return 0


def _write_lines(lines, args, out) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line, file=out)


def cmd_enumerate(args, out) -> int:
    from . import generator

    if args.all:
        lines = sorted(line for c in range(1, 10) for line in _class_lines(c))
        _write_lines(lines, args, out)
        return 0
    if args.klass is None:
        raise UsageError("need --class K or --all")
    record = generator.generate_class(generator.reference_seed(args.klass), args.klass)
    payload = record.to_json_dict()
    if args.rotations:
        payload["rotations"] = [
            f.digit_string() for f in generator.expand_rotations(record)
        ]
    _write_lines([json.dumps(payload, indent=2)], args, out)
    return 0


def _class_lines(class_id: int) -> list[str]:
    from . import generator

    record = generator.generate_class(generator.reference_seed(class_id), class_id)
    lines = []
    for shift in (0, 1, 2):
        for row in record.rows:
            lines.append(f"{add_constant(row.g, shift).digit_string()}\t{class_id}\t{shift}")
    return lines


def cmd_verify_appendix(args, out) -> int:
    from . import appendix

    rows = appendix.load_appendix_rows(args.fixture)
    try:
        checks = appendix.verify_appendix(rows)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    passed = 0
    for check in checks:
        row = check.row
        if check.passed:
            print(f"class {row.class_id} row {row.row:>2}: PASS", file=out)
            passed += 1
        else:
            print(
                f"class {row.class_id} row {row.row:>2}: FAIL [{','.join(check.failures())}]",
                file=out,
            )
    print(f"{passed}/{len(checks)} rows pass", file=out)
    return 0 if passed == len(checks) else 1


def cmd_maiorana(args, out) -> int:
    from . import generator
    from .genperm import gamma

    if args.m != 1:
        raise UsageError("only --m 1 is enumerable")
    if args.enumerate:
        functions = sorted(f.digit_string() for f in generator.maiorana_enumerate(args.m))
        for digits in functions:
            print(digits, file=out)
        print(f"count: {len(functions)}", file=out)
        return 0
    if args.q is None or args.v is None:
        raise UsageError("need --q NAME --v DIGITS or --enumerate")
    try:
        q = gamma(args.q)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    v = MvFunction.from_digits(3, args.m, args.v)
    f = generator.maiorana(generator.MaioranaSpec(args.m, q, v))
    print(f.digit_string(), file=out)
    return 0


def cmd_oracle(args, out) -> int:
    from . import oracle

    functions = sorted(f.digit_string() for f in oracle.all_bent(3, 2))
    if args.emit == "tsv":
        lines = functions
    else:
        lines = [json.dumps({"p": 3, "n": 2, "count": len(functions), "functions": functions})]
    _write_lines(lines, args, out)
    return 0


# -- demo walkthroughs ------------------------------------------------------------


def _exps_string(s: Spectrum) -> str:
    from . import bentlab

    return "".join(str(e) for e in bentlab.strict_exponents(s))


def _demo_case1(out) -> None:
    from . import bentlab
    from .genperm import apply, diag_from_flat_spectrum, gamma, kron as gkron

    f = MvFunction.from_digits(3, 2, "000012021")
    s = bentlab.circular_spectrum(f)
    print(f"f = {f.digit_string()}  (the product function x1*x2)", file=out)
    print(f"spectrum exponents of f: {_exps_string(s)}", file=out)
    p = diag_from_flat_spectrum(s)
    conj_spectrum = apply(p, s)
    if conj_spectrum != Spectrum(3, 2, (e.conj() for e in s.entries)):
        raise AssertionError("diag(S_f)/3 did not conjugate S_f")
    print(f"diag(S_f)/3 applied to S_f gives the conjugate spectrum: "
          f"exponents {_exps_string(conj_spectrum)}", file=out)
    g = bentlab.spectrum_is_bent(conj_spectrum)
    print(f"recovered g = {g.digit_string()}", file=out)
    p12_2 = gkron(gamma("P12"), gamma("P12"))
    alt = apply(p12_2, [e.conj() for e in sign_of(f).entries])
    if try_from_sign(alt) != g:
        raise AssertionError("P12(2) applied to conj(F) gave another function")
    print("cross-check: P12(2) applied to conj(F) recovers the same sign vector", file=out)


def _demo_case2(out) -> None:
    from . import bentlab
    from .genperm import apply, conjugate_table, gamma, kron as gkron

    f = MvFunction.from_digits(3, 2, "000012021")
    s_f = bentlab.circular_spectrum(f)
    n2 = gkron(gamma("N"), gamma("N"))
    s_g = apply(n2, s_f)
    w = gkron(conjugate_table("N"), conjugate_table("N"))
    bigf = sign_of(f)
    wf = apply(w, list(bigf.entries))
    g = try_from_sign(wf)
    if g != bentlab.spectrum_is_bent(s_g):
        raise AssertionError("W·F and N(2)·S_f give different functions")
    print("f F S_f S_g W·F g", file=out)
    for i in range(9):
        print(
            f"{f.values[i]} {bigf[i]} {s_f[i]} {s_g[i]} {wf[i]} {g.values[i]}",
            file=out,
        )
    print(f"g = {g.digit_string()}", file=out)


def _demo_case3(out) -> None:
    from . import bentlab, permexpr
    from .genperm import apply, conjugate_by_c

    f = MvFunction.from_digits(3, 2, "000012021")
    s_f = bentlab.circular_spectrum(f)
    expr_diag = permexpr.parse("diag(w^2,1,w,1,1,1,w,1,w^2)")
    p_diag = permexpr.evaluate(expr_diag)
    s_g = apply(p_diag, s_f)
    g = bentlab.spectrum_is_bent(s_g)
    print(f"diagonal route: exponents(P·S_f) = {_exps_string(s_g)}", file=out)
    w_dense = conjugate_by_c(p_diag)
    print("dense W(2) (roots over a common 1/3 factor):", file=out)
    _render_matrix(w_dense, out)
    bigf = list(sign_of(f).entries)
    g_dense = try_from_sign(apply(w_dense, bigf))
    expr_kron = permexpr.parse("kron(w^1*P12,compose(P01,compose(N,Z)))")
    p_kron = permexpr.evaluate(expr_kron)
    if apply(p_kron, s_f) != s_g:
        raise AssertionError("the Kronecker and diagonal permutations differ on S_f")
    w_kron = permexpr.conjugate_expr(expr_kron)
    print("Kronecker route W''(2):", file=out)
    _render_matrix(w_kron, out)
    g_kron = try_from_sign(apply(w_kron, bigf))
    if not g_dense == g_kron == g:
        raise AssertionError("the dense and Kronecker routes give different functions")
    print(f"both routes give G, hence g = {g.digit_string()}", file=out)


def _demo_case4(out) -> None:
    from . import bentlab
    from .genperm import apply, diag_from_flat_spectrum

    f1 = MvFunction.from_digits(3, 2, "000012021")
    f2 = MvFunction.from_digits(3, 2, "021201111")
    s1 = bentlab.circular_spectrum(f1)
    s2 = bentlab.circular_spectrum(f2)
    p = diag_from_flat_spectrum(s1)
    s_g = apply(p, s2)
    print("f1 f2 S_f1 S_f2 diag(P) S_g", file=out)
    for i in range(9):
        print(
            f"{f1.values[i]} {f2.values[i]} {s1[i]} {s2[i]} "
            f"{p.scalars[i].to_cyc()} {s_g[i]}",
            file=out,
        )
    from .cyclotomic import _unit_roots
    from .vctransform import is_flat

    print(f"S_g is flat: {is_flat(s_g)}", file=out)
    recovered = inverse(s_g)
    print("inverse transform gives: [" + " ".join(str(e) for e in recovered) + "]", file=out)
    array = recovered.array
    sign, _, ok = _unit_roots(array, 3, 1)
    # the first nonzero entry that is not +ξ^k
    i = int((array.any(axis=-1) & ~(ok & (sign == 1))).argmax())
    print(
        f"not-a-sign at index {i}: {recovered[i]} "
        "(no power of x, so this flat spectrum belongs to no function)",
        file=out,
    )


def _demo_theorem4(p: int, out) -> None:
    from . import bentlab

    f = MvFunction(p, 1, range(p))
    print(f"p = {p}, f = {f.digit_string()}", file=out)
    try:
        g = bentlab.negate_classify(f)
        print(f"negation shifts values by {p // 2}: g = {g.digit_string()}", file=out)
        print("sign(g) equals -F exactly", file=out)
    except bentlab.NotAFunction as exc:
        print(f"no function has sign -F: witness {exc.witness}", file=out)


def cmd_demo(args, out) -> int:
    if args.case == "1":
        _demo_case1(out)
    elif args.case == "2":
        _demo_case2(out)
    elif args.case == "3":
        _demo_case3(out)
    elif args.case == "4":
        _demo_case4(out)
    else:
        _demo_theorem4(args.p, out)
    return 0


# -- wiring -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcbent",
        description="Exact circular-spectrum toolkit for p-valued bent functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="circular spectrum of a function")
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--values", required=True)
    sp.add_argument("--fast", action="store_true", help="accepted; the staged engine always runs")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=cmd_spectrum)

    ck = sub.add_parser("check", help="bent verdict as JSON")
    ck.add_argument("--p", type=int, default=3)
    ck.add_argument("--n", type=int, required=True)
    ck.add_argument("--values", required=True)
    ck.set_defaults(func=cmd_check)

    pm = sub.add_parser("permute", help="apply a spectral permutation expression")
    pm.add_argument("--expr", required=True)
    pm.add_argument("--p", type=int, default=3)
    src = pm.add_mutually_exclusive_group(required=True)
    src.add_argument("--spectrum", help="spectrum file")
    src.add_argument("--function", help="function digits; spectrum computed from it")
    pm.add_argument("--via", choices=("dense", "table"), default="dense")
    pm.add_argument("--pretty", action="store_true")
    pm.set_defaults(func=cmd_permute)

    en = sub.add_parser("enumerate", help="class records or the full 486 set")
    en.add_argument("--class", dest="klass", type=int, choices=range(1, 10))
    en.add_argument("--all", action="store_true")
    en.add_argument("--rotations", action="store_true")
    en.add_argument("--out")
    en.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    en.set_defaults(func=cmd_enumerate)

    va = sub.add_parser("verify-appendix", help="replay the shipped class fixture")
    va.add_argument("fixture", nargs="?", default=None)
    va.set_defaults(func=cmd_verify_appendix)

    ma = sub.add_parser("maiorana", help="Maiorana construction and enumeration")
    ma.add_argument("--m", type=int, default=1)
    ma.add_argument("--q")
    ma.add_argument("--v")
    ma.add_argument("--enumerate", action="store_true")
    ma.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    ma.set_defaults(func=cmd_maiorana)

    orc = sub.add_parser("oracle", help="exhaustive scan of all two-place functions")
    orc.add_argument("--emit", choices=("tsv", "json"), default="tsv")
    orc.add_argument("--out")
    orc.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    orc.set_defaults(func=cmd_oracle)

    dm = sub.add_parser("demo", help="replay a worked case")
    dm.add_argument("--case", choices=("1", "2", "3", "4", "theorem4"), required=True)
    dm.add_argument("--p", type=int, default=3, choices=(3, 4, 5, 6))
    dm.set_defaults(func=cmd_demo)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args, out)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
