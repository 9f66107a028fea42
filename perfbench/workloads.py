"""The four workloads, their ops and the checks on every output.

Each op is one timed call sequence into vcbent plus a check that runs
outside the timed region.  Inputs come from the seed alone; the checks
compare against counts known from the literature, against the
construction of the input, against a direct sum computed here, or against
a second route through the library.

The benchmark's own calls into each module are wrapped in spans named
after the module ("bentlab.is_bent", "vctransform.inverse", ...), so the
traced run can attribute time to layers without touching the package.
"""

from __future__ import annotations

import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

from vcbent import appendix, bentlab, cli, generator, genperm, oracle, permexpr, vctransform
from vcbent.cyclotomic import CycInt
from vcbent.mvfunction import MvFunction, sign_of
from vcbent.vctransform import format_spectrum_lines

from . import inputs
from .spans import Tracer


class BenchFailure(Exception):
    """An output of the program is wrong."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise BenchFailure(message)


@dataclass
class Op:
    kind: str  # ops of one kind share a code path and an input size
    run: Callable[[], object]
    check: Callable[[object], None]
    decides: int = 0  # functions the op gives a bent / non-bent verdict


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def direct_coefficient(values, p: int, n: int, w: int) -> CycInt:
    """S(w) = Σ_x ξ^(f(x) - ⟨w, x⟩), summed point by point."""
    wd = inputs.digits(w, p, n)
    counts = [0] * p
    # product() yields the digits of x = 0, 1, ... most significant first
    for xd, fx in zip(product(range(p), repeat=n), values):
        counts[(fx - inputs.dot(wd, xd)) % p] += 1
    total = CycInt.zero(p)
    for k, c in enumerate(counts):
        total = total + CycInt.root(p, k) * c
    return total


def check_parseval(s, p: int, n: int) -> None:
    total = CycInt.zero(p)
    for e in s.entries:
        total = total + e.abs_squared()
    expect(total == CycInt.from_int(p, p ** (2 * n)), f"Σ|S(w)|² = {total} at p={p}, n={n}")


class Workload:
    """A fixed list of ops built from the seed; one pass runs each op once."""

    name = ""
    LATENCY_PASSES = 2  # passes whose op latencies give op_p50_ms and op_tail_ms

    def __init__(self, seed: int, tracer: Tracer, root: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tr = tracer
        self.root = root
        self.counts: Counter = Counter()  # filled by the checks, reset per pass
        self.ops: list[Op] = self.build_ops()

    def build_ops(self) -> list[Op]:
        raise NotImplementedError

    def warm(self, run_op: Callable[[Op], object]) -> None:
        """Untimed warm-up: the first op of each kind, so lazy caches are full."""
        seen = set()
        for op in self.ops:
            if op.kind not in seen:
                seen.add(op.kind)
                run_op(op)

    def extras(self) -> dict[str, float]:
        """Layer metrics measured once per traced run, outside the passes."""
        return {}

    def layer_counts(self) -> dict[str, float]:
        """Count metrics of the last pass, from the counters its checks filled."""
        return {}

    def derived(self, metrics: dict[str, float]) -> None:
        """Ratios of layer metrics, added in place."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- scan ---------------------------------------------------------------------


class Scan(Workload):
    """Exhaustive oracle.all_bent over every (p, n) with at most 6^6 candidates."""

    name = "scan"
    LATENCY_PASSES = 6
    HITS = {(3, 2): 486, (4, 1): 32, (5, 1): 100, (6, 1): 0}

    def build_ops(self) -> list[Op]:
        # no free inputs: the seed is recorded but changes nothing
        return [self._op(p, n, hits) for (p, n), hits in self.HITS.items()]

    def _op(self, p: int, n: int, hits: int) -> Op:
        def run():
            with self.tr.span(f"oracle.scan.p{p}n{n}"):
                return oracle.all_bent(p, n)

        def check(found):
            expect(len(found) == hits, f"all_bent({p}, {n}) found {len(found)}, expected {hits}")
            expect(all(f.p == p and f.n == n for f in found), f"all_bent({p}, {n}) returned a foreign function")
            self.counts["candidates"] += p ** (p**n)
            self.counts["hits"] += len(found)

        return Op(f"all_bent p{p}n{n}", run, check, decides=p ** (p**n))

    def layer_counts(self) -> dict[str, float]:
        counts = self.counts
        return {
            "oracle.candidates": counts["candidates"],
            "oracle.hits": counts["hits"],
            "oracle.hit_ratio": counts["hits"] / counts["candidates"],
            "bentlab.bent_ratio": counts["hits"] / counts["candidates"],
        }

    def extras(self) -> dict[str, float]:
        # replay every scan candidate through the constructors the oracle uses
        for p, n in self.HITS:
            size = p**n
            candidates = [inputs.digits(code, p, size) for code in range(p**size)]
            with self.tr.span("mvfunction.construct"):
                for values in candidates:
                    sign_of(MvFunction(p, n, values))
        return {}


# -- classes ------------------------------------------------------------------


class Classes(Workload):
    """The spectral-permutation path: class generation, the appendix replay,
    and seeded permutation expressions conjugated by both routes."""

    name = "classes"
    LATENCY_PASSES = 3
    EXPRESSIONS = {2: 48, 3: 8, 4: 1}

    def build_ops(self) -> list[Op]:
        ops = []
        for n, count in self.EXPRESSIONS.items():
            for _ in range(count):
                ops.append(self._expr_op(n))
        ops.append(self._call_op("generate_all", generator.generate_all, 270))
        ops.append(self._call_op("maiorana_enumerate", generator.maiorana_enumerate, 162))
        self.survey_counts: dict[int, tuple] = {}
        for seed in generator.REFERENCE_SEEDS:
            ops.append(self._survey_op(seed.class_id))
        ops.append(self._appendix_op())
        return ops

    def _expr_op(self, n: int) -> Op:
        text = inputs.random_expr(self.rng, n)
        f = MvFunction(3, n, inputs.ternary_bent(self.rng, n))
        spectrum = bentlab.circular_spectrum(f)
        sign_f = list(sign_of(f).entries)
        tr = self.tr

        def run():
            with tr.span("permexpr.parse_render"):
                node = permexpr.parse(text)
                rendered = permexpr.render(node)
            with tr.span("permexpr.evaluate"):
                perm = permexpr.evaluate(node)
            with tr.span("genperm.apply"):
                permuted = genperm.apply(perm, spectrum)
            with tr.span("bentlab.spectrum_is_bent"):
                try:
                    g = bentlab.spectrum_is_bent(permuted)
                except bentlab.NotBentSpectrum as exc:
                    g = exc
            with tr.span(f"genperm.conjugate_dense.n{n}"):
                w_dense = genperm.conjugate_by_c(perm)
            with tr.span("permexpr.conjugate_table"):
                w_table = permexpr.conjugate_expr(node)
            return rendered, g, w_dense, w_table

        def check(result):
            rendered, g, w_dense, w_table = result
            expect(rendered == text, f"render(parse({text!r})) = {rendered!r}")
            expect(
                genperm.as_dense(w_dense) == genperm.as_dense(w_table),
                f"dense and table conjugations differ for {text}",
            )
            if isinstance(g, MvFunction):
                got = genperm.apply(w_dense, sign_f)
                expect(list(got) == list(sign_of(g).entries), f"W·F != sign(g) for {text}")
                self.counts["bent"] += 1
            else:
                # a generalized permutation keeps a flat spectrum flat
                expect(g.stage != "not-flat", f"{text} made a flat spectrum non-flat")
            self.counts["verdicts"] += 1

        return Op(f"expr n{n}", run, check, decides=1)

    def _call_op(self, name: str, fn, expected: int) -> Op:
        def run():
            with self.tr.span(f"generator.{name}"):
                return fn()

        def check(found):
            expect(len(found) == expected, f"{name}() gave {len(found)}, expected {expected}")

        return Op(name, run, check)

    def _survey_op(self, class_id: int) -> Op:
        seed = generator.reference_seed(class_id)

        def run():
            with self.tr.span("generator.blockdiag_survey"):
                return generator.blockdiag_survey(seed)

        def check(report):
            counts = (report.total, report.bent, report.flat_not_bent, report.distinct_bent)
            expect(report.total == 216, f"class {class_id} survey covered {report.total} triples")
            expect(report.bent + report.flat_not_bent == report.total, f"class {class_id} survey lost triples")
            expect(report.distinct_bent <= report.bent, f"class {class_id} survey distinct > bent")
            first = self.survey_counts.setdefault(class_id, counts)
            expect(first == counts, f"class {class_id} survey counts changed: {first} -> {counts}")
            self.counts["survey_total"] += report.total
            self.counts["survey_bent"] += report.bent

        return Op("blockdiag_survey", run, check, decides=216)

    def _appendix_op(self) -> Op:
        def run():
            with self.tr.span("appendix.verify"):
                return appendix.verify_appendix()

        def check(rows):
            passed = sum(1 for r in rows if r.passed)
            expect(len(rows) == 162 and passed == 162, f"appendix: {passed}/{len(rows)} rows pass")
            self.counts["rows_passed"] += passed

        return Op("verify_appendix", run, check)

    def layer_counts(self) -> dict[str, float]:
        counts = self.counts
        return {
            "bentlab.bent_ratio": counts["bent"] / counts["verdicts"],
            "generator.survey_bent_ratio": counts["survey_bent"] / counts["survey_total"],
            "appendix.rows_passed": counts["rows_passed"],
        }

    def extras(self) -> dict[str, float]:
        catalog = len(generator.kron_perm_catalog())
        rows = 0
        for seed in generator.REFERENCE_SEEDS:
            record = generator.generate_class(generator.reference_seed(seed.class_id), seed.class_id)
            rows += len(record.rows)
        return {"generator.distinct_ratio": rows / (catalog * len(generator.REFERENCE_SEEDS))}


# -- large --------------------------------------------------------------------


class Large(Workload):
    """Single large functions: verdicts on bent and random inputs, and
    transform round trips at the largest sizes under the 3^10 guard."""

    name = "large"
    VERDICT_SIZES = ((3, 6), (4, 4), (5, 4), (6, 4))
    ROUND_TRIP_SIZES = ((3, 10), (4, 7), (5, 6), (6, 6))
    PER_SIZE = 6  # bent and random inputs each, per verdict size

    def build_ops(self) -> list[Op]:
        self.first_bent: dict[tuple[int, int], MvFunction] = {}
        self.round_trip_inputs: list[MvFunction] = []
        ops = []
        for p, n in self.VERDICT_SIZES:
            for _ in range(self.PER_SIZE):
                ops.append(self._verdict_op(p, n, inputs.MaioranaBent(self.rng, p, n // 2)))
            for _ in range(self.PER_SIZE):
                ops.append(self._verdict_op(p, n, None))
        for p, n in self.ROUND_TRIP_SIZES:
            ops.append(self._round_trip_op(p, n))
        return ops

    def _verdict_op(self, p: int, n: int, bent: inputs.MaioranaBent | None) -> Op:
        values = bent.values() if bent else inputs.random_values(self.rng, p, n)
        dual = bent.dual_exponents() if bent else None
        probes = [self.rng.randrange(p**n) for _ in range(3)]
        f = MvFunction(p, n, values)
        if bent:
            self.first_bent.setdefault((p, n), f)
        tr = self.tr

        def run():
            with tr.span("mvfunction.construct"):
                sign = sign_of(f)
            with tr.span("vctransform.forward_fast"):
                s = vctransform.forward_fast(sign)
            with tr.span("bentlab.is_bent"):
                verdict = bentlab.is_bent(f)
            with tr.span("bentlab.circular_spectrum"):
                s2 = bentlab.circular_spectrum(f)
            with tr.span("bentlab.spectrum_is_bent"):
                try:
                    g = bentlab.spectrum_is_bent(s)
                except bentlab.NotBentSpectrum as exc:
                    g = exc
            with tr.span("bentlab.strict_exponents"):
                try:
                    t = bentlab.strict_exponents(s)
                except bentlab.NotStrict:
                    t = None
            return s, verdict, s2, g, t

        def check(result):
            s, verdict, s2, g, t = result
            where = f"p={p}, n={n}"
            expect(s2 == s, f"circular_spectrum != forward_fast at {where}")
            check_parseval(s, p, n)
            for w in probes:
                expect(s.entries[w] == direct_coefficient(values, p, n, w), f"S({w}) differs from the direct sum at {where}")
            flat = vctransform.is_flat(s)
            expect(verdict.is_bent == flat, f"is_bent says {verdict.is_bent}, is_flat says {flat} at {where}")
            if bent:
                expect(verdict.is_bent and verdict.is_strict_bent, f"Maiorana input judged {verdict} at {where}")
                expect(g == f, f"spectrum_is_bent did not recover f at {where}")
                expect(t == dual, f"strict exponents differ from the construction at {where}")
            elif flat:
                expect(g == f, f"spectrum_is_bent did not recover a flat random f at {where}")
            else:
                expect(isinstance(g, bentlab.NotBentSpectrum) and g.stage == "not-flat", f"non-flat spectrum accepted at {where}")
                expect(t is None, f"strict exponents for a non-flat spectrum at {where}")
            self.counts["verdicts"] += 1
            self.counts["bent"] += verdict.is_bent
            self.counts["points"] += p**n  # through forward_fast

        kind = "bent" if bent else "random"
        return Op(f"verdict-{kind} p{p}n{n}", run, check, decides=1)

    def _round_trip_op(self, p: int, n: int) -> Op:
        values = inputs.random_values(self.rng, p, n)
        probes = [self.rng.randrange(p**n) for _ in range(2)]
        f = MvFunction(p, n, values)
        self.round_trip_inputs.append(f)
        tr = self.tr

        def run():
            with tr.span("mvfunction.construct"):
                sign = sign_of(f)
            with tr.span("vctransform.forward_fast"):
                s = vctransform.forward_fast(sign)
            with tr.span("vctransform.inverse"):
                back = vctransform.inverse(s)
            return sign, s, back

        def check(result):
            sign, s, back = result
            expect(list(back) == list(sign.entries), f"inverse(forward_fast(F)) != F at p={p}, n={n}")
            check_parseval(s, p, n)
            for w in probes:
                expect(s.entries[w] == direct_coefficient(values, p, n, w), f"S({w}) differs from the direct sum at p={p}, n={n}")
            self.counts["points"] += 2 * p**n  # through forward_fast and inverse

        return Op(f"roundtrip p{p}n{n}", run, check)

    def warm(self, run_op) -> None:
        # bentlab's per-size cache is the lazy state here: one cold verdict
        # at each size fills it; the transform's own tables are a few KB
        self.cache_rss_mb = 0.0
        for (p, n), f in self.first_bent.items():
            rss = current_rss_mb()
            with self.tr.span("bentlab.is_bent_cold"):
                verdict = bentlab.is_bent(f)
            self.cache_rss_mb += current_rss_mb() - rss
            expect(verdict.is_bent, f"cold is_bent rejected a Maiorana input at p={p}, n={n}")

    def extras(self) -> dict[str, float]:
        p, n = self.ROUND_TRIP_SIZES[0]
        sign = sign_of(self.round_trip_inputs[0])
        gc.collect()
        before = sys.getallocatedblocks()
        s = vctransform.forward_fast(sign)
        gc.collect()
        kept = sys.getallocatedblocks() - before
        expect(len(s.entries) == p**n, "forward_fast returned a short spectrum")
        return {
            "cyclotomic.objects_per_point": kept / p**n,
            "bentlab.cache_rss_mb": self.cache_rss_mb,
        }

    def derived(self, metrics: dict[str, float]) -> None:
        busy = metrics["vctransform.forward_fast_s"] + metrics["vctransform.inverse_s"]
        metrics["vctransform.points_per_s"] = metrics["vctransform.points"] / busy

    def layer_counts(self) -> dict[str, float]:
        counts = self.counts
        return {
            "bentlab.bent_ratio": counts["bent"] / counts["verdicts"],
            "vctransform.points": counts["points"],
        }


# -- cli ----------------------------------------------------------------------


class Cli(Workload):
    """Cold `python -m vcbent` processes, one after another."""

    name = "cli"
    LATENCY_PASSES = 3  # 24 samples put p50 and the tail inside one cluster of ops
    PAIRS = {"spectrum-fast": "spectrum", "permute-table": "permute-dense", "oracle-jobs2": "oracle"}

    def build_ops(self) -> list[Op]:
        f6 = MvFunction(3, 6, inputs.MaioranaBent(self.rng, 3, 3).values())
        f2 = MvFunction(3, 2, inputs.MaioranaBent(self.rng, 3, 1).values())
        expr = inputs.random_expr(self.rng, 2)
        self.f6 = f6
        self.env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        self.stdout: dict[str, bytes] = {}
        d6, d2 = f6.digit_string(), f2.digit_string()
        spectrum = _render_spectrum(f6)
        permute = _render_permute(expr, f2)
        oracle_json = _render_oracle()
        # (argv, expected stdout, functions decided)
        self.commands = {
            "check": (["check", "--n", "6", "--values", d6], bentlab.is_bent(f6).to_json() + "\n", 1),
            "spectrum": (["spectrum", "--n", "6", "--values", d6], spectrum, 0),
            "spectrum-fast": (["spectrum", "--n", "6", "--values", d6, "--fast"], spectrum, 0),
            # --expr=TEXT: an expression may start with "-"
            "permute-dense": (["permute", f"--expr={expr}", "--function", d2, "--via", "dense"], permute, 1),
            "permute-table": (["permute", f"--expr={expr}", "--function", d2, "--via", "table"], permute, 1),
            "verify-appendix": (["verify-appendix"], _render_verify_appendix(), 0),
            "oracle": (["oracle", "--emit", "json"], oracle_json, 3**9),
            "oracle-jobs2": (["oracle", "--emit", "json", "--jobs", "2"], oracle_json, 3**9),
        }
        return [self._op(name, argv, expected, decides) for name, (argv, expected, decides) in self.commands.items()]

    def _op(self, name: str, argv: list[str], expected: str, decides: int) -> Op:
        def run():
            with self.tr.span(f"cli.cold.{name}"):
                return subprocess.run(
                    [sys.executable, "-m", "vcbent", *argv],
                    cwd=self.root,
                    env=self.env,
                    capture_output=True,
                    timeout=120,
                    preexec_fn=_unpin if "--jobs" in argv else None,
                )

        def check(proc):
            expect(proc.returncode == 0, f"vcbent {name} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
            expect(proc.stdout == expected.encode(), f"vcbent {name} stdout differs from the library rendering")
            self.stdout[name] = proc.stdout
            twin = self.PAIRS.get(name)
            if twin is not None:
                expect(self.stdout.get(twin) == proc.stdout, f"vcbent {name} and {twin} stdout differ")
            self.counts["stdout_bytes"] += len(proc.stdout)

        return Op(name, run, check, decides=decides)

    def warm(self, run_op) -> None:
        # the lazy state lives in the child processes, and this process's
        # own import has already written the bytecode cache they read
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def layer_counts(self) -> dict[str, float]:
        counts = self.counts
        return {"cli.stdout_bytes": counts["stdout_bytes"]}

    def extras(self) -> dict[str, float]:
        out: dict[str, float] = {}
        probe = "import time; t = time.perf_counter(); import vcbent; print(time.perf_counter() - t)"
        runs = []
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-c", probe], cwd=self.root, env=self.env, capture_output=True, timeout=60
            )
            expect(proc.returncode == 0, f"cold import failed: {proc.stderr.decode()[-300:]}")
            runs.append(float(proc.stdout))
        out["cli.import_s"] = statistics.median(runs)
        pinned = os.sched_getaffinity(0)
        for name, (argv, expected, _) in self.commands.items():
            buf = io.StringIO()
            if "--jobs" in argv:
                _unpin()
            with self.tr.span(f"cli.inproc.{name}"):
                code = cli.main(argv, out=buf)
            os.sched_setaffinity(0, pinned)
            expect(code == 0 and buf.getvalue() == expected, f"cli.main({name}) differs from the library rendering")
        sign = sign_of(self.f6)
        with self.tr.span("vctransform.forward_dense"):
            dense = vctransform.forward(sign)
        expect(dense == vctransform.forward_fast(sign), "dense forward differs from forward_fast")
        return out

    def derived(self, metrics: dict[str, float]) -> None:
        metrics["cli.jobs2_ratio"] = metrics["cli.cold_s.oracle-jobs2"] / metrics["cli.cold_s.oracle"]


def _unpin() -> None:
    # the --jobs pool is meant to spread over every core
    os.sched_setaffinity(0, range(os.cpu_count()))


def _render_spectrum(f: MvFunction) -> str:
    s = vctransform.forward_fast(sign_of(f))
    lines = format_spectrum_lines(s)
    try:
        lines.append("strict-exponents: " + "".join(map(str, bentlab.strict_exponents(s))))
    except bentlab.NotStrict:
        pass
    return "\n".join(lines) + "\n"


def _render_permute(expr: str, f: MvFunction) -> str:
    node = permexpr.parse(expr)
    permuted = genperm.apply(permexpr.evaluate(node), bentlab.circular_spectrum(f))
    lines = ["spectrum:", *format_spectrum_lines(permuted)]
    try:
        lines.append(f"g: {bentlab.spectrum_is_bent(permuted).digit_string()}")
    except bentlab.NotBentSpectrum as exc:
        index, value = exc.witness
        lines.append(f"not-bent: {exc.stage} (index {index}: {value})")
    w = genperm.as_dense(permexpr.conjugate_expr(node))
    if w.size <= 9:
        lines.append("W:")
        if w.denom != 1:
            lines.append(f"scale: 1/{w.denom}")
        lines.extend(" ".join(str(c) for c in row) for row in w.rows)
    return "\n".join(lines) + "\n"


def _render_verify_appendix() -> str:
    checks = appendix.verify_appendix()
    lines = []
    for c in checks:
        status = "PASS" if c.passed else f"FAIL [{','.join(c.failures())}]"
        lines.append(f"class {c.row.class_id} row {c.row.row:>2}: {status}")
    passed = sum(1 for c in checks if c.passed)
    expect(passed == len(checks) == 162, f"appendix: {passed}/{len(checks)} rows pass")
    lines.append(f"{passed}/{len(checks)} rows pass")
    return "\n".join(lines) + "\n"


def _render_oracle() -> str:
    functions = sorted(f.digit_string() for f in oracle.all_bent(3, 2))
    expect(len(functions) == 486, f"all_bent(3, 2) found {len(functions)}, expected 486")
    return json.dumps({"p": 3, "n": 2, "count": len(functions), "functions": functions}) + "\n"


WORKLOADS = {w.name: w for w in (Scan, Classes, Large, Cli)}
