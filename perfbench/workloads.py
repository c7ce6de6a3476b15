"""The benchmark's four workloads.

Each workload makes its inputs from a seeded ``random.Random``, hands
them out in blocks, runs one item per timed call and judges every output
against ``reference`` outside the timed span.  A block draws one item
from each stratum of the input sizes, so every block costs about the
same and a run of whole blocks covers the same mix of sizes whatever the
seed; the seed picks the values inside each stratum and their order.

``judge`` returns "ok", "wrong: ..." (a value, exit code or stream that
differs from the reference) or "crash: ..." (an exception or traceback).
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import io
import itertools
import json
import subprocess
import sys
import threading
from math import gcd, prod

import reference as ref

OK = "ok"
GOLDEN = 0.6180339887498949


class SeriesEg:
    """e(0..g) for distinct g from tens up to 1000, in seeded order."""

    name = "series-eg"
    warmup = "import k3count; k3count.yau_zaslow_coefficients(30)"

    def prepare(self, rng, smoke: bool, workdir) -> None:
        self.rng = rng
        top, strata, width = (120, 5, 4) if smoke else (1000, 12, 40)
        self.expected = ref.yau_zaslow_reference(top)
        # geometric strata from 10 to top, each at least `width` values
        # wide so the first `width` blocks draw distinct g
        bounds = [10]
        for i in range(1, strata):
            bounds.append(max(round(10 * (top / 10) ** (i / strata)), bounds[-1] + width))
        bounds.append(top + 1)
        self.strata = list(zip(bounds, bounds[1:]))
        self.phases = [rng.random() for _ in self.strata]

    def blocks(self):
        # Block b takes the point (phase + b * golden) mod 1 of each stratum,
        # a low-discrepancy walk: any run of whole blocks spreads its g
        # evenly over every stratum, so a run's cost barely depends on the
        # seed, which only shifts the phases and the order.
        used = [set() for _ in self.strata]
        for b in itertools.count():
            block = []
            for (lo, hi), phase, taken in zip(self.strata, self.phases, used):
                if len(taken) == hi - lo:
                    taken.clear()
                g = lo + int(((phase + b * GOLDEN) % 1) * (hi - lo))
                while g in taken:
                    g = lo + (g + 1 - lo) % (hi - lo)
                taken.add(g)
                block.append(g)
            self.rng.shuffle(block)
            yield block

    def run(self, lib, g):
        return lib.yau_zaslow_coefficients(g)

    def judge(self, g, out) -> str:
        return OK if out == self.expected[: g + 1] else f"wrong: e(0..{g}) differs from the divisor-sum route"

    def properties(self, done) -> dict:
        below = 0
        highest = -1
        for g in done:
            below += g < highest
            highest = max(highest, g)
        return {"g_below_earlier_share": below / len(done), "g_repeat_share": 1 - len(set(done)) / len(done)}


class DeltaEnum:
    """What ``k3count modules`` does, in-process, on semigroups that never repeat."""

    name = "delta-enum"
    warmup = (
        "import k3count as k; s = k.semigroup_from_generators((3, 5)); "
        "[k.minimal_generators(m) for m in k.enumerate_delta_sets(s)]"
    )
    # Two-generator items hold at most ~400 modules and the others have
    # genus at most 14 (either about 0.3 s at most at the seed), so no single
    # item carries more than ~2% of a run and the draw of a seed cannot swing
    # throughput.
    MODULE_CAP = 400
    # sextiles of modules x window over 700 members of the pool, measured once
    TIER_BOUNDS = (5643, 8960, 13475, 18576, 27440)

    def prepare(self, rng, smoke: bool, workdir) -> None:
        self.rng = rng
        lo, hi = (6, 10) if smoke else (10, 28)
        self.tier_bounds = () if smoke else self.TIER_BOUNDS
        self.two_gen = [
            (p, q)
            for p in range(2, 9)
            for q in range(p + 1, 2 * hi + 2)
            if gcd(p, q) == 1 and lo <= (p - 1) * (q - 1) // 2 <= hi and ref.necklace_count(p, q) <= self.MODULE_CAP
        ]
        self.pool = semigroup_tree(lo, 10 if smoke else 14, max_multiplicity=9)
        self.fresh: list = []

    def _candidate(self):
        """The next semigroup of the shuffled pool as (generators, module
        count by the Kunz route, modules x search window); the pool is
        reshuffled, and items repeat, only once every member was drawn."""
        if not self.fresh:
            self.fresh = self.rng.sample(self.pool, len(self.pool))
        s = ref.Semigroup(self.fresh.pop())
        count = ref.kunz_delta_sets(s, count_only=True)
        return s.minimal, count, count * (s.frobenius + s.genus)

    def blocks(self):
        # Each block holds one two-generator semigroup and one >=3-generator
        # semigroup from each tier of modules x search window, a proxy whose
        # log tracked the walk's time with correlation ~0.98 on a sample.  The
        # two-generator list is sorted by module count and walked at
        # (phase + b * golden) mod 1, so any run of whole blocks samples its
        # cost range evenly.
        two = sorted(self.two_gen, key=lambda pq: ref.necklace_count(*pq))
        phase = self.rng.random()
        taken: set[int] = set()
        tiers = [[] for _ in range(len(self.tier_bounds) + 1)]
        for b in itertools.count():
            while not all(tiers):
                found = self._candidate()
                tiers[bisect.bisect(self.tier_bounds, found[2])].append(found[:2])
            if len(taken) == len(two):
                taken.clear()
            i = int(((phase + b * GOLDEN) % 1) * len(two))
            while i in taken:
                i = (i + 1) % len(two)
            taken.add(i)
            block = [(two[i], ref.necklace_count(*two[i]))] + [tier.pop(0) for tier in tiers]
            self.rng.shuffle(block)
            yield block

    def run(self, lib, item):
        s = lib.semigroup_from_generators(item[0])
        return s, [(m.gap_set, lib.minimal_generators(m)) for m in lib.enumerate_delta_sets(s)]

    def judge(self, item, out) -> str:
        gens, count = item
        s, rows = out
        expected = ref.Semigroup(gens)
        if tuple(s.gap_set) != expected.gaps:
            return f"wrong: gap set of <{gens}>"
        if len(rows) != count:
            return f"wrong: <{gens}> has {len(rows)} modules, the reference {count}"
        if len({gaps for gaps, _ in rows}) != len(rows):
            return f"wrong: <{gens}> lists a module twice"
        for gaps, mingens in rows:
            problem = ref.module_problem(expected, gaps)
            if problem:
                return f"wrong: <{gens}> module {gaps}: {problem}"
            if tuple(mingens) != ref.module_generators(expected, gaps):
                return f"wrong: <{gens}> minimal generators of {gaps}"
        return OK

    def properties(self, done) -> dict:
        gens = [item[0] for item in done]
        return {
            "semigroup_repeat_share": 1 - len(set(gens)) / len(gens),
            "three_gen_share": sum(len(g) >= 3 for g in gens) / len(gens),
        }


class NecklaceBij:
    """Single p-subsets round-tripped through the necklace bijection."""

    name = "necklace-bij"
    warmup = "import k3count as k; k.delta_to_necklace(k.necklace_to_delta((1, 2, 4), 3, 5), 3, 5)"
    PAIRS = ((2, 7), (3, 5), (3, 8), (4, 7), (5, 6), (5, 8), (3, 13), (7, 9))
    PER_PAIR = 4
    # Items take about 0.1-0.4 ms, and on a shared 2-vCPU host their speed
    # swings by about 1.5x for seconds at a time: latencies and throughput come from
    # the 5 of a run's ~500 windows with the lowest mean item time, a best-of
    # estimate as with timeit's minimum.
    fastest_windows = 5

    def prepare(self, rng, smoke: bool, workdir) -> None:
        self.rng = rng
        self.pairs = ((2, 3), (3, 5)) if smoke else self.PAIRS
        for p, q in self.pairs:
            n = p + q
            classes = {ref.least_rotation(c, n) for c in itertools.combinations(range(1, n + 1), p)}
            if len(classes) != ref.necklace_count(p, q):
                raise ArithmeticError(f"least-rotation classes of ({p},{q}) miscounted")
        self.class_of: dict = {}
        self.module_of: dict = {}

    def blocks(self):
        while True:
            block = [
                (p, q, tuple(sorted(self.rng.sample(range(1, p + q + 1), p))))
                for p, q in self.pairs
                for _ in range(self.PER_PAIR)
            ]
            self.rng.shuffle(block)
            yield block

    def run(self, lib, item):
        p, q, members = item
        module = lib.necklace_to_delta(members, p, q)
        return module.gap_set, lib.delta_to_necklace(module, p, q).members

    def judge(self, item, out) -> str:
        p, q, members = item
        gaps, back = out
        canon = ref.least_rotation(members, p + q)
        if tuple(gaps) != ref.necklace_gaps(members, p, q):
            return f"wrong: module of {members} over <{p},{q}>"
        if tuple(back) != canon:
            return f"wrong: {members} came back as {back}, least rotation {canon}"
        # the map from classes to modules must stay one-to-one
        if self.module_of.setdefault((p, q, canon), gaps) != gaps or self.class_of.setdefault((p, q, gaps), canon) != canon:
            return f"wrong: class {canon} over <{p},{q}> is not matched one-to-one with a module"
        return OK

    def properties(self, done) -> dict:
        return {"pairs": len(self.pairs), "classes_seen": len(self.module_of)}


def semigroup_tree(lo: int, hi: int, max_multiplicity: int) -> list[tuple[int, ...]]:
    """Minimal generators of every numerical semigroup with genus lo..hi,
    smallest generator at most ``max_multiplicity`` and three or more
    minimal generators.

    Walks the tree in which the children of S are S minus one of its
    minimal generators above its Frobenius number; each semigroup of
    genus g + 1 appears once, below one of genus g.  Removing a generator
    never lowers the smallest one, so the walk prunes on it.
    """

    def minimal(gaps):
        lookup = set(gaps)
        top = (gaps[-1] if gaps else -1) + max_multiplicity + 1
        members = [n for n in range(1, top + 1) if n not in lookup]
        present = set(members)
        return [x for x in members if not any(x - a in present for a in members if a < x)]

    found = []
    level = [((), [1])]  # (gap set, minimal generators), starting from N
    for genus in range(1, hi + 1):
        children = (tuple(sorted(gaps + (x,))) for gaps, gens in level for x in gens if x > max(gaps, default=-1))
        level = [(gaps, gens) for gaps in children if (gens := minimal(gaps))[0] <= max_multiplicity]
        if genus >= lo:
            found += [tuple(gens) for _, gens in level if len(gens) >= 3]
    return found


# --- cli-mix ----------------------------------------------------------------

CLI_ENTRY = "import sys; from k3count.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 120


def run_child(argv, env):
    """Run ``argv`` to its end; return its exit code, stdout and stderr.

    The waits block.  A timeout passed to ``subprocess`` makes it poll the
    child with sleeps that grow to 50 ms, which rounds a child's measured
    time up to the next poll (about 64 or 114 ms for an interpreter start);
    a timer thread kills a child that outlives CHILD_TIMEOUT_S instead.
    """
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
            timer.join()
    return proc.returncode, out, err
TRACEBACK = "Traceback (most recent call last)"


class Expect:
    """One acceptable outcome: an exit code and the stdout or error it implies."""

    def __init__(self, code, text=None, obj=None) -> None:
        self.codes = code if isinstance(code, tuple) else (code,)
        self.text = text  # zero-argument callables, built only when needed
        self.obj = obj

    def matches(self, code, out: str, err: str) -> bool:
        if code not in self.codes:
            return False
        if self.text is not None:
            return out == self.text()
        if self.obj is not None:
            try:
                return json.loads(out) == self.obj()
            except ValueError:
                return False
        return out == "" and "error:" in err


class Case:
    def __init__(self, argv, *expects, defect: bool = False) -> None:
        self.argv = [str(a) for a in argv]
        self.expects = expects
        self.defect = defect


_METHOD = {"pq": "closed-form", "sg": "enumeration", "A": "ade-table", "D": "ade-table", "E": "ade-table"}


def _verify(token, max_window):
    kind = token[0]
    if kind == "pq":
        s = ref.Semigroup(token[1:])
        window = s.frobenius + s.genus
        if max_window is not None and window > max_window:
            return {"skipped": True, "reason": f"enumeration window {window} exceeds max-window {max_window}"}
        return {"method": "enumeration", "value": ref.epsilon_of(token)}
    if kind == "sg":
        gens = token[1]
        if len(gens) == 2 and gcd(*gens) == 1:
            return {"method": "closed-form", "value": ref.necklace_count(*gens)}
        return {"skipped": True, "reason": "no independent closed form for this semigroup"}
    if kind in ("A", "D", "E"):
        return {"method": "branch-product", "value": prod(ref.epsilon_of(b) for b in ref.branches(token))}
    results = [_verify(b, max_window) for b in ref.branches(token)]
    for r in results:
        if r.get("skipped"):
            return r
    return {"method": "per-branch", "value": prod(r["value"] for r in results)}


def _epsilon_outputs(token, verify: bool, max_window=None):
    eps = ref.epsilon_of(token)
    method = _METHOD.get(token[0], "branch-product")
    check = _verify(token, max_window) if verify else None
    lines = [f"epsilon = {eps}", f"method = {method}"]
    obj = {"token": ref.render(token, canonical=True), "epsilon": eps, "method": method}
    if check is not None:
        if check.get("skipped"):
            lines.append(f"verified = skipped ({check['reason']})")
        else:
            check["agrees"] = check["value"] == eps
            lines += [f"verify-method = {check['method']}", f"verify-value = {check['value']}", "verified = true"]
        obj["verify"] = check
    return "".join(line + "\n" for line in lines), obj


def _modules_outputs(gens):
    s = ref.Semigroup(gens)
    rows = [(gaps, ref.module_generators(s, gaps)) for gaps in ref.kunz_delta_sets(s)]
    text = "".join(
        "gaps={" + ",".join(map(str, g)) + "} gens={" + ",".join(map(str, mg)) + "}\n" for g, mg in rows
    ) + f"count={len(rows)}\n"
    return text, [{"gaps": list(g), "generators": list(mg)} for g, mg in rows]


class CliMix:
    """Small ``k3count`` invocations, one subprocess at a time."""

    name = "cli-mix"
    warmup = (
        "import contextlib, io, k3count.cli as c\n"
        "with contextlib.redirect_stdout(io.StringIO()): c.main(['eg', '3'])"
    )
    # A block takes about 3 s, so each block is a window; latencies come
    # from the 7 of a run's ~15 blocks with the lowest mean item time, about
    # the blocks that ran on the faster of two vCPUs.
    fastest_windows = 7
    # Inputs the ROADMAP lists as crashing with a RecursionError traceback.
    DEEP = 600
    # Tokens for multiplicity and curve files, as (kind, ...) tuples.
    MENU = (
        ("pq", 1, 1), ("node",), ("A", 1), ("A", 2), ("A", 4), ("A", 6), ("D", 5), ("D", 7), ("E", 6),
        ("E", 7), ("E", 8), ("pq", 3, 4), ("pq", 2, 5), ("pq", 3, 7), ("pq", 4, 5), ("pq", 5, 7),
        ("pq", 4, 9), ("sg", (3, 5)), ("sg", (4, 6, 9)), ("sg", (5, 6, 9)), ("br", (("pq", 2, 3), ("A", 2))),
    )

    def prepare(self, rng, smoke: bool, workdir) -> None:
        self.rng = rng
        self.workdir = workdir
        self.eg = ref.yau_zaslow_reference(40)
        self.eps = {t: ref.epsilon_of(t) for t in self.MENU}

    # each slot returns one Case; a block holds every slot once
    def _slots(self):
        r = self.rng

        def coprime(lo, hi):
            while True:
                p, q = sorted(r.sample(range(lo, hi + 1), 2))
                if gcd(p, q) == 1:
                    return p, q

        def eg(g, as_json):
            rows = list(enumerate(self.eg[: g + 1]))
            if as_json:
                return Case(["--json", "eg", g], Expect(0, obj=lambda: [{"g": i, "e": e} for i, e in rows]))
            return Case(["eg", g], Expect(0, text=lambda: "".join(f"{i}\t{e}\n" for i, e in rows)))

        def epsilon(token, verify=True, as_json=False, max_window=None):
            text, obj = _epsilon_outputs(token, verify, max_window)
            argv = ["epsilon", ref.render(token)] + (["--verify"] if verify else []) + (["--json"] if as_json else [])
            if max_window is not None:
                argv += ["--max-window", max_window]
            return Case(argv, Expect(0, obj=lambda: obj) if as_json else Expect(0, text=lambda: text))

        def modules(gens, as_json=False):
            build = functools.cache(lambda: _modules_outputs(gens))
            argv = ["modules", ",".join(map(str, gens))] + (["--json"] if as_json else [])
            return Case(argv, Expect(0, obj=lambda: build()[1]) if as_json else Expect(0, text=lambda: build()[0]))

        def multiplicity(as_json=False):
            tokens = [r.choice(self.MENU) for _ in range(r.randint(1, 4))]
            rows = [(ref.render(t, canonical=True), self.eps[t]) for t in tokens]
            total = prod(e for _, e in rows)
            text = "".join(f"{t}: epsilon = {e}\n" for t, e in rows) + f"multiplicity = {total}\n"
            obj = {"singularities": [{"token": t, "epsilon": e} for t, e in rows], "multiplicity": total}
            argv = ["multiplicity", ",".join(ref.render(t) for t in tokens)] + (["--json"] if as_json else [])
            return Case(argv, Expect(0, obj=lambda: obj) if as_json else Expect(0, text=lambda: text))

        def check(match: bool, as_json=False):
            g = r.randint(1, 3)
            expected = self.eg[g]
            target = expected if match else expected + r.choice((-1, 1)) * r.randint(1, 5)
            lines, curves, total = [], 0, 0
            while total < target:
                tokens = [r.choice(self.MENU) for _ in range(r.randint(1, 3))]
                mult = prod(self.eps[t] for t in tokens)
                if total + mult > target:
                    tokens, mult = [("pq", 1, 1)], 1
                text = ",".join(ref.render(t) for t in tokens)
                lines.append(text + ("  # curve" if r.random() < 0.2 else ""))
                if r.random() < 0.1:
                    lines.append("" if r.random() < 0.5 else "# comment")
                curves += 1
                total += mult
            path = self.workdir / f"curves-{next(self.files)}.txt"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            code = 0 if total == expected else 3
            equal = "true" if code == 0 else "false"
            text = f"curves = {curves}\nsum = {total}\nexpected = {expected}\nequal = {equal}\n"
            obj = {"curves": curves, "sum": total, "expected": expected, "equal": code == 0}
            argv = ["check", path, "--g", g] + (["--json"] if as_json else [])
            return Case(argv, Expect(code, obj=lambda: obj) if as_json else Expect(code, text=lambda: text))

        deep = "branches[" * self.DEEP + "pq(2,3)" + "]" * self.DEEP
        deep_text = "epsilon = 2\nmethod = branch-product\n"
        big_eps = ref.necklace_count(2, 1001)
        big_text = (
            f"epsilon = {big_eps}\nmethod = closed-form\nverify-method = enumeration\n"
            f"verify-value = {big_eps}\nverified = true\n"
        )
        big_modules = functools.cache(lambda: _modules_outputs((2, 1001))[0])
        small_sg3 = r.choice(((3, 5, 7), (4, 5, 6), (4, 6, 9), (5, 6, 9), (4, 5, 7)))
        return [
            eg(r.randint(3, 40), False),
            eg(r.randint(3, 40), True),
            epsilon(("pq",) + coprime(2, 7)),
            epsilon(("pq",) + coprime(2, 7), as_json=True),
            epsilon(("pq",) + coprime(5, 30), verify=False),
            epsilon(("pq",) + coprime(4, 9), max_window=r.randint(0, 8)),
            epsilon(("sg", coprime(2, 7))),
            epsilon(("sg", r.choice(((3, 5, 7), (4, 5, 6), (4, 6, 9), (5, 6, 9), (5, 7, 9)))), as_json=True),
            epsilon((r.choice("AD"), r.randint(4, 14))),
            epsilon(("E", r.randint(6, 8)), as_json=True),
            epsilon(r.choice(self.MENU[:2] + self.MENU[-1:])),
            modules(coprime(2, 6)),
            modules(coprime(2, 6), as_json=True),
            modules(small_sg3),
            multiplicity(),
            multiplicity(as_json=True),
            check(True),
            check(True, as_json=True),
            check(False),
            check(False, as_json=True),
            Case(["epsilon", f"pq({2 * r.randint(1, 5)},{2 * r.randint(1, 5)})"], Expect(1)),
            Case(["modules", f"{3 * r.randint(1, 3)},{3 * r.randint(4, 6)}"], Expect(1)),
            Case(["epsilon", r.choice(("A0", "D3", "E5", "E9"))], Expect(1)),
            Case(["epsilon", r.choice(("bogus(1)", "pq(3)", "sg()", "branches[A1"))], Expect(2)),
            Case(["multiplicity", r.choice(("E8,,A1", ",A2", "pq(2,3),x"))], Expect(2)),
            Case(["check", self.workdir / "no-such-file.txt", "--g", "1"], Expect(2)),
            Case(["eg", r.choice(("-3", "abc", "1.5"))], Expect(2)),
            # a fixed share of known-defect inputs; either the answer or a
            # clean error passes, a traceback fails
            Case(["epsilon", deep], Expect(0, text=lambda: deep_text), Expect(2), defect=True),
            Case(["modules", "2,1001"], Expect(0, text=big_modules), Expect((1, 2)), defect=True),
            Case(["epsilon", "pq(2,1001)", "--verify"], Expect(0, text=lambda: big_text), Expect((1, 2)), defect=True),
        ]

    def blocks(self):
        self.files = itertools.count()
        while True:
            block = self._slots()
            self.rng.shuffle(block)
            yield block

    def run(self, lib, case):
        """One subprocess per item: the interpreter start and import count."""
        return run_child([sys.executable, "-c", CLI_ENTRY, *case.argv], self.env)

    @staticmethod
    def run_in_process(lib, case):
        """The same argv through ``main`` in this process, streams captured."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lib.main(case.argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def judge(self, case, out) -> str:
        code, stdout, stderr = out
        if TRACEBACK in stderr:
            return "crash: " + stderr.strip().splitlines()[-1][:200]
        if any(e.matches(code, stdout, stderr) for e in case.expects):
            return OK
        return f"wrong: {' '.join(case.argv)[:80]} exited {code}"

    def properties(self, done) -> dict:
        return {"defect_share": sum(c.defect for c in done) / len(done)}


WORKLOADS = {w.name: w for w in (SeriesEg, DeltaEnum, NecklaceBij, CliMix)}
