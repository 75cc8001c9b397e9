"""Seeded source-text inputs for the check, deep and arrays workloads.

Everything here writes ``.lq`` surface syntax from a ``random.Random``
and computes each program's reference answer (a closed form, a Python
simulation, or the composer's intended verdict) without calling into
``lqlang``.  A change to the library's own generator therefore cannot
shift these inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

TRI_DEF = """def tri : Int ->[w] Int =[w]
  \\[w] n : Int . case[1] eq(n, 0) of
    { True -> 0
    ; False -> add(n, tri (sub(n, 1))) }
"""

SUMLIST_DEF = """def sumlist : List Int ->[1] Int =[w]
  \\[1] xs : List Int . case[1] xs of
    { Nil -> 0
    ; Cons h t -> add(h, sumlist t) }
"""

READSUM_DEF = """def readsum : Array Int ->[w] Int ->[w] Int =[w]
  \\[w] a : Array Int . \\[w] i : Int . case[1] eq(i, 0) of
    { True -> 0
    ; False -> add(index(a, sub(i, 1)), readsum a (sub(i, 1))) }
"""

ARRAY_CELLS = 512


@dataclass(frozen=True)
class Program:
    """One input: source text, a family and size for growth fits, and the
    reference answer.  ``expect`` is an int for run workloads, and
    ``"accept"`` or ``"reject"`` for the check workload."""
    name: str
    family: str
    size: int
    text: str
    expect: object


# ---------------------------------------------------------------------------
# deep: recursion depth and nesting depth

def tri_program(n: int) -> Program:
    return Program(f"tri-{n}", "tri", n, TRI_DEF + f"main = tri {n}\n",
                   n * (n + 1) // 2)


def add_chain_program(rng: random.Random, n: int) -> Program:
    values = [rng.randint(0, 9) for _ in range(n)]
    text = "main = " + "".join(f"add({v}, " for v in values) + "0" \
        + ")" * n + "\n"
    return Program(f"add-{n}", "add", n, text, sum(values))


def list_program(rng: random.Random, n: int) -> Program:
    values = [rng.randint(0, 9) for _ in range(n)]
    lst = "Nil @[Int]"
    for v in reversed(values):
        lst = f"Cons @[Int] {v} ({lst})"
    return Program(f"list-{n}", "list", n,
                   SUMLIST_DEF + f"main = sumlist ({lst})\n", sum(values))


# Sizes double, so each growth fit spans 4x.  A round of all nine takes
# about 2 s, so a run repeats each program a dozen times.
DEEP_SIZES = {"tri": (125, 250, 500),
              "add": (25, 50, 100),
              "list": (25, 50, 100)}

# Past the 20,000-frame limit that ``lq`` sets: the ordinary evaluator
# raises RecursionError here, so the program is a probe, not an operation.
DEEP_LIMIT_PROBE = 5000


def deep_programs(seed: int) -> list[Program]:
    rng = random.Random(f"perfbench:deep:{seed}")
    out = [tri_program(n) for n in DEEP_SIZES["tri"]]
    out += [add_chain_program(rng, n) for n in DEEP_SIZES["add"]]
    out += [list_program(rng, n) for n in DEEP_SIZES["list"]]
    return out


# ---------------------------------------------------------------------------
# arrays: w writes to a 512-cell array, freeze, then r recursive reads

def array_program(rng: random.Random, family: str, writes: int,
                  reads: int) -> Program:
    assert reads <= ARRAY_CELLS, "reads past the array would block"
    cells = [0] * ARRAY_CELLS
    chain = "ma"
    for _ in range(writes):
        i, v = rng.randrange(ARRAY_CELLS), rng.randint(0, 99)
        cells[i] = v
        chain = f"write({chain}, {i}, {v})"
    text = (READSUM_DEF
            + f"main = case[1] newMArray({ARRAY_CELLS}, 0, "
            + f"\\[1] ma : MArray Int . freeze({chain})) of\n"
            + f"  {{ Unrestricted arr -> readsum arr {reads} }}\n")
    size = {"write": writes, "read": reads, "mixed": writes}[family]
    return Program(f"{family}-w{writes}-r{reads}", family, size, text,
                   sum(cells[:reads]))


# Sizes double; a round of all nine takes about 2.5 s.
ARRAY_SHAPES = (("write", 125, 10), ("write", 250, 10), ("write", 500, 10),
                ("read", 10, 62), ("read", 10, 125), ("read", 10, 250),
                ("mixed", 62, 62), ("mixed", 125, 125),
                ("mixed", 250, 250))


def array_programs(seed: int) -> list[Program]:
    rng = random.Random(f"perfbench:arrays:{seed}")
    return [array_program(rng, fam, w, r) for fam, w, r in ARRAY_SHAPES]


# ---------------------------------------------------------------------------
# check: the corpus plus composed programs of 10-100 KB

def corpus_programs(corpus_dir: Path) -> list[Program]:
    """Accepted files sit in ``corpus/``, rejected ones in
    ``corpus/reject/``; ``corpus/special/`` is left out (those programs
    are about evaluation, not checking)."""
    out = []
    for sub, verdict in (("", "accept"), ("reject", "reject")):
        for path in sorted((corpus_dir / sub).glob("*.lq")):
            out.append(Program(f"corpus/{sub + '/' if sub else ''}"
                               f"{path.name}", "corpus", 0,
                               path.read_text(encoding="utf-8"), verdict))
    return out


class _Composer:
    """Writes one well-typed program of type Int out of w-definition
    groups, each ``fK : Int ->[w] Int``, and ``=[1]`` constants that
    ``main`` consumes exactly once.  The definition kinds cover let-chains
    at 1, w and a multiplicity variable p, multiplicity-polymorphic
    combinators used at 1 and w, nested case over Pair, List and Bool, and
    array write chains."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.defs: list[str] = [SUMLIST_DEF]
        self.calls: list[str] = []
        self.count = 0

    def name(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def lit(self) -> int:
        return self.rng.randint(0, 9)

    def let1_chain(self) -> None:
        f, k = self.name("lone"), self.rng.randint(8, 40)
        lines = [f"def {f} : Int ->[w] Int =[w]\n  \\[w] n : Int .\n"]
        prev = "n"
        for i in range(k):
            op = self.rng.choice(("add", "sub", "mul"))
            lines.append(f"    let[1] a{i} : Int = {op}({prev}, "
                         f"{self.lit()}) in\n")
            prev = f"a{i}"
        lines.append(f"    {prev}\n")
        self.defs.append("".join(lines))
        self.calls.append(f"{f} {self.lit()}")

    def letw_chain(self) -> None:
        f, k = self.name("lomega"), self.rng.randint(8, 40)
        lines = [f"def {f} : Int ->[w] Int =[w]\n  \\[w] n : Int .\n"]
        names = ["n"]
        for i in range(k):
            a, b = self.rng.choice(names), self.rng.choice(names)
            lines.append(f"    let[w] b{i} : Int = add({a}, mul({b}, "
                         f"{self.lit()})) in\n")
            names.append(f"b{i}")
        lines.append(f"    add({names[-1]}, {self.rng.choice(names)})\n")
        self.defs.append("".join(lines))
        self.calls.append(f"{f} {self.lit()}")

    def letp_poly(self) -> None:
        """A combinator polymorphic in p whose body is a let-chain at p,
        instantiated once at 1 and once at w."""
        g, k = self.name("poly"), self.rng.randint(4, 20)
        lines = [f"def {g} : forall p. (Int ->[p] Int) ->[1] Int ->[p] Int "
                 f"=[w]\n  /\\p . \\[1] f : Int ->[p] Int . "
                 f"\\[p] x : Int .\n"]
        prev = "x"
        for i in range(k):
            lines.append(f"    let[p] y{i} : Int = {prev} in\n")
            prev = f"y{i}"
        lines.append(f"    f {prev}\n")
        self.defs.append("".join(lines))
        self.calls.append(f"{g} @[1] (\\[1] a : Int . add(a, {self.lit()}))"
                          f" {self.lit()}")
        self.calls.append(f"{g} @[w] (\\[w] b : Int . mul(b, b)) "
                          f"{self.lit()}")

    def nested_case(self, depth: int) -> str:
        """An Int term that consumes the linear Ints ``a`` and ``b``
        exactly once, through nested case over Pair, List and Bool."""
        if depth == 0:
            return "add(a, b)"
        inner = self.nested_case(depth - 1)
        match self.rng.choice(("pair", "list", "bool")):
            case "pair":
                return (f"case[1] MkPair @[Int, Int] @[1, 1] b a of\n"
                        f"      {{ MkPair a b -> {inner} }}")
            case "list":
                return (f"case[1] Cons @[Int] a (Cons @[Int] b (Nil @[Int])) "
                        f"of\n      {{ Nil -> 0 ; Cons a t -> case[1] t of\n"
                        f"        {{ Nil -> a ; Cons b u -> add(sumlist u, "
                        f"{inner}) }} }}")
            case _:
                return (f"case[1] lt({self.lit()}, {self.lit()}) of\n"
                        f"      {{ True -> {inner} ; False -> add(b, a) }}")

    def cases(self) -> None:
        f = self.name("cases")
        body = self.nested_case(self.rng.randint(3, 12))
        self.defs.append(
            f"def {f} : Int ->[w] Int =[w]\n  \\[w] n : Int .\n"
            f"    let[1] a : Int = add(n, {self.lit()}) in\n"
            f"    let[1] b : Int = mul(n, {self.lit()}) in\n    {body}\n")
        self.calls.append(f"{f} {self.lit()}")

    def array_chain(self) -> None:
        f = self.name("arr")
        cells = self.rng.randint(2, 16)
        chain = "ma"
        for _ in range(self.rng.randint(4, 40)):
            chain = (f"write({chain}, {self.rng.randrange(cells)}, "
                     f"add(n, {self.lit()}))")
        self.defs.append(
            f"def {f} : Int ->[w] Int =[w]\n  \\[w] n : Int .\n"
            f"    case[1] newMArray({cells}, n, \\[1] ma : MArray Int .\n"
            f"      freeze({chain})) of\n"
            f"    {{ Unrestricted r -> add(index(r, 0), "
            f"index(r, {cells - 1})) }}\n")
        self.calls.append(f"{f} {self.lit()}")

    def constant(self) -> None:
        """A ``=[1]`` definition: it ends the current w group, and main
        must consume it exactly once."""
        c = self.name("one")
        self.defs.append(f"def {c} : Int =[1] add({self.lit()}, "
                         f"{self.lit()})\n")
        self.calls.append(c)

    def compose(self, target_bytes: int) -> str:
        kinds = (self.let1_chain, self.letw_chain, self.letp_poly,
                 self.cases, self.array_chain, self.constant)
        size = 0
        while size < target_bytes:
            # every kind once per block, so the mix (and the cost per KB)
            # does not drift with the seed
            for kind in self.rng.sample(kinds, len(kinds)):
                kind()
            size = sum(map(len, self.defs)) + 12 * len(self.calls)
        main = "0"
        for call in reversed(self.calls):
            main = f"add({call},\n  {main})"
        return "\n".join(self.defs) + f"\nmain = {main}\n"


# Target sizes are fixed, evenly spaced over [10, 100] KB; the seed writes
# the text.  A size drawn within each stratum moved program_ms.p90 by 8%
# across seeds, as the cost is about 5 ms per KB.  Six of them and the
# corpus make a round of about 2.5 s.
COMPOSED_PER_PASS = 6
MIN_KB, MAX_KB = 10, 100


def composed_programs(seed: int) -> list[Program]:
    rng = random.Random(f"perfbench:check:{seed}")
    out = []
    step = (MAX_KB - MIN_KB) / COMPOSED_PER_PASS
    for i in range(COMPOSED_PER_PASS):
        kb = MIN_KB + step * (i + 0.5)
        text = _Composer(rng).compose(int(kb * 1024))
        out.append(Program(f"composed-{i}", "composed", len(text), text,
                           "accept"))
    return out


def check_programs(seed: int, corpus_dir: Path) -> list[Program]:
    return corpus_programs(corpus_dir) + composed_programs(seed)
