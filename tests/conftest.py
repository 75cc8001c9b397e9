import random
import sys
from pathlib import Path

import pytest

from lqlang.parser import parse_prelude, parse_program
from lqlang.typecheck import TypeEnv, check_program

sys.setrecursionlimit(20_000)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def prelude():
    return parse_prelude()


@pytest.fixture(scope="session")
def prelude_env(prelude):
    return TypeEnv.from_decls(prelude.decls)


def corpus_files():
    return sorted(CORPUS.glob("*.lq"))


def reject_files():
    return sorted((CORPUS / "reject").glob("*.lq"))


def special_files():
    return sorted((CORPUS / "special").glob("*.lq"))


def load_corpus(path, prelude):
    text = path.read_text(encoding="utf-8")
    return parse_program(text, source=str(path), base=prelude)


def check_corpus(path, prelude):
    sf = load_corpus(path, prelude)
    return check_program(sf.decls, sf.defs, sf.main)


def checked_programs(prelude, seeds):
    """Each accepted program of ``corpus/*.lq`` and ``tests/data/*.lq``,
    then of gen seeds ``0 .. seeds - 1``, checked, with its name."""
    from lqlang.harness import GenConfig, gen_welltyped
    for path in corpus_files() + sorted(DATA.glob("*.lq")):
        yield path.name, check_corpus(path, prelude)
    for seed in range(seeds):
        yield f"seed {seed}", gen_welltyped(GenConfig(seed=seed)).checked


def rand_mult(rng: random.Random, depth: int = 3, vars=("p", "q", "r")):
    """Random multiplicity expression; shared by several test modules."""
    from lqlang.syntax import MProd, MSum, MVar, OMEGA, ONE
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice([ONE, OMEGA, MVar(rng.choice(vars))])
    if rng.random() < 0.5:
        return MSum(rand_mult(rng, depth - 1, vars),
                    rand_mult(rng, depth - 1, vars))
    return MProd(rand_mult(rng, depth - 1, vars),
                 rand_mult(rng, depth - 1, vars))
