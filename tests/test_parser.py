"""Surface syntax: grammar cases, sugar, diagnostics, printer round-trips."""

import pytest

from lqlang.diagnostics import CheckError, Kind
from lqlang.eval_ordinary import Heap, eval_term
from lqlang.eval_pure import eval_pure, initial_state
from lqlang.parser import parse_prelude, parse_program, prelude_source, tokenize
from lqlang.pretty import show_datadecl, show_program, show_term
from lqlang.syntax import (App, Case, Con, INT, IntLit, Lam, Let, Loc, MProd,
                           MSum, MVar, MultApp, MultLam, OMEGA, ONE, Prim,
                           TArrow, TData, TForall, Var)
from lqlang.translate import to_sharing
from lqlang.typecheck import check_program

from conftest import corpus_files, load_corpus, reject_files, special_files


def parse_main(src, prelude=None):
    return parse_program(src, base=prelude).main


def test_lambda(prelude):
    t = parse_main("main = \\[1] x : Int . x", prelude)
    assert t == Lam(ONE, "x", INT, Var("x"))


def test_arrow_sugar(prelude):
    a = parse_program("def f : Int -o Int =[w] \\[1] x : Int . x\nmain = 0",
                      base=prelude)
    b = parse_program("def f : Int ->[1] Int =[w] \\[1] x : Int . x\nmain = 0",
                      base=prelude)
    c = parse_program("def f : Int -> Int =[w] \\[w] x : Int . x\nmain = 0",
                      base=prelude)
    assert a.defs[-1][1] == b.defs[-1][1] == TArrow(INT, ONE, INT)
    assert c.defs[-1][1] == TArrow(INT, OMEGA, INT)


def test_mult_grammar(prelude):
    t = parse_main("main = \\[1 + w * p] x : Int . 0", prelude)
    assert t.mult == MSum(ONE, MProd(OMEGA, MVar("p")))
    t2 = parse_main("main = \\[(1 + w) * p] x : Int . 0", prelude)
    assert t2.mult == MProd(MSum(ONE, OMEGA), MVar("p"))


def test_application_left_assoc(prelude):
    t = parse_main("main = f x y", prelude)
    assert t == App(App(Var("f"), Var("x")), Var("y"))


def test_mult_application_postfix(prelude):
    t = parse_main("main = f @[w] x", prelude)
    assert t == App(MultApp(Var("f"), OMEGA), Var("x"))


def test_mult_abstraction(prelude):
    t = parse_main("main = /\\p . \\[p] x : Int . x", prelude)
    assert t == MultLam("p", Lam(MVar("p"), "x", INT, Var("x")))


def test_constructor_saturation(prelude):
    t = parse_main("main = MkPair @[Int, Bool] @[1, w] 1 True", prelude)
    assert t == Con("MkPair", (INT, TData("Bool")), (ONE, OMEGA),
                    (IntLit(1), Con("True", (), (), ())))


def test_datatype_and_constructor_used_before_their_declaration(prelude):
    """A parameterised constructor and its type may appear before their
    ``data`` declaration: the program parses, checks and runs to the same
    value as the file with the declaration moved first."""
    decl = "data Box (a) where { MkBox : a -o Box a }\n"
    rest = ("def x : Box Int =[w] MkBox @[Int] 1\n"
            "main = case[1] x of { MkBox n -> n }\n")
    values = []
    for text in (rest.replace("main", decl + "main"), decl + rest):
        sf = parse_program(text, base=prelude)
        checked = check_program(sf.decls, sf.defs, sf.main)
        sharing = to_sharing(checked.term, checked.env)
        ores = eval_term(Heap(), sharing, 1000)
        pres = eval_pure(initial_state(sharing, checked.ty, checked.env),
                         1000)
        values.append((show_term(ores.outcome.value),
                       show_term(pres.outcome.value)))
    assert values == [("1", "1"), ("1", "1")]


def test_constructor_in_argument_position_needs_parens(prelude):
    with pytest.raises(CheckError):
        parse_program("main = f Cons", base=prelude)
    t = parse_main("main = f (Cons @[Int] 1 (Nil @[Int]))", prelude)
    assert isinstance(t, App) and isinstance(t.arg, Con)


def test_case_and_let(prelude):
    t = parse_main(
        "main = let[1] x : Int = 1 , y : Int = 2 in "
        "case[w] True of { True -> x ; False -> y }", prelude)
    assert isinstance(t, Let) and len(t.binds) == 2
    assert isinstance(t.body, Case) and len(t.body.branches) == 2


def test_prim_call(prelude):
    t = parse_main("main = write(ma, 0, x)", prelude)
    assert t == Prim("write", (Var("ma"), IntLit(0), Var("x")))


def test_forall_type(prelude):
    sf = parse_program(
        "def f : forall p. Int ->[p] Int =[w] /\\p . \\[p] x : Int . x\n"
        "main = 0", base=prelude)
    assert sf.defs[-1][1] == TForall("p", TArrow(INT, MVar("p"), INT))


def test_comments_ignored(prelude):
    t = parse_main("-- leading\nmain = 5 -- trailing", prelude)
    assert t == IntLit(5)


def test_def_mult_restricted(prelude):
    with pytest.raises(CheckError):
        parse_program("def f : Int =[p] 0\nmain = 0", base=prelude)
    with pytest.raises(CheckError):
        parse_program("def f : Int =[1 + 1] 0\nmain = 0", base=prelude)


def test_main_must_be_last(prelude):
    with pytest.raises(CheckError):
        parse_program("main = 0\ndef f : Int =[w] 1", base=prelude)


def test_missing_main(prelude):
    with pytest.raises(CheckError):
        parse_program("def f : Int =[w] 1", base=prelude)


def test_reserved_namespace_rejected(prelude):
    with pytest.raises(CheckError):
        parse_program("main = %s0", base=prelude)


def test_syntax_errors_are_positioned(prelude):
    with pytest.raises(CheckError) as e:
        parse_program("main = \\[1] x : Int", base=prelude)
    d = e.value.diagnostics[0]
    assert d.kind is Kind.SYNTAX and d.loc is not None


def test_unknown_datatype_in_type(prelude):
    with pytest.raises(CheckError) as e:
        parse_program("def f : Wibble =[w] 0\nmain = 0", base=prelude)
    assert e.value.diagnostics[0].kind is Kind.SYNTAX


def test_datadecl_result_must_match(prelude):
    with pytest.raises(CheckError) as e:
        parse_program("data T (a) where { MkT : a ->[1] Int }\nmain = 0",
                      base=prelude)
    assert e.value.diagnostics[0].kind is Kind.MALFORMED_DECL


def test_prelude_parses_and_roundtrips(prelude):
    text = "\n".join(show_datadecl(d) for d in prelude.decls)
    again = parse_program(text, require_main=False)
    assert again.decls == prelude.decls


def test_corpus_roundtrip(prelude):
    """parse . print . parse == parse over the whole corpus."""
    for path in corpus_files() + reject_files() + special_files():
        sf = load_corpus(path, prelude)
        printed = show_program(sf.decls, sf.defs, sf.main)
        again = parse_program(printed)
        assert again.decls == sf.decls, path.name
        assert again.defs == sf.defs, path.name
        assert again.main == sf.main, path.name


def test_term_printer_roundtrip_precedence(prelude):
    cases = [
        "main = f (g x) y",
        "main = (\\[1] x : Int . x) 1",
        "main = add(1, mul(2, 3))",
        "main = f @[1 + w]",
        "main = case[1] f x of { True -> 0 ; False -> 1 }",
    ]
    for src in cases:
        t = parse_main(src, prelude)
        assert parse_main(f"main = {show_term(t)}", prelude) == t, src


def test_tokenizer_locations():
    toks = tokenize("main =\n  5")
    assert toks.loc(0).line == 1 and toks.loc(0).col == 1
    assert toks.loc(2).line == 2 and toks.loc(2).col == 3


def test_token_locations_match_their_offsets():
    """Every token's lazily computed location agrees with one counted
    directly from its offset, on the prelude and the whole corpus."""
    texts = [prelude_source()] + [
        path.read_text(encoding="utf-8")
        for path in corpus_files() + reject_files() + special_files()]
    for text in texts:
        tokens = tokenize(text)
        assert tokens.kinds[-1] == "eof" and tokens.offsets[-1] == len(text)
        for i, (tok, pos) in enumerate(zip(tokens.texts, tokens.offsets)):
            assert text[pos:pos + len(tok)] == tok
            line = text.count("\n", 0, pos) + 1
            col = pos - (text.rfind("\n", 0, pos) + 1) + 1
            assert tokens.loc(i) == Loc(line, col), (tok, pos)


def test_node_locations_are_worked_out_when_read(prelude, monkeypatch):
    """Parsing works out no line or column.  A node's location does so when
    it is first read, once, and then equals, hashes and prints as the
    ``Loc(line, col)`` it stands for."""
    import lqlang.syntax as S
    calls = []
    real = S.bisect_right
    monkeypatch.setattr(S, "bisect_right",
                        lambda *args: calls.append(args) or real(*args))
    main = parse_program("main =\n  add(1,\n      2)\n", base=prelude).main
    assert not calls
    two = main.args[1]
    assert (two.loc.line, two.loc.col) == (3, 7)
    assert len(calls) == 1
    assert two.loc == Loc(3, 7) and hash(two.loc) == hash(Loc(3, 7))
    assert str(two.loc) == "3:7"
    assert repr(two.loc) == repr(Loc(3, 7)) == "Loc(line=3, col=7)"
    assert len(calls) == 1
    assert main.loc == Loc(2, 3) and main.loc != two.loc


# also recorded, as ``lq check`` output, by ``frontend_golden.py``
SYNTAX_ERROR_CASES = [
    ("main =\t$", "unexpected character '$'", 1, 8),
    ("-- a comment\nmain = add(1, $)\n", "unexpected character '$'", 2, 15),
    ("main =\n  add(1, 2) $", "unexpected character '$'", 2, 13),
    ("main = (1", "expected ')', found 'end of input'", 1, 10),
    ("main = (1\n", "expected ')', found 'end of input'", 2, 1),
    ("main =\r\n  $\r\n", "unexpected character '$'", 2, 3),
    ("main = add(1,\r\n  2) $", "unexpected character '$'", 2, 6),
    ("main = (1\r\n", "expected ')', found 'end of input'", 2, 1),
]


@pytest.mark.parametrize("src, message, line, col", SYNTAX_ERROR_CASES)
def test_syntax_error_locations(prelude, src, message, line, col):
    with pytest.raises(CheckError) as e:
        parse_program(src, base=prelude)
    [d] = e.value.diagnostics
    assert (d.kind, d.message, d.loc) == (Kind.SYNTAX, message, Loc(line, col))


def test_nesting_depth_budget(prelude):
    """A 4,500-deep nested ``add`` parses, checks and runs under the
    20,000-frame limit this suite sets.  Evaluation bounds this depth;
    ``test_check_nesting_depth_budget`` pins the front end's."""
    depth = 4500
    src = "main = " + "add(1, " * depth + "0" + ")" * depth
    sf = parse_program(src, base=prelude)
    checked = check_program(sf.decls, sf.defs, sf.main)
    sharing = to_sharing(checked.term, checked.env)
    ores = eval_term(Heap(), sharing, 100_000)
    pres = eval_pure(initial_state(sharing, checked.ty, checked.env), 100_000)
    assert show_term(ores.outcome.value) == show_term(pres.outcome.value) \
        == str(depth)


def test_check_nesting_depth_budget(prelude):
    """A 9,000-deep nested ``add`` parses and checks under the 20,000-frame
    limit this suite sets: parsing takes two frames per level (``term``
    and ``element``) and ``infer`` one, so a change that adds a frame per
    level to parsing fails here."""
    depth = 9000
    src = "main = " + "add(1, " * depth + "0" + ")" * depth
    sf = parse_program(src, base=prelude)
    assert check_program(sf.decls, sf.defs, sf.main).ty == INT
