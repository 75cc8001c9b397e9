"""lqlang: a linear core language with multiplicity polymorphism.

The package provides a linearity typechecker, a sharing translation, two
big-step evaluators for the same language (an in-place mutating one and a
pure one), and a differential-testing harness that checks the two agree.
"""

from .diagnostics import CheckError, Diagnostic, Kind
from .eval_ordinary import Heap, eval_term, trace_eval
from .eval_pure import AnnState, eval_pure, initial_state, instrumented_eval
from .harness import DiffReport, GenConfig, bisim_run, fuzz, gen_welltyped
from .multiplicity import (MultNF, ZERO, mult_equiv, mult_normalize,
                           sub_usage, usage_add, usage_join, usage_scale)
from .parser import SourceFile, parse_prelude, parse_program
from .runtime import BlockReason, Outcome, OutcomeKind
from .translate import is_sharing, to_sharing
from .typecheck import (CheckedProgram, TypeEnv, annotate, check_datadecl,
                        check_program, infer)

__version__ = "0.1.0"

__all__ = [
    "AnnState", "BlockReason", "CheckError", "CheckedProgram", "Diagnostic",
    "DiffReport", "GenConfig", "Heap", "Kind", "MultNF", "Outcome",
    "OutcomeKind", "SourceFile", "TypeEnv", "ZERO", "annotate", "bisim_run",
    "check_datadecl", "check_program", "eval_pure", "eval_term", "fuzz",
    "gen_welltyped", "infer", "initial_state", "instrumented_eval",
    "is_sharing", "mult_equiv", "mult_normalize", "parse_prelude",
    "parse_program", "sub_usage", "to_sharing", "trace_eval", "usage_add",
    "usage_join", "usage_scale",
]
