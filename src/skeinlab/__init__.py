"""Exact skein calculus on the plane and the annulus.

Evaluates framed invariants of closed diagrams, computes two- and
three-label composition state sums, and splits diagrams through the
two-colour box rewriting coproduct, all in exact Laurent arithmetic.
"""

from .scalars import (ArityError, CounitUndefinedError, Scalar, SpecializeError,
                      a_power, bar, coproduct_slot, counit_slot, delta, integer,
                      monomial, pretty, q_minus_qinv, q_power, scalar_coproduct,
                      scalar_counit, specialize, tensor_embed)
from .diagrams import (ANNULUS, BLACKBOARD, Component, DiagramError, Event,
                       GREEN, PLANE, RADIAL, RED, VIOLET, Word,
                       analyze, combine, mirror, planar_closure, power,
                       reverse, rotation_number, subdiagram, thread_meridian,
                       trace_components, validate, writhe)
from .textio import (DiagnosticError, GrammarError, LexicalError, SemanticError,
                     desugar_braid, parse_morse, render, render_morse)
from .engine import (BudgetError, EvalError, eval_multi_colour, eval_one_colour,
                     naive_eval)
from .jaeger import StateSumError, enumerate_admissible, interaction, state_sum
from .coproduct import (CoproductElement, CoproductError, annulus_eval_family,
                        apply_counit, coproduct_diagram, coproduct_iterated,
                        counit_word, verify)
from .corpus import BUILTIN_SOURCES, builtin_word, load_builtin, load_path

__version__ = "0.1.0"
