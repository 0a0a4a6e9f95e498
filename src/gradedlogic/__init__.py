"""Graded-implication reasoning with exact rational degrees.

The package has three faces that must always agree: a degree semantics for
crisp graded implications (with finite-grid countermodel search), a
Hilbert-style proof kernel over 25 axiom schemas, and a distance-based
prototype semantics over the answer cube.  The questionnaire module scores
respondents through all three and cross-checks the results exactly.
"""

from .errors import AtomKindError, ResourceLimitError, UnboundVariableError
from .grades import (
    Grade,
    TNormKind,
    as_grade,
    luk_tconorm,
    luk_tnorm,
    mean,
    negate,
    tconorm,
    tnorm,
)
from .kernel import (
    AxiomInst,
    Hyp,
    MP,
    Proof,
    ProofBuilder,
    ProofLine,
    Taut,
    Verdict,
    build_score_derivation,
    check_proof,
    match_axiom,
    match_schema,
    match_tautology,
    parse_proof_script,
    proof_to_json_lines,
    score_theory,
    verdict_to_dict,
    SCHEMA_NAMES,
)
from .prototypes import (
    Face,
    FiniteSet,
    PCPair,
    QEvaluation,
    canonical_disorder_eval,
    check_theory_correct_canonical,
    contains,
    degree,
    grid_worlds,
    in_region,
    l1_distance,
    satisfied_on_grid,
    set_distance,
    world,
)
from .questionnaire import (
    AnswerSheet,
    QuestionnaireSpec,
    ScoreReport,
    cross_check,
    ingest_answers,
    load_spec,
    report_to_dict,
    score_mean,
    score_via_lgim,
    score_via_q,
    sheet_from_raw,
    spec_from_dict,
)
from .semantics import (
    Evaluation,
    entails_on_grid,
    eval_basic,
    find_countermodel,
    satisfies_formula,
    satisfies_gi,
    satisfies_gi_luk_form,
    satisfies_theory,
)
from .syntax import (
    And,
    Atom,
    BasicExpr,
    Bottom,
    GradedImplication,
    GradedVariable,
    Neg,
    OAnd,
    ONot,
    OOr,
    Or,
    OuterFormula,
    ParseError,
    Strong,
    Top,
    Var,
    gi,
    outer_implies,
    parse_basic,
    parse_formula,
    parse_theory,
    render,
    vars_of_basic,
    vars_of_formula,
)

__version__ = "0.1.0"
