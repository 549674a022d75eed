"""scriptkb: a knowledge base of everyday activity scripts.

Parses a declarative file format of concepts, bilingual lexical entries,
assertions, and 2-D location grids; materializes script views (roles,
event timelines, conditions, goals, emotions, places, duration, frequency,
cost); answers templated commonsense questions; recognizes likely scripts
in free text; and computes per-script census statistics.
"""

from .diagnostics import Diagnostic, has_errors
from .grid import Grid, parse_grid, render as render_grid
from .kb import KnowledgeBase, instance_base
from .ontology import ROOT, Language, Ontology
from .parser import is_symbol, parse_assertion, parse_database, parse_measure, serialize
from .qa import Answer, Question, QuestionKind, answer, parse_question, render_question
from .recognizer import (
    Activation,
    ActivationSet,
    RecognitionResult,
    activate,
    format_results,
    mention_set,
    score_scripts,
)
from .scripts import (
    EventGroup,
    FieldValue,
    Script,
    build_script,
    inherited_field,
    instance_assertion,
    is_script,
    timeline,
    validate,
)
from .stats import CensusRow, SummaryRow, census, summary
from .terms import DEFAULT_UNITS, NA, Assertion, Measure, ObjectBlock, render_term

__version__ = "0.1.0"

__all__ = [
    "Activation", "ActivationSet", "Answer", "Assertion", "CensusRow",
    "DEFAULT_UNITS", "Diagnostic", "EventGroup", "FieldValue", "Grid",
    "KnowledgeBase", "Language", "Measure", "NA", "ObjectBlock",
    "Ontology", "Question", "QuestionKind", "RecognitionResult", "ROOT",
    "Script", "SummaryRow", "activate", "answer", "build_script", "census",
    "format_results", "has_errors", "inherited_field", "instance_assertion",
    "instance_base", "is_script", "is_symbol", "mention_set",
    "parse_assertion", "parse_database", "parse_grid", "parse_measure",
    "parse_question", "render_grid", "render_question", "render_term",
    "score_scripts", "serialize", "summary", "timeline", "validate",
]
