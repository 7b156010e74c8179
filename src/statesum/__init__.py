"""Bidirectional conversion between dialogue states and template summaries, plus the
few-shot DST experiment harness built around it. The names imported below are the public API."""

__version__ = "0.1.0"

from .errors import (
    CorpusError,
    EvaluationError,
    GenerationError,
    ProtocolError,
    SchemaError,
    StatesumError,
    StateValidationError,
)
from .ontology import (
    DONTCARE,
    DialogueState,
    DomainSpec,
    Ontology,
    SlotSpec,
    TemplateConfig,
    default_ontology,
    load_ontology,
    random_state,
    validate_state,
)
from .summarize import (
    render_domain_sentence,
    render_slot_phrase,
    state_to_summary,
    synthesize_labels,
)
from .destate import (
    ParseResult,
    StateExtractor,
    parse_summary,
    reserved_collisions,
)
from .corpus import (
    Corpus,
    Dialogue,
    FewShotSplit,
    PredictionRecord,
    domain_counts,
    export_training_file,
    load_multiwoz,
    load_predictions,
    sample_fewshot,
)
from .metrics import (
    ErrorRecord,
    Report,
    bleu4,
    classify_errors,
    evaluate_run,
    joint_goal_accuracy,
    rouge_n_f1,
    slot_accuracy,
)

# The public names bound above, submodules excepted: `import *` and pydoc read this list.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, type(errors))]
