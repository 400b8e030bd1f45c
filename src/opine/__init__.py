"""Inference of default opinion implicatures from annotated sentences.

Pipeline: parse annotations and a lexicon, build the per-sentence node graph,
compose influencer chains and lexical second roles, then run the default rules
to fixpoint inside private-state spaces.

Each record type is a class written out in the source: a ``tuple`` subclass
of ``records.Record`` for a value nothing mutates, a ``__slots__`` class with
its own ``__init__`` otherwise.  Their methods come from the bytecode cache,
where ``namedtuple`` and ``@dataclass`` would write them as source text and
compile them at every import; importing the package loads neither
``typing``, ``dataclasses`` nor ``inspect``.
"""

from .annotations import (
    AnnotationDoc,
    AnnotationLine,
    EntityRef,
    Lexicon,
    SentenceAnnotation,
    parse_document,
    parse_lexicon,
)
from .composition import expand_extra_roles, resolve_chains, run_composition
from .errors import (
    ContradictoryInput,
    DanglingReference,
    DuplicateId,
    DuplicateKey,
    IllFormedNode,
    InputError,
    InvariantViolation,
    IterationLimitExceeded,
    LexiconMismatch,
    MalformedLine,
    MalformedRecord,
    OpineError,
    RootConstraintViolation,
)
from .graph import (
    EvidenceFact,
    Fact,
    Graph,
    IdAllocator,
    Node,
    build_input_graph,
)
from .render import (
    dumps,
    render_by_spaces,
    render_graph,
    render_trace,
    whatif_diff,
)
from .rules import (
    DEFAULT_RULE_ORDER,
    RULES,
    Config,
    InferenceResult,
    assumption_basis,
    blocked_by_evidence,
    check_consistency,
    fire,
    match,
    process_document,
    process_sentence,
    run_to_fixpoint,
)
from .spaces import extend_spaces, would_contradict

__all__ = [name for name in dir() if not name.startswith("_")]
