"""Identifying codes in binary Hamming space: construction, verification,
transformation, extension, pruning and benchmarking against known bounds.

An r-identifying code C in F^n gives every vertex a nonempty, unique
signature (the set of codewords within distance r).  This package builds
such codes by exact search and by heuristics, converts them to and from
their discriminating counterparts, extends them to longer codes, and
classifies their sizes against a registry of best known bounds.
"""

from .bounds import (
    BoundRecord,
    check_consistency,
    classify_size,
    compare,
    discriminating_lookup,
    load_registry,
    lookup,
)
from .codefile import (
    CodeFile,
    CodeFileError,
    parse_code_text,
    read_code_file,
    serialize_code,
    write_code_file,
)
from .convert import (
    DiscriminatingReport,
    discriminating_report,
    is_discriminating,
    to_discriminating,
    to_identifying,
)
from .exact import (
    SearchOutcome,
    min_discriminating,
    min_identifying,
    min_separating,
)
from .extend import (
    ExtensionError,
    ExtensionPlan,
    VerificationFailed,
    apply_plan,
    compute_x_set,
    cover_annulus,
    extend_c1,
    extend_c2,
    plan_extension,
)
from .heuristics import (
    NoisingParams,
    SearchReport,
    greedy_construct,
    noising_search,
    prune,
)
from .hypercube import (
    MAX_DIM,
    Code,
    ball_size,
    direct_sum,
    full_space,
)
from .signatures import (
    SignatureTable,
    VerifyReport,
    diagnose,
    is_identifying,
    is_separating,
)

__version__ = "0.1.0"

__all__ = [
    "BoundRecord",
    "Code",
    "CodeFile",
    "CodeFileError",
    "DiscriminatingReport",
    "ExtensionError",
    "ExtensionPlan",
    "MAX_DIM",
    "NoisingParams",
    "SearchOutcome",
    "SearchReport",
    "SignatureTable",
    "VerificationFailed",
    "VerifyReport",
    "apply_plan",
    "ball_size",
    "check_consistency",
    "classify_size",
    "compare",
    "compute_x_set",
    "cover_annulus",
    "diagnose",
    "direct_sum",
    "discriminating_lookup",
    "discriminating_report",
    "extend_c1",
    "extend_c2",
    "full_space",
    "greedy_construct",
    "is_discriminating",
    "is_identifying",
    "is_separating",
    "load_registry",
    "lookup",
    "min_discriminating",
    "min_identifying",
    "min_separating",
    "noising_search",
    "parse_code_text",
    "plan_extension",
    "prune",
    "read_code_file",
    "serialize_code",
    "to_discriminating",
    "to_identifying",
    "write_code_file",
]
