"""Magic Sudoku variants: enumeration, symmetry groups, canonical
nests, nest graphs, block-cycle decomposition, and minimality
certificates for modular-magic and semi-magic boards."""

from .analysis import (
    G9Certificate,
    check_two_equal,
    g9_minimality_certificate,
)
from .boards import (
    Board,
    block,
    blocks,
    format_board,
    is_magic_mod9_block,
    is_modular_magic,
    is_semi_magic,
    is_semi_magic_block,
    is_sudoku,
    off_diagonal_set,
    pack,
    parse_board,
    read_mssb,
    unpack,
    write_mssb,
)
from .catalog import (
    NamedGenerator,
    g_k_generators,
    g_mm_group,
    g_sm_order,
    h9_generators,
    h9_group,
    h_gamma_generators,
    h_gamma_group,
    h_mm_generators,
    h_mm_group,
    mu,
    parse_generator,
    relabeling,
    rho,
    s_mm_elements,
    s_mm_generators,
    s_sm_group,
)
from .enumeration import (
    complete_modular_magic,
    complete_standard_gnomon,
    enumerate_modular_magic,
    enumerate_semi_magic,
    iter_modular_magic,
    iter_semi_magic,
    modular_magic_blocks,
    random_semi_magic,
    semi_magic_blocks,
)
from .errors import (
    BoardFormatError,
    CapacityError,
    DigitError,
    DomainError,
    IntegrityError,
    MagicSudokuError,
    StructureError,
)
from .keedwell import (
    ExponentMatrices,
    KeedwellDecomposition,
    apply_alpha,
    apply_beta,
    is_quasi_linear,
    keedwell_decompose,
    linearity_degree,
)
from .nestgraph import (
    MinimalityReport,
    NestGraph,
    build_nest_graph,
    completeness,
    minimality,
    orbit_sizes,
    to_dot,
    weak_components,
)
from .nests import (
    Census,
    NestLabel,
    canonicalize,
    canonicalize_mm,
    canonicalize_sm,
    census,
    mm_labels,
    representative,
    sm_labels,
)
from .perms import (
    PermGroup,
    Symmetry,
    act,
    closure,
    compose,
    identity,
    inverse,
)
from .verification import VerifyContext, VerifyReport, run_checks

__version__ = "0.1.0"
