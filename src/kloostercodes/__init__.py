"""Exact computation of Kloosterman-sum power moments over GF(3^r) through
the ternary codes of the minus-type orthogonal groups."""

from .charsums import (
    delta_count,
    kloosterman,
    sk_moment,
    sk_moments,
)
from .codes import (
    codeword_weight_formula,
    weight_prefix,
)
from .errors import (
    CapacityError,
    ConsistencyError,
    DomainError,
    FieldConstructionError,
    KloosterError,
)
from .gauss import (
    GaussSumRequest,
    gauss_sum_closed,
    kloosterman_gl,
    q_binomial,
)
from .gf3r import FieldContext, field_create, load_modulus_config
from .moments import (
    MomentReport,
    PlessCheck,
    pless_check,
    recursive_moments,
    sk_recursive_chain,
    verify_report,
)
from .ogroups import (
    GroupId,
    TraceHistogram,
    enumerate_group,
    group_order,
    histogram_closed_form,
    o_minus_order,
    so_minus_order,
)

__version__ = "0.1.0"
