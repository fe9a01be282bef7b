"""Exact window densities for modules over integral group rings of concrete
amenable groups: mean rank, von Neumann kernel density, dual-restriction
rank, and a desk-scale metric mean dimension estimator."""

from .errors import BudgetExceededError, FolrankError, InputError, UnsupportedGroupError
from .exactla import (
    RankCertificate,
    SparseIntMatrix,
    bareiss_rank,
    rank_q,
)
from .groupring import RingElem, RingMatrix, WindowMatrix, right_window_matrix, window_matrix
from .groups import (
    FolnerSet,
    GroupSpec,
    boundary_ratio,
    finite_cyclic,
    finite_times_zd,
    folner_set,
    heisenberg,
    inverse_set,
    translate_set,
    zd,
)
from .mmdim import (
    PackingReport,
    SolenoidBoxPoint,
    mmdim_estimate,
    separated_lower_count,
    separated_upper_bound,
    theta,
    theta_pseudometric,
)
from .ranks import (
    DensitySeries,
    ModulePresentation,
    RationalitySnap,
    StabilizedDim,
    erank_dual_restriction_dim,
    erank_of_presentation,
    generic_rank_laurent,
    mrank_of_presentation,
    oracle_value,
    quotient_span_rank,
    rationality_snap,
    regular_rep_kernel,
    vnd_of_presentation,
)

__version__ = "0.1.0"
