"""Quadrinomial families 1 + kappa(z +/- z^(N-1)) +/- z^N: unit-circle zero
criteria, endpoint factorizations through Chebyshev zeros, the trinomial
stability domain, and the associated univalent polynomial families.
"""

from .chebyshev import (
    BracketFailure,
    ChebRootList,
    positive_roots_U,
    positive_roots_U_prime,
)
from .families import (
    FactoredForm,
    NotALimitCase,
    ParityMismatch,
    QuadSpec,
    build_quadrinomial,
    circle_criterion,
    cusp_angles,
    factorize_limit_case,
    kappa_limits,
    verify_criterion,
    verify_factorization,
)
from .polycore import (
    CircleCounts,
    NoConvergence,
    RealPoly,
    Root,
    RootSet,
    classify_roots,
    find_roots,
    self_reciprocal_sign,
)
from .stability import (
    CurveSet,
    boundary_point,
    cohn_on_circle,
    corner_point,
    quadrinomial_derivative_line,
    stability_boundary,
    trinomial,
    trinomial_in_disk,
)
from .univalent import (
    BoundaryImage,
    F_family,
    NormalizedPoly,
    WChecks,
    alexander,
    alexander_derivative_factored,
    boundary_image,
    fejer,
    fejer_derivative_factored,
    phi_k,
    quasi_extremal_W,
    quasi_extremal_checks,
    simple_curve_scan,
    suffridge_membership,
    suffridge_transform,
    tilde_p,
)

__version__ = "0.1.0"
