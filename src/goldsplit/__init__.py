"""Golden-ratio primal-dual splitting with adaptive stepsizes.

Solves min_x f(x) + g(Kx) + h(x) for proximable f, g, a linear operator K
and a smooth h, via a family of primal-dual schemes whose stepsizes adapt
to local operator and curvature ratios. Ships benchmark generators
(sparse regression, grid-graph recovery, TV inpainting), convergence
diagnostics and a CLI (``goldsplit generate|run|verify``).
"""

from .errors import (
    ConfigError,
    ConstructionError,
    ContractError,
    DataError,
    DimensionError,
    GoldsplitError,
    InsufficientDataError,
    NumericAbort,
    ParameterError,
    ParseError,
    StepsizeWarning,
)
from .linops import (
    CsrOperator,
    DenseOperator,
    DiscreteGradient2D,
    FirstDifference,
    GridIncidence,
    IdentityOperator,
    LinearOperator,
    Shape,
    csr_from_triplets,
    estimate_operator_norm,
    graph_laplacian,
    operator_norm,
)
from .metrics import (
    IterationTrace,
    constraint_violation,
    lagrangian_gap,
    linear_rate_fit,
    loglog_slope,
    objective,
    psnr,
)
from .problems import (
    GenSpec,
    ProblemInstance,
    build_logistic,
    conjugate_gradient_solve,
    gen_fused_lasso,
    gen_graphnet,
    gen_inpainting,
    gen_lasso,
    gen_strongly_convex,
    generate_instance,
    load_instance,
    parse_libsvm,
    read_pgm,
    save_instance,
    synthetic_blocks_image,
    write_libsvm,
    write_pgm,
)
from .prox import (
    GroupL21Prox,
    L1Prox,
    LeastSquares,
    Logistic,
    MaskedLeastSquares,
    ProxOracle,
    QuadraticRidge,
    SmoothOracle,
    SquaredL2Prox,
    SumSmooth,
    ZeroProx,
    ZeroSmooth,
    moreau_conjugate_prox,
    prox_group_l21,
    prox_l1,
    prox_sq_l2,
)
from .solvers import (
    ALGORITHM_NAMES,
    GOLDEN,
    RunSummary,
    SolverConfig,
    SolverState,
    aegrpda_tau_update,
    config_violations,
    eta_bound,
    init_state,
    local_lipschitz,
    pgrpda_mu_bound,
    pgrpda_tau_update,
    run_solver,
    validate_config,
)

__version__ = "0.1.0"
