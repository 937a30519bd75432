"""Model heat kernels and Morse bounds for Hermitian curvature pencils.

The library evaluates the closed-form objects attached to a pointwise
pencil M(eta) = curvature - 2*eta*levi: guarded spectral scalars, the
degree-q density integrand and its eta-integral, oscillator and group
heat kernels, exact Morse-type curvature integrals, and a set of
independent brute-force oracles used to validate all of the above.
"""

from .density import (
    CurvaturePoint,
    DecayReport,
    curvature_point,
    density_diagonal,
    density_integrand,
    limit_integrand,
    tail_certificate,
    tail_decay,
    y_condition,
)
from .errors import (
    BoundaryContamination,
    CrheatError,
    DivergentIntegral,
    FileFormatError,
    NonFinite,
    NonHermitian,
    NonRigidTruncation,
)
from .exterior import FormEndomorphism, MultiIndexBasis, basis, exp_endo, exterior_power_matrix, omega_endomorphism
from .files import load_descriptor, load_point, save_descriptor, save_point
from .heisenberg import (
    HeisenbergPoint,
    KernelValue,
    boxeta_kernel,
    heisenberg_heat_kernel,
    heisenberg_kernel_batch,
    mehler_kernel,
)
from .hermitian import (
    EtaPencil,
    HermitianForm,
    bose_ratio,
    eig_hermitian,
    exp_neg,
    make_pencil,
    matfun,
    pencil_det_poly,
    pencil_real_roots,
    sinh_ratio,
    tanh_ratio,
)
from .morse import (
    Divergent,
    EtaPartition,
    ManifoldDescriptor,
    MorseReport,
    heat_trace,
    morse_global,
    morse_local,
    rx_partition,
)
from .oracles import (
    GridSpec,
    ResidualReport,
    box_eta_applier,
    fiber_kernel_apply,
    heat_residual_check,
    pde_evolve,
    reference_quadrature,
    scaled_laplacian_applier,
    semigroup_check,
)
from .quadrature import integrate_adaptive

__version__ = "0.1.0"

__all__ = [
    "BoundaryContamination",
    "CrheatError",
    "CurvaturePoint",
    "DecayReport",
    "Divergent",
    "DivergentIntegral",
    "EtaPartition",
    "EtaPencil",
    "FileFormatError",
    "FormEndomorphism",
    "GridSpec",
    "HeisenbergPoint",
    "HermitianForm",
    "KernelValue",
    "ManifoldDescriptor",
    "MorseReport",
    "MultiIndexBasis",
    "NonFinite",
    "NonHermitian",
    "NonRigidTruncation",
    "ResidualReport",
    "basis",
    "bose_ratio",
    "box_eta_applier",
    "boxeta_kernel",
    "curvature_point",
    "density_diagonal",
    "density_integrand",
    "eig_hermitian",
    "exp_endo",
    "exp_neg",
    "exterior_power_matrix",
    "fiber_kernel_apply",
    "heat_residual_check",
    "heat_trace",
    "heisenberg_heat_kernel",
    "heisenberg_kernel_batch",
    "integrate_adaptive",
    "limit_integrand",
    "load_descriptor",
    "load_point",
    "make_pencil",
    "matfun",
    "mehler_kernel",
    "morse_global",
    "morse_local",
    "omega_endomorphism",
    "pde_evolve",
    "pencil_det_poly",
    "pencil_real_roots",
    "reference_quadrature",
    "rx_partition",
    "save_descriptor",
    "save_point",
    "scaled_laplacian_applier",
    "semigroup_check",
    "sinh_ratio",
    "tail_certificate",
    "tail_decay",
    "tanh_ratio",
    "y_condition",
]
