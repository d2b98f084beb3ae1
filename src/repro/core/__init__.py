"""The paper's contribution: fused Im2col-Winograd convolution.

Public entry points:

* :func:`conv2d_im2col_winograd` — the fused Gamma_alpha(n, r) convolution.
* :func:`conv2d_input_grad` / :func:`conv2d_filter_grad` — backward pass.
* :func:`plan_convolution` — algorithm/kernel/boundary planning.
* :func:`winograd_matrices` — exact Toom-Cook transform synthesis.
"""

from .boundary import Segment, plan_width_segments, redundant_fraction, segment_chain
from .erroranalysis import error_amplification, predicted_error_scale, rank_schemes
from .fused import conv2d_im2col_winograd
from .gradients import (
    backward_filter_for_input_grad,
    conv2d_filter_grad,
    conv2d_input_grad,
)
from .kernels import (
    KernelId,
    default_alpha_for_width,
    get_kernel,
    kernels_for_width,
    registered_kernels,
    supported_filter_widths,
)
from .deconv import deconv2d_im2col_winograd
from .ndim import conv1d_im2col_winograd, conv3d_im2col_winograd
from .planner import ConvPlan, plan_convolution
from .reference import conv2d_winograd_reference
from .simplify import paired_rows, pairwise_transform, transform_mul_counts
from .transforms import (
    TransformMatrices,
    max_matrix_magnitude,
    verify_exact,
    winograd_matrices,
    winograd_matrices_exact,
)
from .variants import (
    VariantSpec,
    arithmetic_intensity,
    input_items_per_tile,
    ruse_profitable,
    variant_spec,
)
from .workspace import (
    workspace_explicit_gemm,
    workspace_fft,
    workspace_fused_winograd,
    workspace_implicit_gemm,
    workspace_nonfused_winograd2d,
    workspace_report,
)
from .winograd1d import multiplication_counts, winograd_1d, winograd_1d_batched, winograd_1d_tile

__all__ = [
    "conv2d_im2col_winograd",
    "conv1d_im2col_winograd",
    "conv3d_im2col_winograd",
    "deconv2d_im2col_winograd",
    "conv2d_winograd_reference",
    "conv2d_input_grad",
    "conv2d_filter_grad",
    "backward_filter_for_input_grad",
    "plan_convolution",
    "ConvPlan",
    "Segment",
    "plan_width_segments",
    "segment_chain",
    "redundant_fraction",
    "KernelId",
    "registered_kernels",
    "kernels_for_width",
    "get_kernel",
    "supported_filter_widths",
    "default_alpha_for_width",
    "VariantSpec",
    "variant_spec",
    "arithmetic_intensity",
    "input_items_per_tile",
    "ruse_profitable",
    "TransformMatrices",
    "winograd_matrices",
    "winograd_matrices_exact",
    "verify_exact",
    "max_matrix_magnitude",
    "predicted_error_scale",
    "error_amplification",
    "rank_schemes",
    "winograd_1d",
    "winograd_1d_tile",
    "winograd_1d_batched",
    "multiplication_counts",
    "paired_rows",
    "pairwise_transform",
    "transform_mul_counts",
    "workspace_fused_winograd",
    "workspace_nonfused_winograd2d",
    "workspace_fft",
    "workspace_explicit_gemm",
    "workspace_implicit_gemm",
    "workspace_report",
]
