"""Imprecise floating point arithmetic units — the paper's core contribution.

This subpackage contains behavioral models of every unit in Table 1 plus the
accuracy-configurable Mitchell multiplier, the configuration object that
selects which units run imprecisely, and the instrumented
:class:`~repro.core.context.ArithmeticContext` the application kernels use.
"""

from .adder import DEFAULT_THRESHOLD, imprecise_add, imprecise_subtract, max_threshold
from .backends import (
    backend_names,
    default_backend_name,
    get_backend,
)
from .backends.base import ComputeBackend
from .config import (
    CONFIG_FAMILIES,
    IHWConfig,
    MULTIPLIER_MODES,
    SFU_MODES,
    UNIT_NAMES,
    config_family,
    parse_config_spec,
)
from .configurable import (
    FULL_PATH_MAX_ERROR,
    LOG_PATH_MAX_ERROR,
    MultiplierConfig,
    configurable_multiply,
)
from .context import ArithmeticContext, FPU_OPS, OP_UNIT_CLASS, SFU_OPS
from .dualmode import DualModeMultiplier
from .floatops import (
    BINARY16,
    BINARY32,
    BINARY64,
    FloatFormat,
    compose,
    decompose,
    flush_subnormals,
    format_for_dtype,
    is_special,
    truncate_mantissa,
)
from .fma import imprecise_fma
from .mitchell import MITCHELL_MAX_ERROR, mitchell_mantissa_product, mitchell_multiply_int
from .multiplier import IMPRECISE_MULTIPLY_MAX_ERROR, imprecise_multiply
from .quadratic import (
    QUADRATIC_LOG2_COEFFS,
    QUADRATIC_LOG2_MAX_ABS_ERROR,
    QUADRATIC_RCP_COEFFS,
    QUADRATIC_RCP_MAX_ERROR,
    QUADRATIC_RSQRT_COEFFS,
    QUADRATIC_RSQRT_MAX_ERROR,
    quadratic_log2,
    quadratic_reciprocal,
    quadratic_rsqrt,
    quadratic_sqrt,
)
from .special import (
    LOG2_COEFFS,
    RECIPROCAL_COEFFS,
    RECIPROCAL_MAX_ERROR,
    RSQRT_COEFFS,
    RSQRT_MAX_ERROR,
    SQRT_MAX_ERROR,
    imprecise_divide,
    imprecise_log2,
    imprecise_reciprocal,
    imprecise_rsqrt,
    imprecise_sqrt,
)
from .truncation import round_mantissa, truncated_multiply, truncation_max_error

__all__ = [
    "ArithmeticContext",
    "CONFIG_FAMILIES",
    "config_family",
    "parse_config_spec",
    "BINARY16",
    "BINARY32",
    "BINARY64",
    "ComputeBackend",
    "DEFAULT_THRESHOLD",
    "DualModeMultiplier",
    "FPU_OPS",
    "FULL_PATH_MAX_ERROR",
    "FloatFormat",
    "IHWConfig",
    "IMPRECISE_MULTIPLY_MAX_ERROR",
    "LOG2_COEFFS",
    "LOG_PATH_MAX_ERROR",
    "MITCHELL_MAX_ERROR",
    "MULTIPLIER_MODES",
    "MultiplierConfig",
    "OP_UNIT_CLASS",
    "QUADRATIC_LOG2_COEFFS",
    "QUADRATIC_LOG2_MAX_ABS_ERROR",
    "QUADRATIC_RCP_COEFFS",
    "QUADRATIC_RCP_MAX_ERROR",
    "QUADRATIC_RSQRT_COEFFS",
    "QUADRATIC_RSQRT_MAX_ERROR",
    "RECIPROCAL_COEFFS",
    "RECIPROCAL_MAX_ERROR",
    "RSQRT_COEFFS",
    "RSQRT_MAX_ERROR",
    "SFU_MODES",
    "SFU_OPS",
    "SQRT_MAX_ERROR",
    "UNIT_NAMES",
    "backend_names",
    "compose",
    "configurable_multiply",
    "decompose",
    "default_backend_name",
    "flush_subnormals",
    "format_for_dtype",
    "get_backend",
    "imprecise_add",
    "imprecise_divide",
    "imprecise_fma",
    "imprecise_log2",
    "imprecise_multiply",
    "imprecise_reciprocal",
    "imprecise_rsqrt",
    "imprecise_sqrt",
    "imprecise_subtract",
    "is_special",
    "max_threshold",
    "mitchell_mantissa_product",
    "mitchell_multiply_int",
    "quadratic_log2",
    "quadratic_reciprocal",
    "quadratic_rsqrt",
    "quadratic_sqrt",
    "round_mantissa",
    "truncate_mantissa",
    "truncated_multiply",
    "truncation_max_error",
]
