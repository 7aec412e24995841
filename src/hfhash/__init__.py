"""256-bit iterated hash whose round function evaluates a system of 32
quadratic Boolean polynomials in 64 variables, plus the tooling to
inspect, verify and measure it."""

from .anf import (
    NUM_VARS,
    SYSTEM_SIZE,
    PolynomialSyntaxError,
)
from .core import (
    CANONICAL_LAYOUT,
    IV,
    ROUND_CONSTANTS,
    TEST_VECTORS,
    Digest,
    Hasher,
    HfParams,
    LayoutConfig,
    LayoutError,
    SelfTestReport,
    default_params,
    hash_bytes,
    params_with,
    self_test,
)
from .evaluator import (
    CompiledSystem,
    TermSumEvaluator,
    compile_system,
    eval_batch_bitsliced,
)
from .system import (
    ASSET_ENV_VAR,
    AssetError,
    PolynomialSystem,
    SystemFormatError,
    load_default_system,
    load_system,
)

__version__ = "1.0.0"

__all__ = [
    "ASSET_ENV_VAR",
    "AssetError",
    "CANONICAL_LAYOUT",
    "CompiledSystem",
    "Digest",
    "Hasher",
    "HfParams",
    "IV",
    "LayoutConfig",
    "LayoutError",
    "NUM_VARS",
    "PolynomialSyntaxError",
    "PolynomialSystem",
    "ROUND_CONSTANTS",
    "SYSTEM_SIZE",
    "SelfTestReport",
    "SystemFormatError",
    "TEST_VECTORS",
    "TermSumEvaluator",
    "compile_system",
    "default_params",
    "eval_batch_bitsliced",
    "hash_bytes",
    "load_default_system",
    "load_system",
    "params_with",
    "self_test",
    "__version__",
]
