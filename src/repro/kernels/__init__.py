"""Fused elementwise kernels (the vectorizing kernel compiler).

The paper's Figure 3 shows where interpreted MATLAB time goes: one boxed
library call per elementwise operator, each allocating a temporary.  Our
JIT removed that overhead for *scalars* (raw host representation); this
package removes it for *arrays* by collapsing whole elementwise expression
trees — ``+ - .* ./ .^``, comparisons, logical ops and shape-preserving
unary builtins — into single generated-Python NumPy kernels with no
intermediate ``MxArray`` boxing.

Layout:

* :mod:`repro.kernels.fusion` — tree matchers.  ``match_typed`` walks a
  type-annotated expression after inference (the code-selection walk,
  for both code generators);
  ``match_dynamic`` is the structural matcher behind the interpreter's
  fast path (descriptors resolved per call).
* :mod:`repro.kernels.codegen` — turns a matched tree into Python source
  that replays :mod:`repro.runtime.elementwise` semantics bit-for-bit.
* :mod:`repro.kernels.cache` — the process-wide content-addressed
  :class:`KernelCache` (SHA-256 of tree structure + operand descriptors);
  compiled functions persist across sessions and, via
  ``CompiledObject.kernel_sources``, through the disk-backed
  :class:`~repro.repository.cache.RepositoryCache`.
"""

from repro.kernels.cache import KERNEL_CACHE, CompiledKernel, KernelCache
from repro.kernels.fusion import (
    DESC_BOXED,
    DESC_SCALAR,
    DynamicPlan,
    FUSIBLE_UNARY_BUILTINS,
    Leaf,
    Node,
    TypedPlan,
    decode,
    match_dynamic,
    match_typed,
)
from repro.kernels.codegen import generate_source

__all__ = [
    "KERNEL_CACHE",
    "KernelCache",
    "CompiledKernel",
    "DESC_BOXED",
    "DESC_SCALAR",
    "DynamicPlan",
    "FUSIBLE_UNARY_BUILTINS",
    "Leaf",
    "Node",
    "TypedPlan",
    "decode",
    "match_dynamic",
    "match_typed",
    "generate_source",
]
