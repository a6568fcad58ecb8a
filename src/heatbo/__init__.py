"""heatbo: combinatorial Bayesian optimization with heat kernels on Hamming graphs.

The package is organized around one fact: on product spaces of finite
categories, the diffusion (heat) kernel of the Hamming graph has a simple
closed form, and the widely used categorical kernels are equal to it up to
scale.  :mod:`heatbo.spectral` keeps the slow eigendecomposition route as an
executable oracle for that equivalence, :mod:`heatbo.kernels` provides the
fast closed forms and their generalizations, :mod:`heatbo.gp` and
:mod:`heatbo.bo` build the surrogate-plus-acquisition pipeline, and
:mod:`heatbo.benchmarks` and :mod:`heatbo.runner` supply objectives and the
experiment harness.
"""

from . import benchmarks, bo, gp, kernels, runner, space, spectral
from .bo import GaConfig, TrustRegionConfig, expected_improvement, run_bo
from .gp import OptimizerConfig, TrainingSet, fit
from .kernels import KernelSpec, default_spec, gram
from .space import SearchSpace, Relocation, hamming_distance, sample_relocation

__version__ = "0.1.0"

__all__ = [
    "space",
    "spectral",
    "kernels",
    "gp",
    "bo",
    "benchmarks",
    "runner",
    "SearchSpace",
    "Relocation",
    "hamming_distance",
    "sample_relocation",
    "KernelSpec",
    "default_spec",
    "gram",
    "TrainingSet",
    "OptimizerConfig",
    "fit",
    "GaConfig",
    "TrustRegionConfig",
    "expected_improvement",
    "run_bo",
    "__version__",
]
