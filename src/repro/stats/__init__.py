"""Statistics substrate: t-tests and treatment effects.

The t distribution itself is implemented from scratch in
:mod:`repro.stats.distributions` and validated against scipy in the tests.
"""

from repro.stats.distributions import (
    regularized_incomplete_beta,
    student_t_cdf,
    student_t_sf,
)
from repro.stats.treatment import (
    TreatmentEffect,
    before_after_effect,
    difference_in_differences,
    paired_effect,
)
from repro.stats.ttest import (
    TTestResult,
    one_sample_t_test,
    students_t_test,
    welch_t_test,
)

__all__ = [
    "regularized_incomplete_beta",
    "student_t_cdf",
    "student_t_sf",
    "TreatmentEffect",
    "before_after_effect",
    "difference_in_differences",
    "paired_effect",
    "TTestResult",
    "one_sample_t_test",
    "students_t_test",
    "welch_t_test",
]
