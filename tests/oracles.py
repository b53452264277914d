"""Reference computations the tests compare the package against."""

import numpy as np

from sibglm.sibling import (
    _as_columns,
    _fitted,
    _informative_columns,
    _nonconstant_columns,
    half_sibling,
    three_quarter_sibling,
)


def residual_form_equivalence(y1, y2, x=None) -> tuple[np.ndarray, np.ndarray]:
    """Both algebraic forms of the sibling estimator, for self-testing.

    Returns the direct form (difference of conditional-expectation fits)
    and the residual form (target minus the regression of its centered
    residuals on the auxiliaries' centered residuals). With matched
    intercept-augmented least squares the two agree to rounding error.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = _as_columns(y2)
    ones = np.ones(len(y1))[:, None]
    if x is None:
        lhs = half_sibling(y1, y2)
        base = ones
    else:
        lhs = three_quarter_sibling(x, y1, y2)
        xc = _nonconstant_columns(_as_columns(x))
        base = np.column_stack([ones, xc]) if xc.shape[1] else ones

    y2 = _informative_columns(y2, base)
    r1 = y1 - _fitted(base, y1)
    if y2.shape[1]:
        r2 = np.column_stack(
            [y2[:, j] - _fitted(base, y2[:, j]) for j in range(y2.shape[1])]
        )
        mat = np.column_stack([ones, r2])
    else:
        mat = ones
    rhs = y1 - _fitted(mat, r1)
    return lhs, rhs
