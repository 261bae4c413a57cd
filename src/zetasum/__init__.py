"""High-precision evaluation of gamma - ln(4 pi) + 2 by independent
routes (binary-digit series, fractional-part integral, digamma series,
zeta-zero sums), with certified tail bounds throughout."""

from .numerics import (
    DEFAULT_PRECISION,
    DomainError,
    ExtendedReal,
    digamma,
    ln_gamma,
    polygamma,
    target_constant,
)
from .digit_series import (
    DigitCounts,
    SeriesResult,
    combined_pochti,
    digit_counts,
    gamma_addison,
    gamma_paired,
    gamma_vacca_alternating,
    log2_series,
    log2pi_dual,
    log4pi_alternating,
    log4pi_paired,
    main_series,
    pochtipochti_series,
)
from .special_series import (
    StieltjesRequest,
    p01_integral,
    p01_term,
    p12_closed_form,
    p12_series,
    p12_term,
    stieltjes,
)
from .zeta_zeros import (
    MissedZeroError,
    ZeroTable,
    ZeroTableError,
    find_zeros,
    hardy_z,
    load_zero_table,
    write_zero_table,
    zero_count_check,
)
from .criteria import (
    IdentityReport,
    gn_multisum,
    li_lambda,
    verify_identity,
    zero_sum_p0,
)

__version__ = "1.0.0"
