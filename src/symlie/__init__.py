"""symlie: exact symmetric-function computations for Lie-type families.

Everything runs in the power-sum basis over exact rationals, except the
product scans, which expand in the Schur basis over the integers: partitions
and divisor arithmetic, basis conversions through symmetric-group characters,
plethysm of truncated series, the representation families generated by
divisor weights, and a catalog of exactly-checkable identities with
Schur-positivity scans.
"""

from .partitions import (
    EMPTY,
    Partition,
    PrimeSet,
    divisors,
    is_prime,
    moebius,
    partitions_of,
    totient,
    z_of,
)
from .symfunc import (
    SchurExpansion,
    SymFunc,
    character,
    e_of,
    h_of,
    is_schur_positive,
    p_of,
    s_of,
    syt_maj_distribution,
    to_schur,
)
from .plethysm import (
    Series,
    alt_omega,
    e_series,
    ext_power_layers,
    ext_powers,
    ext_powers_signed,
    graded_product_series,
    h_series,
    higher_module,
    p1_series,
    pleth,
    pleth_homog,
    pleth_inverse,
    pleth_p,
    product_series,
    product_slice,
    product_slice_schur,
    sym_power_layers,
    sym_powers,
    sym_powers_signed,
)
from .families import (
    DivisorWeight,
    MOEBIUS,
    PartSet,
    TOTIENT,
    conj,
    conj_series,
    exponent_eval,
    exponent_poly,
    family_series,
    foulkes,
    foulkes_series,
    from_divisor_weight,
    lie,
    lie_primes,
    lie_primes_bar,
    lie_primes_bar_series,
    lie_primes_series,
    lie_series,
    part_family,
    part_family_ext,
    part_family_ext_series,
    part_family_series,
    part_family_via_lie,
)
from .verify import (
    BudgetError,
    PositivityReport,
    ScanVerdict,
    UnknownIdentityError,
    VerifyReport,
    hook_content_check,
    lifting_check,
    list_identities,
    scan_families,
    scan_positivity,
    verify,
)

__version__ = "0.1.0"
