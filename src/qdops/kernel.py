"""The polynomial kernel: dense Z[q] arithmetic, pure Python."""

from ._polykernel_py import (
    BACKEND,
    check_degree,
    padd,
    pcontent,
    pdiv_exact,
    pgcd,
    pmul,
    pmul_int,
    pnorm,
)
