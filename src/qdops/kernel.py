"""The polynomial kernel: dense Z[q] arithmetic, pure Python."""

from ._polykernel_py import (
    BACKEND,
    padd,
    pcontent,
    pdiv_exact,
    pgcd,
    pmul,
    pmul_int,
    pneg,
    pnorm,
    psub,
)
