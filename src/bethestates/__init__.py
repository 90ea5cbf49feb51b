"""Exact Bethe-state counting and q-series identity checks for generalized
XXX and XXZ spin chains with rational anisotropy."""

from .bijection import PairImage, PairingReport, forget, pair, verify_pairing
from .configs import (Partition, XXZConfig, count_xxx, count_xxz_general,
                      enumerate_lambda, enumerate_xxx_configs, enumerate_xxx_rigged,
                      enumerate_xxz_int, xxx_vacancies, xxx_vacancy, xxz_vacancy_int)
from .identities import (IdentityReport, bosonic_sum, bosonic_sum_collapsed,
                         check_identity, fermionic_sum, gordon_andrews_products,
                         gordon_andrews_sum, kernel_poly, kernel_sum, level_series,
                         q_count)
from .oracle import (CompletenessReport, check_completeness_xxx,
                     check_completeness_xxz, sl2_multiplicity, weight_count)
from .qalg import QPolynomial, QSeries, gauss_binomial, pochhammer, product_expand
from .spectral import (ChainSpec, RationalMatrix, coupling_inverse, coupling_matrix,
                       offset_vector, parity_matrix, vacancy_linear_form)
from .tsdata import (TSData, admissible_spin, cf_remainder, compute_ts, phase_shift,
                     string_length, string_position, zone)
from .util import ParseError, PreconditionError

__version__ = "0.1.0"
