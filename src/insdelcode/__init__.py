"""Linear and affine error-correcting codes for insertion/deletion channels."""

from .affine_insdel import AffineCode, affine_params, parse_blocks
from .bounds import entropy, existence_rate, half_plotkin, half_singleton
from .editops import (EditScript, edit_distance, insdel_channel, lcs,
                      min_pairwise_edit_distance)
from .errors import (CapacityError, ConstructionFailure, DecodeFailure,
                     InsdelError, InvalidSpecError, ParameterError, UsageError)
from .gf import BinaryField, Field, PrimeField, field_from_json
from .hamming_ecc import (ConcatenatedBinaryCode, LinearCode,
                          concatenated_binary_code, random_generator,
                          random_linear_code, rs_build, systematic_transform)
from .linear_insdel import (InsdelCode, Matching, SystematicInsdelCode,
                            build_explicit, build_monte_carlo, cost_and_obj,
                            match_dp)
from .prg import PrgSpec, prg_bit, prg_generate, prg_verify_marginals
from .separator import (SeparatorSequence, construct_explicit, local_check,
                        max_undesired, sample_separator, undesired_count)
from .sync_string import (IndexAssignment, SyncString, construct_sync_string,
                          index_recovery, verify_eta)

__version__ = "0.1.0"
