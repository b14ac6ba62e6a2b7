"""Software codec for the binary (63, 51) two-error-correcting block code.

Encoder (shift-register and long-division), bounded-distance decoder
(syndromes, inversion-less locator, Chien search), the shortened (31, 19)
variant, a deterministic channel simulator, and an independent brute-force
decoding oracle.  See the individual modules for the bit conventions.
"""

from .gf64 import (
    GfTables,
    build_tables,
    gf_mul_mse,
    gf_mul_table,
)
from .encoder import (
    CODEWORD_BITS,
    GENERATOR_POLY,
    MESSAGE_BITS,
    PARITY_BITS,
    SHORT_CODEWORD_BITS,
    SHORT_PAYLOAD_BITS,
    compute_generator,
    encode,
    encode_lfsr,
    encode_polydiv_oracle,
    encode_shortened,
)
from .decoder import (
    DecodeOutcome,
    DecodeStatus,
    ErrorLocator,
    SyndromeSet,
    apply_correction,
    chien_search,
    compute_syndromes,
    decode,
    decode_shortened,
    solve_locator,
)
from .channel_sim import (
    BerReport,
    SplitMix64,
    random_error_pattern,
    run_ber_experiment,
    substream_seed,
)
from .reference_oracle import (
    SyndromeTable,
    brute_force_decode,
    build_syndrome_table,
    syndrome_key,
    verify_syndrome_distinctness,
)

__version__ = "0.1.0"
