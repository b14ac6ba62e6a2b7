"""Software codec for the binary (63, 51) two-error-correcting block code.

Encoder (shift-register and long-division), bounded-distance decoder
(syndromes, inversion-less locator, Chien search), the shortened (31, 19)
variant, a deterministic channel simulator, and an independent brute-force
decoding oracle.  See the individual modules for the bit conventions;
import every name from the module that defines it.
"""

# bench/run.py and bench/refs.py read these four references from the
# package itself, so they stay importable here.
from .gf64 import build_tables
from .encoder import encode_polydiv_oracle
from .reference_oracle import brute_force_decode, build_syndrome_table
