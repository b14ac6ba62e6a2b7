"""The acceptance gate is frozen: test_acceptance.py must stay byte-identical."""

import hashlib
import pathlib

# SHA-256 of tests/test_acceptance.py since criterion 1's generator set
# was corrected.  Any edit to the gate, its imports included, fails here.
ACCEPTANCE_SHA256 = "b31dc650292f049eb827d3093e1e2a96d330a68cf6c2c621b55c5a66cd12051b"


def test_acceptance_file_is_unchanged():
    source = pathlib.Path(__file__).with_name("test_acceptance.py").read_bytes()
    assert hashlib.sha256(source).hexdigest() == ACCEPTANCE_SHA256
