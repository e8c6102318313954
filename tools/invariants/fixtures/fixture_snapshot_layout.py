# invariant-scope: snapshot-layout
"""Seeded layout module for the snapshot-layout rule (test fixture)."""

import struct

MAGIC = b"FXTR"
FORMAT_VERSION = 1
SUPPORTED_VERSIONS = (1,)
_ARRAY_NAMES_V1 = ("alpha", "beta")
_REACH_ARRAY_NAMES = ("delta",)
_U32 = struct.Struct("<I")
