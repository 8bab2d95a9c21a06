"""BFV-style homomorphic-encryption backend for private MACs.

This package is the "other side" of the paper's design space: where
:mod:`repro.gc` garbles a boolean MAC circuit, :mod:`repro.he`
evaluates the same `Q(total, frac)` fixed-point dot product under a
lattice encryption of the query vector.  The server's model row stays
in plaintext (it belongs to the server), so the whole protocol needs
only plaintext-ciphertext multiplication — no relinearisation keys,
no modulus switching — which keeps the pure-python implementation
small enough to audit while remaining a *functional* scheme: the
ciphertexts that cross the wire are genuine RLWE samples.

Layout:

- :mod:`repro.he.ntt`     — prime search + exact negacyclic
  number-theoretic transform over ``Z_q[x]/(x^N + 1)``, computed in a
  residue number system of word-sized primes with numpy butterflies.
- :mod:`repro.he.params`  — deterministic parameter derivation from a
  :class:`repro.fixedpoint.FixedPointFormat` and workload shape; both
  endpoints recompute the same parameters and compare (the HE analogue
  of the GC circuit-fingerprint check).
- :mod:`repro.he.bfv`     — secret-key BFV: seeded keygen/encrypt,
  decrypt, ciphertext (de)serialisation, plaintext multiplication,
  exact noise-budget measurement.
- :mod:`repro.he.encoder` — fixed-point <-> plaintext-polynomial
  packing (single row and batched whole-matrix SIMD packing).
- :mod:`repro.he.mac`     — server/client session objects speaking the
  ``he.query``/``he.result`` wire exchange.
"""

from repro.he.params import HEParams, params_for_workload
from repro.he.bfv import BFVContext, Ciphertext, SecretKey
from repro.he.mac import (
    HE_QUERY_TAG,
    HE_RESULT_TAG,
    HEMacClient,
    HEMacServer,
)

__all__ = [
    "HEParams",
    "params_for_workload",
    "BFVContext",
    "Ciphertext",
    "SecretKey",
    "HEMacClient",
    "HEMacServer",
    "HE_QUERY_TAG",
    "HE_RESULT_TAG",
]
