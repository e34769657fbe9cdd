"""oilab: a desk-scale workbench for the order-interference computational model.

The toolkit covers four layers that plug into each other:

* boolean circuits, the builder that assembles compiled ones, exact
  output-distribution enumeration and the exact total-variation distance
  (``circuits``, ``distributions``),
* sequentially invertible circuit sequences, the statistical-difference
  reduction compiler and gap polarization, both built on the circuit
  builder (``invseq``),
* exact state-vector simulation of order/choice interference oracles and
  the swap test (``qsim``), plus the decision pipeline built on them
  (``solver``),
* an LWE-to-GapCVP lab with exact small-dimension CVP (``lwe``).

Everything is deterministic given an explicit 64-bit seed; see ``seeding``.
"""

__version__ = "0.1.0"
