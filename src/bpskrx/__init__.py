"""Binary coherent-state discrimination toolkit: error probabilities of the
receivers that tell |alpha> from |-alpha>. The package re-exports nothing;
each name is imported from the module that defines it:

- ``core``: the records ``BinaryEnsemble``, ``DetectorModel`` and
  ``ReceiverResult``, and the errors;
- ``receivers``: the table ``RECEIVERS`` and the receiver evaluators;
- ``optimize``: the root solvers, the squeeze-displace closed form and the
  Gaussian-measurement landscape;
- ``fock`` (number-basis oracle), ``gaussian`` (multimode Gaussian algebra),
  ``montecarlo`` (click simulation), ``sweepio`` (CSV), ``svgplot`` (SVG
  chart) and ``cli`` (the ``bpskrx`` console script).
"""

__version__ = "0.1.0"
