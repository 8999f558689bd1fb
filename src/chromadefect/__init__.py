"""chromadefect: exact computations around quotients of the dual
Steenrod algebra, their Ext charts and May spectral sequences, Margolis
homology freeness tests, formal group law arithmetic, the chromatic
defect table, and the two Adams-Novikov style charts for ko.
"""

__version__ = "0.1.0"


class InputError(ValueError):
    """Input that describes no valid job: a flag, a limit, a prime, a
    module or a subalgebra name.  The CLI maps it to exit code 2; any
    other ValueError is an engine refusing to certify (exit code 3)."""
