"""Per-cycle wire-value traces and VCD interchange.

Names resolve lazily, so reading a recorded :class:`Trace` does not import
numpy, which only the VCD reader and writer and the array accessors use.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__, {"trace": ("Trace",), "vcd": ("parse_vcd", "write_vcd")}
)

__all__ = ["Trace", "parse_vcd", "write_vcd"]
