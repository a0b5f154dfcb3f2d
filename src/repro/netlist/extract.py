"""Scalable structural extraction: DAG-sized circuits -> TSG.

``circuits.extraction.extract_signal_graph`` is the oracle: it proves
semi-modularity by exhaustive state-space exploration before folding
one serialised behaviour.  The state count is exponential in the
circuit's concurrency, so the oracle tops out around a few dozen
gates.  ``structural_extract`` runs the same serialised simulation and
the same fold, and replaces the exhaustive proof by the simulator's
check on the trace: the run fails the moment any firing disables
another excited gate.  That inspects one interleaving rather than all
of them.
"""

from __future__ import annotations

from ..circuits.extraction import fold_trace, simulate_untimed
from ..circuits.netlist import Netlist
from ..core.signal_graph import TimedSignalGraph


def structural_extract(
    netlist: Netlist, max_transitions: int = 1_000_000
) -> TimedSignalGraph:
    """Netlist -> Timed Signal Graph without exhaustive exploration."""
    return fold_trace(simulate_untimed(netlist, max_transitions=max_transitions))
