"""HGEN top level: ISDL description → hardware model + physical estimates.

Runs the full paper §4 pipeline: node extraction, the resource-sharing
matrix, maximal-clique allocation (Fig. 5), datapath construction with
generated decode logic (§4.2), Verilog emission, and the technology-library
estimates that stand in for the Synopsys/LSI-10K flow.  The result carries
everything Table 2 reports: cycle length (ns), lines of Verilog, die size
(grid cells), and synthesis time (s).
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..encoding.signature import SignatureTable
from ..isdl import ast, semantics
from ..isdl.fingerprint import FingerprintDelta
from ..tech.model import TechModel
from .area import AreaReport, estimate_area
from .cliques import partition_components, verify_cliques
from .datapath import build_datapath
from .netlist import Netlist
from .nodes import HwNode, NodeId, extract_nodes, extract_nodes_incremental
from .sharing import SharingAnalysis, SharingRecord, adjacency_incremental
from .timing import TimingReport, estimate_timing
from .verilog import count_lines, emit_verilog


@dataclass
class HardwareModel:
    """The output of one HGEN run."""

    desc: ast.Description
    netlist: Netlist
    verilog: str
    nodes: List[HwNode]
    cliques: List[List[int]]
    allocation: Optional[Dict[NodeId, int]]
    area: AreaReport
    timing: TimingReport
    synthesis_seconds: float
    shared: bool
    #: Sharing-pass intermediates kept for incremental child synthesis.
    sharing_record: Optional[SharingRecord] = None
    #: Per-unit reuse counts when this model was built incrementally.
    reuse_counts: Dict[str, int] = field(default_factory=dict)
    #: Technology the metric properties are projected into (None =
    #: the calibrated baseline process, bit-identical to pre-tech runs).
    tech: Optional[TechModel] = None

    # -- Table 2 metrics -----------------------------------------------

    @property
    def cycle_ns(self) -> float:
        tech = self.tech
        if tech is not None:
            return self.timing.cycle_ns * tech.delay_scale
        return self.timing.cycle_ns

    @property
    def verilog_lines(self) -> int:
        return count_lines(self.verilog)

    @property
    def die_size(self) -> float:
        tech = self.tech
        if tech is not None:
            return self.area.total * tech.area_scale
        return self.area.total

    @property
    def core_die_size(self) -> float:
        """Die size excluding the instruction/data memory macros."""
        tech = self.tech
        if tech is not None:
            return self.area.core_total * tech.area_scale
        return self.area.core_total

    @property
    def clock_mhz(self) -> float:
        return 1000.0 / self.cycle_ns

    def with_tech(self, tech: Optional[TechModel]) -> "HardwareModel":
        """A view of this model projected into *tech* — no re-synthesis.

        The stored netlist, area, and timing reports stay the baseline
        ones (cell counts and logic structure are technology
        independent); only the metric properties scale.  Returns
        ``self`` when *tech* is ``None`` or already bound; re-projecting
        a model bound to a *different* technology is refused — project
        from the baseline model instead, so scale factors never stack.
        """
        bound = self.tech
        if tech is None or tech is bound:
            return self
        if bound is not None:
            raise ValueError(
                f"model already projected into {bound.name};"
                f" re-project from the baseline model, not {tech.name}"
            )
        return dataclasses.replace(self, tech=tech)

    @property
    def shared_unit_count(self) -> int:
        """Physical functional-unit instances after sharing."""
        return len(
            {
                instance
                for instance, sites in self.netlist.unit_instances().items()
                if sites[0].unit_class not in ("glue", "wire")
            }
        )

    def summary(self) -> str:
        return (
            f"{self.desc.name}: cycle {self.cycle_ns:.1f} ns"
            f" ({self.clock_mhz:.0f} MHz), {self.verilog_lines} lines of"
            f" Verilog, die {self.die_size:,.0f} grid cells,"
            f" synthesis {self.synthesis_seconds:.2f} s"
        )


def synthesize(
    desc: ast.Description,
    share: bool = True,
    use_constraints: bool = True,
    table: Optional[SignatureTable] = None,
    validate: bool = True,
    reuse_from: Optional[Tuple[HardwareModel, FingerprintDelta]] = None,
    tech: Optional[TechModel] = None,
) -> HardwareModel:
    """Run HGEN on a description.

    *share* toggles the resource-sharing pass (the naive scheme of paper
    §4.1.1 when off); *use_constraints* controls whether constraints may
    prove cross-field exclusion (paper rule 4's refinement).

    *tech* projects the metric properties (cycle, die size, clock) into
    a scaled technology; synthesis itself is technology independent, so
    the default ``tech=None`` is bit-identical to earlier releases and a
    built model can be re-projected cheaply via :meth:`with_tech`.

    *reuse_from* is ``(parent_model, delta)`` for incremental synthesis
    off a near-identical parent: per-operation node groups, compatibility
    matrix entries, and per-component clique partitions are carried over
    where the delta proves them unchanged.  The parent model must have
    been built with the same *share*/*use_constraints* flags.  The result
    is equal to a cold build by construction — every reuse predicate is
    "the inputs this unit reads are byte-identical" — and the datapath,
    Verilog, and estimates are always re-derived (they are cheap and
    globally numbered).
    """
    with obs.span("hgen.synthesize", desc=desc.name, share=share):
        if validate:
            semantics.check(desc)
        start = time.perf_counter()
        table = table or SignatureTable(desc)
        parent, delta = reuse_from if reuse_from is not None else (None, None)
        reuse_counts: Dict[str, int] = {}
        with obs.span("hgen.nodes"):
            if parent is not None:
                nodes, ops_reused, ops_rebuilt = extract_nodes_incremental(
                    desc, parent.nodes, delta
                )
                reuse_counts["node_ops_reused"] = ops_reused
                reuse_counts["node_ops_rebuilt"] = ops_rebuilt
            else:
                nodes = extract_nodes(desc)
        allocation: Optional[Dict[NodeId, int]] = None
        cliques: List[List[int]] = [[i] for i in range(len(nodes))]
        record: Optional[SharingRecord] = None
        if share:
            with obs.span("hgen.sharing"):
                analysis = SharingAnalysis(desc, nodes, use_constraints)
                parent_record = (
                    parent.sharing_record if parent is not None else None
                )
                if parent_record is not None:
                    adjacency, copied, computed = adjacency_incremental(
                        analysis,
                        parent_record,
                        not delta.constraints_changed,
                    )
                    reuse_counts["matrix_entries_copied"] = copied
                    reuse_counts["matrix_entries_computed"] = computed
                else:
                    adjacency = analysis.adjacency()
                cliques, partitions, reused_comps, fresh_comps = (
                    partition_components(
                        adjacency,
                        parent_record.partitions if parent_record else None,
                    )
                )
                if parent_record is not None:
                    reuse_counts["components_reused"] = reused_comps
                    reuse_counts["components_partitioned"] = fresh_comps
                verify_cliques(adjacency, cliques)
                record = SharingRecord(
                    nodes=tuple(nodes),
                    adjacency=tuple(frozenset(row) for row in adjacency),
                    partitions=partitions,
                )
            allocation = {}
            for instance, clique in enumerate(cliques):
                for vertex in clique:
                    allocation[nodes[vertex].node_id] = instance
        with obs.span("hgen.datapath"):
            netlist = build_datapath(desc, table, allocation)
        with obs.span("hgen.verilog"):
            verilog = emit_verilog(desc, netlist)
        with obs.span("hgen.estimate"):
            area = estimate_area(desc, netlist)
            timing = estimate_timing(desc, netlist)
        elapsed = time.perf_counter() - start
        obs.add("hgen.syntheses")
    return HardwareModel(
        desc=desc,
        netlist=netlist,
        verilog=verilog,
        nodes=nodes,
        cliques=cliques,
        allocation=allocation,
        area=area,
        timing=timing,
        synthesis_seconds=elapsed,
        shared=share,
        sharing_record=record,
        reuse_counts=reuse_counts,
        tech=tech,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point: ``hgen <description.isdl> [out.v]``."""
    from ..isdl import load_file

    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: hgen <description.isdl> [out.v]")
        return 2
    desc = load_file(argv[0])
    model = synthesize(desc)
    print(model.summary())
    if len(argv) > 1:
        with open(argv[1], "w", encoding="utf-8") as handle:
            handle.write(model.verilog)
        print(f"wrote {model.verilog_lines} lines to {argv[1]}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
