"""Per-domain byte accounting — the engine behind Tables 2-5.

"Tables 2, 3, 4 and 5 quantify the amount of data (kilobytes) exchanged
with LG and Samsung ACR destinations across various scenarios."
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .pipeline import AuditPipeline


class VolumeCell:
    """One table cell: KB exchanged with a domain in one scenario."""

    __slots__ = ("domain", "scenario", "kilobytes", "packets")

    def __init__(self, domain: str, scenario: str, kilobytes: float,
                 packets: int) -> None:
        self.domain = domain
        self.scenario = scenario
        self.kilobytes = kilobytes
        self.packets = packets

    @property
    def present(self) -> bool:
        """Tables show '-' for domains not contacted in a scenario."""
        return self.packets > 0

    def render(self) -> str:
        return f"{self.kilobytes:.1f}" if self.present else "-"

    def __repr__(self) -> str:
        return (f"VolumeCell({self.domain}, {self.scenario}, "
                f"{self.render()} KB)")


class VolumeTable:
    """KB-per-domain-per-scenario, as in the paper's appendix tables."""

    def __init__(self, scenarios: List[str]) -> None:
        self.scenarios = scenarios
        self._cells: Dict[str, Dict[str, VolumeCell]] = {}

    def add(self, cell: VolumeCell) -> None:
        self._cells.setdefault(cell.domain, {})[cell.scenario] = cell

    def cell(self, domain: str, scenario: str) -> Optional[VolumeCell]:
        return self._cells.get(domain, {}).get(scenario)

    def kilobytes(self, domain: str, scenario: str) -> float:
        cell = self.cell(domain, scenario)
        return cell.kilobytes if cell else 0.0

    @property
    def domains(self) -> List[str]:
        return sorted(self._cells)

    def row(self, domain: str) -> List[str]:
        return [domain] + [
            (self.cell(domain, s).render()
             if self.cell(domain, s) else "-")
            for s in self.scenarios]

    def rows(self) -> List[List[str]]:
        return [self.row(domain) for domain in self.domains]

    def __repr__(self) -> str:
        return (f"VolumeTable({len(self._cells)} domains x "
                f"{len(self.scenarios)} scenarios)")


def normalize_rotating(domain: str) -> str:
    """Collapse rotating hostnames to the paper's X notation, e.g.
    ``eu-acr4.alphonso.tv`` -> ``eu-acrX.alphonso.tv``."""
    import re
    return re.sub(r"^(eu-acr|tkacr|acr)(\d+)\.",
                  lambda m: f"{m.group(1)}X." if m.group(1) != "acr"
                  else f"acr{m.group(2)}.", domain)


def build_volume_table(pipelines_by_scenario: Dict[str, AuditPipeline],
                       acr_domains_by_scenario: Dict[str, List[str]]
                       ) -> VolumeTable:
    """Assemble one appendix-style table from per-scenario pipelines.

    Rotating LG hostnames are collapsed into the ``X`` notation so one row
    covers every rotation index, exactly like the paper's tables.
    """
    table = VolumeTable(list(pipelines_by_scenario))
    for scenario, pipeline in pipelines_by_scenario.items():
        merged: Dict[str, VolumeCell] = {}
        for domain in acr_domains_by_scenario.get(scenario, []):
            display = normalize_rotating(domain)
            kilobytes = pipeline.kilobytes_for(domain)
            packets = pipeline.packet_count_for(domain)
            if display in merged:
                merged[display] = VolumeCell(
                    display, scenario,
                    merged[display].kilobytes + kilobytes,
                    merged[display].packets + packets)
            else:
                merged[display] = VolumeCell(display, scenario,
                                             kilobytes, packets)
        for cell in merged.values():
            table.add(cell)
    return table
