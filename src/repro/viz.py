"""Plain-text platform visualisation.

Renders a frozen platform's element grid with per-element occupancy —
the textual analogue of the paper's Fig. 6 overlay (the beamformer
drawn over the CRISP die photo).  Elements are placed by their
``position`` attribute; platforms without positions fall back to a
simple listing.

Used by the examples and handy in a REPL::

    >>> from repro import crisp, Kairos, beamforming_application
    >>> from repro.viz import render_occupancy
    >>> manager = Kairos(crisp())
    >>> decision = manager.controller.admit(beamforming_application())
    >>> print(render_occupancy(manager.state))        # doctest: +SKIP
"""

from __future__ import annotations

from collections import defaultdict

from repro.arch.state import AllocationState
from repro.arch.topology import Platform

#: one-letter glyphs per element kind
KIND_GLYPHS = {
    "dsp": "D",
    "gpp": "A",    # the ARM
    "fpga": "F",
    "memory": "M",
    "test": "T",
    "io": "I",
}


def _cell(state: AllocationState, element) -> str:
    glyph = KIND_GLYPHS.get(element.kind.value, "?")
    if state.is_failed(element):
        return "XX"
    occupants = len(state.occupants(element))
    if occupants == 0:
        return f"{glyph}."
    if occupants > 9:
        return f"{glyph}+"
    return f"{glyph}{occupants}"


def render_occupancy(state: AllocationState) -> str:
    """ASCII grid of the platform with occupant counts per element.

    Legend: letter = element kind (D=DSP, A=ARM, F=FPGA, M=memory,
    T=test), digit = resident task count, ``.`` = free, ``XX`` =
    failed.
    """
    platform = state.platform
    positioned = [e for e in platform.elements if e.position is not None]
    if not positioned:
        lines = [f"{e.name}: {_cell(state, e)}" for e in platform.elements]
        return "\n".join(lines)

    by_row: dict[int, dict[int, str]] = defaultdict(dict)
    max_col = 0
    for element in positioned:
        col, row = int(element.position[0]), int(element.position[1])
        by_row[row][col] = _cell(state, element)
        max_col = max(max_col, col)

    lines = []
    for row in sorted(by_row):
        cells = [by_row[row].get(col, "  ") for col in range(max_col + 1)]
        lines.append(" ".join(cells).rstrip())
    lines.append("")
    lines.append(
        "legend: D=DSP A=ARM F=FPGA M=memory T=test; "
        "digit = resident tasks, '.' = free, XX = failed"
    )
    return "\n".join(lines)


def render_placement(
    platform: Platform,
    placement: dict[str, str],
    width: int = 6,
) -> str:
    """ASCII grid labelling each element with the task it hosts.

    Elements hosting several tasks of ``placement`` show the first
    (alphabetically) plus ``+``; absent elements show ``.``.
    """
    tasks_by_element: dict[str, list[str]] = defaultdict(list)
    for task, element in sorted(placement.items()):
        tasks_by_element[element].append(task)

    positioned = [e for e in platform.elements if e.position is not None]
    if not positioned:
        return "\n".join(
            f"{element}: {','.join(tasks)}"
            for element, tasks in sorted(tasks_by_element.items())
        )

    by_row: dict[int, dict[int, str]] = defaultdict(dict)
    max_col = 0
    for element in positioned:
        col, row = int(element.position[0]), int(element.position[1])
        tasks = tasks_by_element.get(element.name, [])
        if not tasks:
            label = "."
        elif len(tasks) == 1:
            label = tasks[0]
        else:
            label = tasks[0][: width - 1] + "+"
        by_row[row][col] = label[:width]
        max_col = max(max_col, col)

    lines = []
    for row in sorted(by_row):
        cells = [
            by_row[row].get(col, "").ljust(width)
            for col in range(max_col + 1)
        ]
        lines.append(" ".join(cells).rstrip())
    return "\n".join(lines)


def render_route(platform: Platform, path: tuple[str, ...]) -> str:
    """One-line rendering of a route with hop count."""
    return f"{' > '.join(path)}  ({len(path) - 1} hops)"
