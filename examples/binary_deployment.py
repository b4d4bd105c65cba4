"""The binary-handler workflow of Section III-E.

"We specified a binary format for applications ... a new binary
handler can distinguish MPSoC applications from operating system
tools."  This scenario plays both sides: a *build machine* packs an
application specification (task graph + implementations + constraints)
into a ``.kair`` binary, and a *target* running Kairos sniffs incoming
binaries, loads the MPSoC ones and allocates them.

Run:  python examples/binary_deployment.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import CostWeights, Kairos, beamforming_application, crisp
from repro.io import load_application, save_application, sniff


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        directory = Path(workdir)

        # --- build machine ------------------------------------------------
        app = beamforming_application()
        binary_path = directory / "beamformer.kair"
        save_application(app, binary_path)
        size = binary_path.stat().st_size
        print(f"packed {app.name!r}: {len(app)} tasks, "
              f"{len(app.channels)} channels -> {size} bytes")

        # an unrelated file that the handler must reject
        elf_path = directory / "ls"
        elf_path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + b"\x00" * 56)

        # --- target -----------------------------------------------------------
        manager = Kairos(crisp(), weights=CostWeights(1.0, 1.0),
                         validation_mode="report")
        for path in sorted(directory.iterdir()):
            data = path.read_bytes()
            if not sniff(data):
                print(f"{path.name}: not a Kairos binary "
                      "(falls through to the OS loader)")
                continue
            loaded = load_application(path)
            loaded.validate()
            print(f"{path.name}: Kairos application {loaded.name!r} — "
                  "allocating")
            layout = manager.controller.admit(loaded).layout
            ms = layout.timings.as_milliseconds()
            print(f"  admitted: {len(layout.placement)} tasks placed, "
                  f"{len(layout.routes)} routes, "
                  f"total {sum(ms.values()):.1f} ms")
            satisfied = layout.validation.satisfied
            print(f"  constraints satisfied: {satisfied}")


if __name__ == "__main__":
    main()
