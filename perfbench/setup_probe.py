"""Fresh-process set-up probe for one workload.

Usage: python3 setup_probe.py WORKLOAD SEED WORKDIR

Imports ``jamofuse.cli`` (the CLI cold start), runs the workload's in-process
set-up, then prints one JSON line and exits: ``setup_s``, the CPU seconds of
this process from its start to the end of set-up, and ``import_ms``, the CPU
milliseconds of importing ``jamofuse.cli``, both at nominal host speed. The
host speed gauge runs from just after numpy is imported, which the program's
own imports would do first; its kernel and the import of the benchmark's own
``workloads`` module are left out.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from hostspeed import Gauge  # noqa: E402

gauge = Gauge()
gauge.start()
start = gauge.cpu()
import jamofuse.cli  # noqa: E402,F401

imported = gauge.cpu()
import workloads  # noqa: E402

harness = gauge.cpu() - imported
workload = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]))
workload.setup()
end = gauge.cpu()
gauge.stop()
factor = gauge.factor(start, end)
print(json.dumps({"setup_s": (end - harness) * factor, "import_ms": (imported - start) * factor * 1e3}), flush=True)
