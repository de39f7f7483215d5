"""Set-up probe: import plus the first call, in a fresh interpreter.

    python3 perfbench/probe.py WORKLOAD '<case spec as JSON>'

Prints, as JSON, the seconds from before the program is imported to the
end of its first call, and the speed meter's scale over that interval.
run.py starts it several times and reports the median.  The meter's own
imports (fractions, statistics) come first, so they are not counted.
"""

import json
import sys
import time

import speed

with speed.SpeedMeter(speed.KERNELS[sys.argv[1]]) as meter:
    spent0 = meter.spent
    t0 = time.perf_counter()
    import workloads  # noqa: E402  (imports sixj from the checkout)

    workloads.run_op(workloads.case_from_spec(json.loads(sys.argv[2])))
    t1 = time.perf_counter()
print(json.dumps({"seconds": t1 - t0 - (meter.spent - spent0),
                  "scale": meter.scale_around(t0, t1)}))
