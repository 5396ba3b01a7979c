"""Peak resident memory of a fresh process, for the tests that bound it.

`PEAK_KIB` is source text for the scripts those tests run with
`python -c`: it defines `peak_kib()`, the process's own peak RSS in KiB,
read as VmHWM from /proc/self/status.  ru_maxrss would not do: on Linux
a child starts it at the RSS of the process it was forked from, so an
added peak read from it in a child of a large process (pytest) reads
too low.  VmHWM belongs to the address space that exec made.
"""

import os

PEAK_KIB = """
def peak_kib():
    with open("/proc/self/status") as status:
        return int(next(line for line in status if line.startswith("VmHWM:")).split()[1])
"""

# the tests that read VmHWM skip where the file is missing
HAS_VMHWM = os.path.exists("/proc/self/status")
