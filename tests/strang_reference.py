"""Reference Strang split step, written out with allocating transforms.

`reference_strang_step` is the body that `stepping.strang_step` had before
its transforms ran in place: `np.fft.fftn` and `np.fft.ifftn` each return a
new array.  The in-place kernel must reproduce it bit for bit.
"""

import numpy as np


def reference_strang_step(samples, half_start, half_end, kinetic_phase):
    out = np.fft.fftn(half_start * samples)
    out *= kinetic_phase
    out = np.fft.ifftn(out)
    if callable(half_end):
        half_end = half_end(out)
    out *= half_end
    return out
