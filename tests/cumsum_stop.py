"""Running-count reference for the threshold stop rule.

It finds the detection that meets every threshold from one running count
per set over the whole chunk, as ``run_protocol`` did before it looked up
each unmet set's needed hit, so a run with it in place of
``protocol._stop`` must give the same result.
"""

import numpy as np

from triqss.roundtable import SetTag


def cumsum_stop(n: np.ndarray, tag: np.ndarray, thresholds):
    """Drop-in for ``protocol._stop``: detections kept, or ``None`` if the chunk falls short."""
    met = (
        (n[SetTag.X_SET] + np.cumsum(tag == SetTag.X_SET) >= thresholds.n_x)
        & (n[SetTag.YBC_SET] + np.cumsum(tag == SetTag.YBC_SET) >= thresholds.n_ybc)
        & (n[SetTag.YAC_SET] + np.cumsum(tag == SetTag.YAC_SET) >= thresholds.n_yac)
    )
    return int(np.argmax(met)) + 1 if met.any() else None
