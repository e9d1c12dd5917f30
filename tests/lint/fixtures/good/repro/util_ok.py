"""Clean mirror of util_bad: seeded RNG, typed excepts, suppressions."""

import math
import time

import numpy as np


def make_rng(seed=7):
    # constructed per call from an explicit seed: nothing module-level
    # to share (DET104) and nothing unseeded (DET004)
    return np.random.default_rng(seed)


SAMPLES = make_rng().normal(0.0, 1.0, 8)
STARTED = time.monotonic()  # repro-lint: disable=DET003


def load(values=None, options=None):
    values = [] if values is None else values
    options = {} if options is None else options
    try:
        return values[0], options
    except IndexError:
        return None


def fuse(weight):
    if math.isclose(weight, 0.25):
        return 1.0
    try:
        return 1.0 / weight
    except ZeroDivisionError:
        return 0.0


def retuned_setup(job, feed_rate):
    # a job's setup stays as built: change a copy (DET006)
    setup = dict(job.setup)
    setup["feed_rate"] = feed_rate
    return setup, job.caq.measurements.get("porosity_pct")
