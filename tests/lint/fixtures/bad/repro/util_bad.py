"""Deliberately bad module: determinism, exception, and hygiene faults."""

import random
import time

import numpy as np

SAMPLES = np.random.normal(0.0, 1.0, 8)
RNG = np.random.default_rng()
JITTER = random.random()
STARTED = time.time()


def load(values=[], options={}):
    try:
        return values[0], options
    except:
        return None


def fuse(weight):
    if weight == 0.25:
        return 1.0
    try:
        return 1.0 / weight
    except Exception:
        return 0.0


from concurrent.futures import ThreadPoolExecutor

POOL = ThreadPoolExecutor(max_workers=2)


def grow(plant):
    plant.machines[0].jobs.append(None)


def retune(job):
    job.setup["feed_rate"] = 1.0
    del job.caq.measurements["porosity_pct"]
    job.setup.update(feed_rate=2.0)
    job.caq.measurements.setdefault("tensile_mpa", 0.0)
