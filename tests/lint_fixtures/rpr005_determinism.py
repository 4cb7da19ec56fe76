"""RPR005 fixture: wall clocks, global RNGs, set-order iteration, hash()."""

import random
import time

import numpy as np
from numpy.random import default_rng


def decide_eviction(items):
    stamp = time.time()  # line 11: wall-clock read
    pick = random.choice(items)  # line 12: global RNG
    np.random.shuffle(items)  # line 13: legacy numpy global RNG
    rng = default_rng()  # line 14: unseeded generator
    return stamp, pick, rng


def order_dependent(keys):
    ordered = list({k for k in keys})  # line 19: list(set comprehension)
    for key in {1, 2, 3}:  # line 20: set-literal iteration
        ordered.append(key)
    return ordered


def salted_bucket(key, buckets):
    return hash(key) % buckets  # line 26: builtin hash() salts str keys


def deterministic_ok(seed, keys):
    # Seeded instances, sorted sets and __hash__ — must NOT fire.
    rng = random.Random(seed)
    gen = default_rng(seed)
    started = time.perf_counter()
    ordered = sorted(set(keys))
    return rng, gen, started, ordered


class Key:
    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Key) and other.name == self.name

    def __hash__(self):
        return hash(self.name)
