"""Per-layer microbenchmarks of tensorfree, with cold caches.

    PYTHONPATH=src python3 perfbench/micro.py --seed 1 [--reps 3]

Prints one JSON object mapping metric name to {"value", "unit"}.  The
seed picks operands (scalars, words, group elements); each figure is a
median over repetitions or operands, so it does not hinge on one
operand.  Anything a memo could carry over is rebuilt for every
repetition outside the timer: a fresh scenario, a fresh FreeFamilySpec.
NC partition sizes 12 and 14 are above NC_CACHE_LIMIT, so they are cold
by construction.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
TENSOR_SCENARIO = ROOT / "scenarios" / "biased_power_k2.json"
GROUP_SCENARIO = ROOT / "scenarios" / "product_pair_collection.json"
# factor 2 of biased_power_k2 at Gram length 4: a 161-dimensional exact
# Gram matrix with 631 nonzero entries
LDL_FACTOR, LDL_GRAM_LEN = 1, 4

SCALAR_OPS = 2000
OPERANDS = 41

# every figure this file reports; the unit is the name's suffix
METRICS = (
    "scalars.mul_int_ns",
    "scalars.mul_rat_ns",
    "scalars.add_rat_ns",
    "scalars.mul_gauss_ns",
    "starwords.iter_words_len8_ms",
    "ncpartitions.enumerate_nc12_ms",
    "ncpartitions.pure_parity14_ms",
    "groups.multiply_us",
    "freeness.free_mixed_moment10_ms",
    "tensor.tensor_moment_us",
    "freeness.centered_product_value_us",
    "spaces.ldl200_ms",
    "scenario.load_scenario_ms",
    "cli.import_ms",
)


def unit_of(name: str) -> str:
    return name.rsplit("_", 1)[1]


def _per_op(fn, ops: int, reps: int, scale: float) -> float:
    """Median over reps of fn's time divided by ops, times scale."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) / ops)
    return statistics.median(samples) * scale


def _cold(prepare, run, inputs, scale: float) -> float:
    """Median over inputs of run(prepare(), x), timing only run."""
    samples = []
    for x in inputs:
        state = prepare()
        start = time.perf_counter()
        run(state, x)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * scale


def _random_word(rng: random.Random, length: int):
    """Letters over x1, x2 that switch variable with probability 0.6."""
    from tensorfree.starwords import Letter

    letters, index = [], rng.choice((1, 2))
    for _ in range(length):
        letters.append(Letter(index, rng.random() < 0.5))
        if rng.random() < 0.6:
            index = 3 - index
    return tuple(letters)


def scalar_micros(rng: random.Random, reps: int) -> dict[str, float]:
    from tensorfree.scalars import ExactComplex

    # operand sizes as in the bundled scenarios: small integers, and
    # rationals with small denominators such as alpha = 1/10
    def small():
        return rng.randint(-1000, 1000) or 1

    def rational():
        return ExactComplex(Fraction(small(), rng.randint(2, 100)))

    ints = [(ExactComplex(small()), ExactComplex(small())) for _ in range(SCALAR_OPS)]
    rats = [(rational(), rational()) for _ in range(SCALAR_OPS)]
    gauss = [
        (ExactComplex(small(), small()), ExactComplex(small(), small()))
        for _ in range(SCALAR_OPS)
    ]

    def mul(pairs):
        for a, b in pairs:
            a * b

    def add(pairs):
        for a, b in pairs:
            a + b

    return {
        "scalars.mul_int_ns": _per_op(partial(mul, ints), SCALAR_OPS, reps * 5, 1e9),
        "scalars.mul_rat_ns": _per_op(partial(mul, rats), SCALAR_OPS, reps * 5, 1e9),
        "scalars.add_rat_ns": _per_op(partial(add, rats), SCALAR_OPS, reps * 5, 1e9),
        "scalars.mul_gauss_ns": _per_op(partial(mul, gauss), SCALAR_OPS, reps * 5, 1e9),
    }


def combinatorics_micros(rng: random.Random, reps: int) -> dict[str, float]:
    from tensorfree.groups import multiply
    from tensorfree.ncpartitions import enumerate_nc, iter_pure_parity_blocks
    from tensorfree.scenario import load_scenario
    from tensorfree.starwords import iter_words

    collection = load_scenario(GROUP_SCENARIO).collection
    presentation = collection.presentation
    gens = list(collection.elements.values())
    operands = []
    for _ in range(64):
        acc = rng.choice(gens)
        for _ in range(rng.randint(2, 5)):
            acc = multiply(presentation, acc, rng.choice(gens))
        operands.append(acc)
    pairs = [(rng.choice(operands), rng.choice(operands)) for _ in range(SCALAR_OPS)]

    def run_multiply():
        for a, b in pairs:
            multiply(presentation, a, b)

    return {
        "starwords.iter_words_len8_ms": _per_op(
            lambda: sum(1 for _ in iter_words((1, 2), 8)), 1, reps, 1e3
        ),
        # about 10 s at the seed; one repetition is a long steady sample
        "ncpartitions.enumerate_nc12_ms": _per_op(lambda: enumerate_nc(12), 1, 1, 1e3),
        "ncpartitions.pure_parity14_ms": _per_op(
            lambda: sum(1 for _ in iter_pure_parity_blocks(14)), 1, reps, 1e3
        ),
        "groups.multiply_us": _per_op(run_multiply, SCALAR_OPS, reps, 1e6),
    }


def moment_micros(rng: random.Random, reps: int) -> dict[str, float]:
    from tensorfree.freeness import FreeFamilySpec, centered_product_value
    from tensorfree.scalars import ONE
    from tensorfree.scenario import load_scenario
    from tensorfree.spaces import gram_basis, gram_matrix, hermitian_ldl_signature
    from tensorfree.tensor import joint_oracle, tensor_moment
    from tensorfree.starwords import StarWord

    def fresh_scenario():
        return load_scenario(TENSOR_SCENARIO).tensor

    def fresh_spec():
        factor = fresh_scenario().factors[0]
        return FreeFamilySpec({v: partial(factor.marginal_moment, v) for v in factor.variables})

    def fresh_oracle():
        # as test_freeness calls it: the empty word has moment 1
        joint = joint_oracle(fresh_scenario())
        return lambda letters: joint(letters) if letters else ONE

    words10 = [_random_word(rng, 10) for _ in range(OPERANDS)]
    words8 = [StarWord(_random_word(rng, 8)) for _ in range(OPERANDS)]
    words6 = [_random_word(rng, 6) for _ in range(OPERANDS)]
    factor = fresh_scenario().factors[LDL_FACTOR]
    gram = gram_matrix(factor, gram_basis(factor, LDL_GRAM_LEN))
    return {
        "freeness.free_mixed_moment10_ms": _cold(
            fresh_spec, lambda spec, w: spec.mixed_moment_letters(w), words10, 1e3
        ),
        "tensor.tensor_moment_us": _cold(fresh_scenario, tensor_moment, words8, 1e6),
        "freeness.centered_product_value_us": _cold(
            fresh_oracle,
            lambda oracle, w: centered_product_value(oracle, w, {1: 1, 2: 2}),
            words6,
            1e6,
        ),
        "spaces.ldl200_ms": _per_op(lambda: hermitian_ldl_signature(gram), 1, reps, 1e3),
    }


def cli_micros(reps: int) -> dict[str, float]:
    from tensorfree.scenario import load_scenario

    def load_all():
        for path in SCENARIOS:
            load_scenario(path)

    probe = (
        "import time; t = time.perf_counter(); import tensorfree.cli; "
        "print(time.perf_counter() - t)"
    )
    imports = []
    for _ in range(reps + 2):
        out = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        imports.append(float(out.stdout))
    return {
        "scenario.load_scenario_ms": _per_op(load_all, len(SCENARIOS), reps, 1e3),
        "cli.import_ms": statistics.median(imports) * 1e3,
    }


def run_all(seed: int, reps: int) -> dict[str, dict]:
    rng = random.Random(seed)
    values: dict[str, float] = {}
    values.update(scalar_micros(rng, reps))
    values.update(combinatorics_micros(rng, reps))
    values.update(moment_micros(rng, reps))
    values.update(cli_micros(reps))
    return {name: {"value": values[name], "unit": unit_of(name)} for name in METRICS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args()
    print(json.dumps(run_all(args.seed, args.reps), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
