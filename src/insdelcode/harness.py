"""Monte Carlo experiments with CSV output.

Every experiment is deterministic given its base seed: trial i derives its
randomness from base_seed + i (or an explicit sub-seed tuple).  Results
carry per-trial rows, aggregates recomputable from the rows, and named
assertions; the CLI turns a failed assertion into a nonzero exit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bounds import entropy
from .editops import insdel_channel, min_pairwise_edit_distance
from .errors import DecodeFailure, UsageError
from .gf import Field
from .hamming_ecc import (EXHAUSTIVE_CAP, codeword_table,
                          full_rank_probability, random_generator,
                          systematic_transform)
from .linear_insdel import InsdelCode, SystematicInsdelCode


@dataclass
class ExperimentResult:
    config: dict
    columns: list[str]
    rows: list[list]
    aggregates: dict = dc_field(default_factory=dict)
    assertions: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.assertions.values())

    def write_csv(self, path) -> None:
        lines = ["# config: " + json.dumps(self.config, sort_keys=True)]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(str(v) for v in row))
        for key in sorted(self.aggregates):
            lines.append(f"# aggregate: {key}={self.aggregates[key]!r}")
        for key in sorted(self.assertions):
            status = "pass" if self.assertions[key] else "FAIL"
            lines.append(f"# assertion: {key}={status}")
        Path(path).write_text("\n".join(lines) + "\n")


def read_csv_rows(path) -> tuple[dict, list[str], list[list[str]]]:
    """Parse a harness CSV back into (config, columns, rows)."""
    config: dict = {}
    columns: list[str] = []
    rows: list[list[str]] = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# config: "):
            config = json.loads(line[len("# config: "):])
        elif line.startswith("#") or not line.strip():
            continue
        elif not columns:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return config, columns, rows


def random_code_distance_experiment(field: Field, n: int, m: int, delta: float,
                                    trials: int, base_seed: int = 0
                                    ) -> ExperimentResult:
    """Empirical tail of max pairwise LCS for uniform generator matrices.

    The analytic union bound q^(2m) 2^(2 H(delta) n) q^((delta-1) n) upper
    bounds the probability that some distinct pair reaches LCS >=
    (1-delta) n; the experiment checks one-sided consistency with 3-sigma
    binomial slack.
    """
    if trials < 1:
        raise UsageError("need at least one trial")
    threshold = (1.0 - delta) * n
    rows = []
    failures = 0
    for trial in range(trials):
        seed = base_seed + trial
        gen = random_generator(field, m, n, seed)
        words = codeword_table(field, gen, EXHAUSTIVE_CAP)
        # all words have length n, so ED = 2n - 2 LCS for every pair
        max_lcs = n - min_pairwise_edit_distance(words) // 2
        fail = int(max_lcs >= threshold)
        failures += fail
        rows.append([trial, seed, max_lcs, fail])
    frac = failures / trials
    bound = min(1.0, field.q ** (2 * m) * 2.0 ** (2 * entropy(delta) * n)
                * field.q ** ((delta - 1.0) * n))
    sigma = math.sqrt(bound * (1.0 - bound) / trials)
    result = ExperimentResult(
        config={"experiment": "random_code_distance",
                "field": field.to_json(), "n": n, "m": m, "delta": delta,
                "trials": trials, "base_seed": base_seed},
        columns=["trial", "seed", "max_lcs", "fail"],
        rows=rows,
        aggregates={"fail_fraction": frac, "analytic_bound": bound,
                    "sigma": sigma},
        assertions={"fail_fraction_within_bound": frac <= bound + 3 * sigma})
    return result


def systematic_distance_experiment(field: Field, n: int, m: int, trials: int,
                                   base_seed: int = 0) -> ExperimentResult:
    """Full-rank frequency of the left m x m block, plus the invariance of
    the codeword set (hence its edit-distance profile) under the systematic
    transform."""
    rows = []
    first_try = 0
    for trial in range(trials):
        seed = base_seed + trial
        gen = random_generator(field, m, n, seed)
        sys_gen = systematic_transform(gen, field)
        ok_first = int(sys_gen is not None)
        first_try += ok_first
        attempts = 1
        while sys_gen is None:
            attempts += 1
            gen = random_generator(field, m, n, [seed, attempts])
            sys_gen = systematic_transform(gen, field)
        words, sys_words = (
            set(map(tuple, codeword_table(field, g, EXHAUSTIVE_CAP).tolist()))
            for g in (gen, sys_gen))
        sets_equal = int(words == sys_words)
        min_ed = min_pairwise_edit_distance(sorted(words)) \
            if len(words) > 1 else 0
        min_ed_sys = min_pairwise_edit_distance(sorted(sys_words)) \
            if len(sys_words) > 1 else 0
        rows.append([trial, seed, ok_first, attempts, sets_equal,
                     min_ed, min_ed_sys])
    rate = first_try / trials
    exact = full_rank_probability(field.q, m)
    sigma = math.sqrt(exact * (1.0 - exact) / trials)
    result = ExperimentResult(
        config={"experiment": "systematic_distance",
                "field": field.to_json(), "n": n, "m": m,
                "trials": trials, "base_seed": base_seed},
        columns=["trial", "seed", "full_rank_first_try", "attempts",
                 "sets_equal", "min_ed", "min_ed_sys"],
        rows=rows,
        aggregates={"full_rank_rate": rate, "exact_probability": exact,
                    "sigma": sigma},
        assertions={
            "rate_above_quarter_floor": rate >= 0.25 - 3 * sigma,
            "rate_matches_product": abs(rate - exact) <= 3 * sigma,
            "codeword_sets_preserved": all(r[4] == 1 for r in rows),
            "min_ed_preserved": all(r[5] == r[6] for r in rows)})
    return result


def decode_success_sweep(code: InsdelCode, k_max: int, trials_per_k: int,
                         base_seed: int = 0) -> ExperimentResult:
    """Round-trip success fraction as the insdel count k sweeps upward.

    Also records the unmatched-nonzero count of each trial, which stays
    within 3k for the matching the decoder maximizes.
    """
    rows = []
    q = code.field.q
    trial_index = 0
    for k in range(k_max + 1):
        for t in range(trials_per_k):
            seed = base_seed + trial_index
            trial_rng = np.random.default_rng(seed)
            msg = [int(v) for v in trial_rng.integers(0, q, code.m)]
            z = code.encode(msg)
            n_ins = int(trial_rng.integers(0, k + 1))
            n_del = k - n_ins
            zp = insdel_channel(z, n_ins, n_del, [seed, 1], alphabet=q)
            details = code.decode_details(zp)
            success = int(details["message"] == msg)
            rows.append([k, t, seed, n_ins, n_del, success,
                         details["unmatched"], details["nonzeros"]])
            trial_index += 1
    per_k = {}
    for row in rows:
        per_k.setdefault(row[0], []).append(row[5])
    aggregates = {f"success_k{k}": sum(v) / len(v) for k, v in per_k.items()}
    within = [row for row in rows if row[0] <= code.kappa]
    result = ExperimentResult(
        config={"experiment": "decode_success_sweep", "k_max": k_max,
                "trials_per_k": trials_per_k, "base_seed": base_seed,
                "kappa": code.kappa, "n": code.n, "m": code.m},
        columns=["k", "trial", "seed", "n_ins", "n_del", "success",
                 "unmatched", "nonzeros"],
        rows=rows,
        aggregates=aggregates,
        assertions={
            "all_within_radius_decode": all(r[5] == 1 for r in within),
            "unmatched_within_3k": all(r[6] <= 3 * r[0] for r in rows)})
    return result


def systematic_insdel_wrapper_experiment(code: InsdelCode, trials: int,
                                         base_seed: int = 0,
                                         kappa: Optional[int] = None
                                         ) -> ExperimentResult:
    """Round-trips of the message-prefix wrapper with the insdel budget split
    between the raw prefix and the codeword part; reports rate m/(n+m)."""
    wrapped = SystematicInsdelCode(code)
    kappa = code.kappa if kappa is None else kappa
    q = code.field.q
    rows = []
    for trial in range(trials):
        seed = base_seed + trial
        rng = np.random.default_rng(seed)
        msg = [int(v) for v in rng.integers(0, q, code.m)]
        full = wrapped.encode(msg)
        k = int(rng.integers(0, kappa + 1))
        k_prefix = int(rng.integers(0, k + 1))
        k_body = k - k_prefix
        prefix, body = full[:wrapped.m], full[wrapped.m:]
        ins_p = int(rng.integers(0, k_prefix + 1))
        ins_b = int(rng.integers(0, k_body + 1))
        prefix = insdel_channel(prefix, ins_p, k_prefix - ins_p, [seed, 2], q)
        body = insdel_channel(body, ins_b, k_body - ins_b, [seed, 3], q)
        received = np.concatenate([prefix, body])
        try:
            got = wrapped.decode(received)
        except DecodeFailure:
            got = None
        rows.append([trial, seed, k, k_prefix, int(got == msg)])
    frac = sum(r[4] for r in rows) / trials
    result = ExperimentResult(
        config={"experiment": "systematic_insdel_wrapper", "trials": trials,
                "base_seed": base_seed, "kappa": kappa,
                "n": wrapped.n, "m": wrapped.m},
        columns=["trial", "seed", "k", "k_prefix", "success"],
        rows=rows,
        aggregates={"success_fraction": frac,
                    "rate": wrapped.rate},
        assertions={"all_decode": frac == 1.0,
                    "rate_is_m_over_n_plus_m":
                        wrapped.rate == code.m / (code.n + code.m)})
    return result
