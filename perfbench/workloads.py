"""The four benchmark workloads: seeded inputs, the timed phase, output checks.

Each workload is driven by one thread in a fresh worker process and is
described by three steps:

* ``setup(seed, work)``: imports, input generation from the seed, and code
  construction.  Everything here counts toward ``setup_s``.
* ``ops(state)``: the measured operations, as a list of callables that
  the worker times one by one; their results are the outputs.
* ``check(state, outputs)``: one entry per failed operation.

Codes and syndromes are recomputed here with plain numpy wherever a
check needs them, so a wrong library result cannot vouch for itself.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os

import numpy as np

REP3 = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)

# 241-qubit double product of rep-3, criterion 08/09 contract: f = x^3/4,
# soundness threshold t = 3, d_q = 9.
THRESHOLD = 3
D_Q = 9
MAX_WEIGHT = 6

SWEEP_PAIRS = 3000
WITNESS_SYNDROMES = 1500
# one measurement-error round and one qubit-error round: a single deep coset
# search keeps a rounds241 pass to about half a minute, so that every run
# makes two passes and still fits the benchmark's time budget
ROUNDS = 2

TABLE1_EXPECTED = {
    "row1": (241, 1, 6),
    "row2": (913, 1, 6),
    "row3": (486, 6, 6),
    "row4": (3856, 16, 8),
}


def rng_for(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, salt])


def cubic_floor(x: int) -> int:
    """floor(x^3 / 4), the residual budget f(2|u|) for x = 2|u|."""
    return x**3 // 4


def mod2(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return ((m.astype(np.int64, copy=False) @ v.astype(np.int64)) & 1).astype(np.uint8)


def build241():
    from homprod import chain, product

    tilde = product.single_product(chain.ChainComplex([REP3.copy()], j_min=0))
    return tilde, product.double_product(tilde)


def _run_cli(argv: list[str]) -> int:
    from homprod import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# -- table1 ------------------------------------------------------------------------


def table1_setup(seed: int, work: str) -> dict:
    from homprod import cli  # noqa: F401  (import cost belongs to set-up)

    return {"seed": seed, "json": os.path.join(work, "table1.json")}


def table1_ops(state: dict):
    return [functools.partial(_run_cli, ["table1", "--json", state["json"], "--seed", str(state["seed"])])]


def table1_check(state: dict, outputs) -> list[str]:
    if outputs[0] != 0:
        return [f"table1 exited {outputs[0]}"]
    with open(state["json"], "rb") as fh:
        doc = json.load(fh)
    problems = []
    if doc.get("all_match") is not True:
        problems.append("all_match is not true")
    rows = {r["input"]: r["computed"] for r in doc.get("rows", [])}
    if sorted(rows) != sorted(TABLE1_EXPECTED):
        problems.append(f"rows {sorted(rows)}")
    for name, (n_q, k_q, max_w) in TABLE1_EXPECTED.items():
        c = rows.get(name, {})
        got = (c.get("n_q"), c.get("k_q"), c.get("max_check_weight"))
        if got != (n_q, k_q, max_w):
            problems.append(f"{name}: (n_q, k_q, max_check_weight) = {got}")
    return ["; ".join(problems)] if problems else []


def table1_digest(state: dict) -> str:
    with open(state["json"], "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- rounds241 ---------------------------------------------------------------------


def _residual_bits(code) -> list[int]:
    """Check bits whose lone flip the repair attributes to a qubit.

    Drawing measurement errors from these makes every measurement round
    leave a nonzero residual, so every seed runs the same number of deep
    coset searches instead of anywhere from none to several.
    """
    from homprod import decoder

    m = code.num_z_checks + code.num_x_checks
    bits = []
    for i in range(m):
        u = np.zeros(m, dtype=np.uint8)
        u[i] = 1
        s = decoder.split_measurement_error(code, u)
        if not decoder.single_shot_decode(code, s, MAX_WEIGHT).e_rec.is_identity():
            bits.append(i)
    return bits


def rounds_setup(seed: int, work: str) -> dict:
    from homprod import chain, css, gf2

    tilde, breve = build241()
    complex_dir = os.path.join(work, "complex241")
    chain.save_complex(complex_dir, breve)
    gf2.write_pcm(os.path.join(work, "rep3.pcm"), REP3)
    code = css.from_complex(breve)
    bits = _residual_bits(code)
    rng = rng_for(seed, 9)
    schedule = []
    for i in range(ROUNDS):
        # criterion 09 pattern: a one-bit measurement error, then a weight-1 X error
        if i % 2 == 0:
            schedule.append({"u_support": [int(rng.choice(bits)) + 1]})
        else:
            schedule.append({"e_support": [int(rng.integers(0, code.n)) + 1]})
    path = os.path.join(work, "schedule.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schedule, fh)
    return {
        "seed": seed,
        "argv": [
            "rounds", "--complex", complex_dir, "--schedule", path,
            "-n", str(ROUNDS), "--dq", str(D_Q), "--t", str(THRESHOLD),
            "--json", os.path.join(work, "rounds.json"), "--seed", str(seed),
        ],
        "json": os.path.join(work, "rounds.json"),
    }


def rounds_ops(state: dict):
    return [functools.partial(_run_cli, state["argv"])]


def rounds_check(state: dict, outputs) -> list[str]:
    rc = outputs[0]
    if rc != 0:
        return [f"rounds exited {rc}"]
    with open(state["json"], encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    if doc.get("in_contract_violations") != 0:
        problems.append(f"in_contract_violations = {doc.get('in_contract_violations')}")
    records = doc.get("rounds", [])
    if len(records) != ROUNDS or not all(r.get("in_contract") for r in records):
        problems.append("schedule not run in full inside the contract")
    return ["; ".join(problems)] if problems else []


# -- sweep241 ----------------------------------------------------------------------


def sweep_setup(seed: int, work: str) -> dict:
    from homprod import css

    _, breve = build241()
    code = css.from_complex(breve)
    hz, hx = breve.delta(0).astype(np.int64), breve.delta(-1).T.astype(np.int64)
    mz, n = hz.shape[0], code.n
    m = mz + hx.shape[0]
    rng = rng_for(seed, 8)
    u = np.zeros((SWEEP_PAIRS, m), dtype=np.uint8)
    e = np.zeros((SWEEP_PAIRS, n), dtype=np.uint8)
    f = np.zeros((SWEEP_PAIRS, n), dtype=np.uint8)
    # criterion 08 contract: |u| <= 1 and |E| <= 2 are all in contract
    for k in range(SWEEP_PAIRS):
        if rng.integers(0, 2):
            u[k, rng.integers(0, m)] = 1
        ew = int(rng.integers(0, 3))
        for q, kind in zip(rng.choice(n, size=ew, replace=False), rng.integers(0, 3, size=ew)):
            if kind != 1:
                e[k, q] = 1
            if kind != 0:
                f[k, q] = 1
    sz = mod2(e, hz.T) ^ u[:, :mz]
    sx = mod2(f, hx.T) ^ u[:, mz:]
    pairs = []
    for k in range(SWEEP_PAIRS):
        u_weight = int(u[k].sum())
        pairs.append((css.PauliError(e[k].copy(), f[k].copy()), css.Syndrome(sz[k].copy(), sx[k].copy()),
                      u_weight, cubic_floor(2 * u_weight)))
    with open(os.path.join(work, "pairs.json"), "w", encoding="utf-8") as fh:
        json.dump(
            [
                {"e": np.flatnonzero(p.e).tolist(), "f": np.flatnonzero(p.f).tolist(), "u_weight": uw}
                for p, _, uw, _ in pairs
            ],
            fh,
        )
    return {"code": code, "hz": hz, "hx": hx, "pairs": pairs}


def sweep_ops(state: dict):
    from homprod import decoder

    code = state["code"]

    def decode(error, s, budget):
        # looked up per call, so that a traced run sees the wrapped function
        return decoder.single_shot_decode(code, s, MAX_WEIGHT, true_error=error, residual_budget=budget)

    return [functools.partial(decode, error, s, budget) for error, s, _, budget in state["pairs"]]


def sweep_check(state: dict, outputs) -> list[str]:
    hz, hx = state["hz"], state["hx"]
    failures = []
    for k, ((_, s, u_weight, budget), r) in enumerate(zip(state["pairs"], outputs)):
        if r.metacheck_failure:
            failures.append(f"pair {k}: metacheck failure")
            continue
        repaired_z, repaired_x = s.z_part ^ r.s_rec.z_part, s.x_part ^ r.s_rec.x_part
        if int(r.s_rec.z_part.sum() + r.s_rec.x_part.sum()) > u_weight:
            failures.append(f"pair {k}: |s_rec| > |u| = {u_weight}")
        elif not (
            (mod2(hz, r.e_rec.e) == repaired_z).all()
            and (mod2(hx, r.e_rec.f) == repaired_x).all()
        ):
            failures.append(f"pair {k}: recovery does not match the repaired syndrome")
        elif r.residual_min_weight is None or r.residual_min_weight > budget:
            failures.append(f"pair {k}: residual above f(2|u|) = {budget}")
    return failures


# -- witness241 --------------------------------------------------------------------


def witness_setup(seed: int, work: str) -> dict:
    tilde, breve = build241()
    d0 = breve.delta(0).astype(np.int64)
    n = d0.shape[1]
    rng = rng_for(seed, 6)
    syndromes = []
    supports = []
    # criterion 06: syndromes of weight-1 and weight-2 qubit errors
    for _ in range(WITNESS_SYNDROMES):
        r0 = np.zeros(n, dtype=np.uint8)
        support = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
        r0[support] = 1
        syndromes.append(mod2(d0, r0))
        supports.append(sorted(int(i) for i in support))
    with open(os.path.join(work, "witness_errors.json"), "w", encoding="utf-8") as fh:
        json.dump(supports, fh)
    return {"tilde": tilde, "breve": breve, "d0": d0, "syndromes": syndromes}


def witness_ops(state: dict):
    from homprod import soundness

    tilde, breve = state["tilde"], state["breve"]

    def preimage(s):
        # looked up per call, so that a traced run sees the wrapped function
        return soundness.double_product_preimage(REP3, tilde, breve, s, threshold=THRESHOLD)

    return [functools.partial(preimage, s) for s in state["syndromes"]]


def witness_check(state: dict, outputs) -> list[str]:
    d0 = state["d0"]
    failures = []
    for k, (s, out) in enumerate(zip(state["syndromes"], outputs)):
        x = int(s.sum())
        if not (mod2(d0, out.r) == s).all():
            failures.append(f"syndrome {k}: delta_0 r != s")
        elif x < THRESHOLD and (out.used_fallback or 4 * int(out.r.sum()) > x**3):
            failures.append(f"syndrome {k}: |r| = {int(out.r.sum())} above |s|^3/4, |s| = {x}")
    return failures


# the reference kernel (calibrate.py) whose speed each workload's times are rescaled by
KERNELS = {"table1": "stream", "sweep241": "gf2", "rounds241": "stream", "witness241": "gf2"}

WORKLOADS = {
    "table1": (table1_setup, table1_ops, table1_check),
    "sweep241": (sweep_setup, sweep_ops, sweep_check),
    "rounds241": (rounds_setup, rounds_ops, rounds_check),
    "witness241": (witness_setup, witness_ops, witness_check),
}
