"""Command-line front end.

Subcommands: build, report, decode, sweep, rounds, profile, witness,
certify, diag, barrier, table1, pipeline.  JSON is the canonical machine
output; text tables are derived views.  Outputs embed the seed and are
byte-stable for fixed inputs and seed.

Exit codes: 0 success, 2 input error, 3 enumeration budget or memory
exhausted, 4 a certification counterexample or contract violation was
found.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from . import bounds, chain, css, decoder, gf2, product, soundness, stab
from .chain import ChainComplex, Distance

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_COUNTEREXAMPLE = 4


class InputError(ValueError):
    pass


class ContractViolation(RuntimeError):
    """A closed-form result disagrees with an enumeration or a witness."""


def _read(path: str, what: str, read):
    """read(path), where an unreadable or malformed file is an input error
    that names what the file is."""
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from exc


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str, payload: dict, seed: int) -> None:
    """payload plus its seed as indented, key-sorted JSON and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**payload, "seed": seed}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.json_path:
        _write_json(args.json_path, payload, args.seed)
    if not args.quiet:
        print(text)


# -- Table I inputs: the four reference classical codes -------------------------

TABLE1_INPUTS = {
    "row1": gf2.as_bin([[1, 1, 0], [0, 1, 1]]),
    "row2": gf2.as_bin([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]),
    "row3": gf2.as_bin([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
    "row4": gf2.as_bin(
        [
            [1, 1, 0, 0, 0, 0],
            [0, 1, 1, 0, 1, 0],
            [0, 0, 1, 1, 0, 0],
            [0, 0, 0, 0, 1, 1],
        ]
    ),
}

TABLE1_EXPECTED = {
    "row1": {"n_q": 241, "k_q": 1, "d_ss": "inf", "max_check_weight": 6,
             "mean_check_weight": "4.87179", "redundancy": "1.3"},
    "row2": {"n_q": 913, "k_q": 1, "d_ss": "inf", "max_check_weight": 6,
             "mean_check_weight": "5.18", "redundancy": "1.31579"},
    "row3": {"n_q": 486, "k_q": 6, "d_ss": 3, "max_check_weight": 6,
             "mean_check_weight": "6", "redundancy": "1.33884"},
    "row4": {"n_q": 3856, "k_q": 16, "d_ss": "inf", "max_check_weight": 8,
             "mean_check_weight": "5.48077", "redundancy": "1.3"},
}


def build_stages(base: ChainComplex, stages: int = 2) -> ChainComplex:
    """The single product of base or, for two stages, the double product of
    that, whose factor is the single product."""
    tilde = product.single_product(base)
    return product.double_product(tilde) if stages == 2 else tilde


def save_stages(out: str, base: ChainComplex, stages: int) -> ChainComplex:
    """build_stages of base, written to out: the product, its factor as
    stage1/ beside a double product, and the checks as classical.pcm."""
    built = build_stages(base, stages)
    if stages == 2:
        chain.save_complex(os.path.join(out, "stage1"), built.factor)
    chain.save_complex(out, built)
    gf2.write_pcm(os.path.join(out, "classical.pcm"), base.delta(0))
    return built


def run_table1_row(name: str) -> dict:
    base = ChainComplex([TABLE1_INPUTS[name]], j_min=0)
    breve = build_stages(base)
    report = css.code_report(breve)
    # a full search is out of reach at these sizes; weight 2 checks the closed form
    params = Parameters(breve, floor_weight=2)
    computed = {
        "n_q": report.n,
        "k_q": report.k,
        "d_q": params.d_q.to_json(),
        "d_q_witness_upper": params.witness_weight,
        "d_ss": params.d_ss.to_json()["value"],
        "max_check_weight": report.max_check_weight,
        "mean_check_weight": float(report.mean_check_weight),
        "mean_check_weight_exact": str(report.mean_check_weight),
        "redundancy": float(report.redundancy),
        "redundancy_exact": str(report.redundancy),
    }
    expected = TABLE1_EXPECTED[name]
    matches = {
        "n_q": computed["n_q"] == expected["n_q"],
        "k_q": computed["k_q"] == expected["k_q"],
        "d_ss": str(computed["d_ss"]) == str(expected["d_ss"]),
        "max_check_weight": computed["max_check_weight"] == expected["max_check_weight"],
        "mean_check_weight": _matches_rounded(
            report.mean_check_weight, expected["mean_check_weight"]
        ),
        "redundancy": _matches_rounded(report.redundancy, expected["redundancy"]),
    }
    row = {"input": name, "computed": computed, "expected": expected, "matches": matches}
    if not matches["redundancy"]:
        closed_form = params.closed.level_sizes
        row["note"] = (
            f"computed redundancy {computed['redundancy_exact']} = "
            f"{computed['redundancy']:.5f} differs from the tabulated "
            f"{expected['redundancy']}; the explicit matrices and the "
            f"closed-form sizes {closed_form[1]}+{closed_form[-1]} over "
            f"{closed_form[0]}-{computed['k_q']} agree with each other"
        )
    return row


def _matches_rounded(value: Fraction, expected_str: str) -> bool:
    decimals = len(expected_str.split(".")[1]) if "." in expected_str else 0
    return abs(round(float(value), decimals) - float(expected_str)) <= 1e-5


def cmd_table1(args: argparse.Namespace) -> int:
    rows = [run_table1_row(n) for n in TABLE1_INPUTS]
    # a row whose only miss is the redundancy carries a note explaining it
    all_match = all(v for r in rows for k, v in r["matches"].items() if k != "redundancy")
    lines = [
        f"{'input':<6} {'n_q':>5} {'k_q':>4} {'d_q':>9} {'d_ss':>5} "
        f"{'max_w':>5} {'mean_w':>8} {'redund':>8}  ok"
    ]
    for r in rows:
        c = r["computed"]
        dq = str(c["d_q"]["value"])
        if c["d_q"]["status"] != "exact":
            dq = ">=" + dq
        ok = "yes" if all(r["matches"].values()) else "see note"
        lines.append(
            f"{r['input']:<6} {c['n_q']:>5} {c['k_q']:>4} {dq:>9} "
            f"{str(c['d_ss']):>5} {c['max_check_weight']:>5} "
            f"{c['mean_check_weight']:>8.5f} {c['redundancy']:>8.5f}  {ok}"
        )
        if "note" in r:
            lines.append(f"  note: {r['note']}")
    emit(args, {"rows": rows, "all_match": all_match}, "\n".join(lines))
    return EXIT_OK


# -- complex/build/report --------------------------------------------------------


def _load_base(path: str, allow_redundant: bool) -> ChainComplex:
    """The length-1 complex of a classical check matrix to build products from.

    The checks must have rank at least 1, and full row rank unless
    allow_redundant is set.
    """
    h = _read(path, "check matrix", gf2.read_pcm)
    if gf2.rank(h) == 0:
        raise InputError(
            f"check matrix {path!r} ({h.shape[0]}x{h.shape[1]}) has no "
            "independent checks"
        )
    if allow_redundant:
        return ChainComplex([h], j_min=0)
    try:
        return product.minimal_complex(h)
    except ValueError as exc:
        raise InputError(f"{exc} (pass --allow-redundant to proceed)") from exc


def cmd_build(args: argparse.Namespace) -> int:
    base = _load_base(args.classical, args.allow_redundant)
    final = save_stages(args.out, base, args.stages)
    computed = {
        "level_sizes": {str(j): final.size(j) for j in final.levels()},
        "level_bettis": {
            str(j): chain.betti_number(final, j) for j in final.levels()
        },
        "redundancy": str(product.redundancy(final)),
    }
    payload = {"stages": args.stages, "computed": computed}
    for stages in range(1, args.stages + 1):
        params = product.product_params(base, stages)
        payload[f"predicted_stage{stages}"] = params.to_json()
    _write_json(os.path.join(args.out, "params.json"), payload, args.seed)
    emit(
        args,
        payload,
        f"built stage-{args.stages} complex at {args.out}: "
        f"{final.size(0)} qubits, {chain.betti_number(final, 0)} logical",
    )
    return EXIT_OK


# -- provenance and parameters ------------------------------------------------------


def load_stored(path: str) -> ChainComplex:
    """The complex stored at path.  With classical.pcm beside it, the
    product rebuilt from those checks, whose factor is set: an input error
    unless it equals every stored map bit for bit."""
    complex_ = _read(path, "complex", chain.load_complex)
    pcm = os.path.join(path, "classical.pcm")
    if not os.path.exists(pcm):
        return complex_
    base = ChainComplex([_read(pcm, "check matrix", gf2.read_pcm)], j_min=0)
    built = build_stages(base, complex_.length // 2)
    if (built.j_min, built.length) != (complex_.j_min, complex_.length) or not all(
        np.array_equal(a, b) for a, b in zip(built.boundaries, complex_.boundaries)
    ):
        raise InputError(f"{pcm!r} does not build the complex stored beside it")
    return built


def _agreeing(name: str, closed: Distance, floor: Distance) -> Distance:
    """closed, checked against an enumeration result: at least a lower bound,
    equal to an exact value."""
    if closed.value < floor.value or (floor.is_exact() and closed.value != floor.value):
        raise ContractViolation(
            f"closed-form {name} {closed.to_json()['value']} disagrees with "
            f"the enumerated {floor.to_json()}"
        )
    return closed


class Parameters:
    """d_q, d_ss and the soundness threshold t of a complex for every command,
    each worked out on first use; a d_q or t given here is used as it is.
    For a product of checks H (see base), d_q and d_ss are exact from
    product.product_params, and a disagreement with the enumeration to
    floor_weight, or a double product's d_q above a verified logical
    witness, raises ContractViolation (an explicit raise, kept by python
    -O); t is min(d(H), d(H^T)).  Otherwise d_q and d_ss are the
    enumeration results and t must be given."""

    def __init__(
        self, complex_: ChainComplex, floor_weight: int, d_q: Optional[int] = None, t: Optional[int] = None
    ) -> None:
        self.complex_, self.floor_weight = complex_, floor_weight
        self._given_d_q, self._given_t = d_q, t

    @functools.cached_property
    def base(self) -> Optional[ChainComplex]:
        """The complex of the checks H, read down the factors, or None."""
        base = self.complex_.factor
        while base is not None and base.length > 1:
            base = base.factor
        return base

    @functools.cached_property
    def closed(self) -> Optional[product.ProductParams]:
        base = self.base
        return None if base is None else product.product_params(base, self.complex_.length // 2)

    @functools.cached_property
    def classical(self) -> tuple[Distance, Distance]:
        """d(H) and d(H^T), each exact."""
        base = self.base
        return (
            chain.homological_distance(base, 0, max(base.size(0), 1)),
            chain.cohomological_distance(base, 0, max(base.size(1), 1)),
        )

    @functools.cached_property
    def t(self) -> Distance:
        if self._given_t is not None:
            return Distance(float(self._given_t), "exact")
        if self.base is None:
            raise InputError(
                "no soundness threshold: pass --t or keep classical.pcm beside the complex"
            )
        return css.combine_distances(*self.classical)

    @functools.cached_property
    def witness_weight(self) -> Optional[int]:
        """Weight of a verified qubit-level logical of a double product, or None."""
        if self.base is None or self.complex_.length != 4 or math.isinf(self.classical[0].value):
            return None
        found = product.double_distance_witness(self.complex_, int(self.classical[0].value))
        return None if found is None else gf2.weight(found)

    @functools.cached_property
    def d_q(self) -> Distance:
        if self._given_d_q is not None:
            return Distance(float(self._given_d_q), "external")
        floor = css.qubit_distance(self.complex_, self.floor_weight)
        if self.closed is None:
            return floor
        closed = self.closed.distances
        d_q = _agreeing("d_q", css.combine_distances(closed["d_0"], closed["d_-1^T"]), floor)
        if self.witness_weight is not None and d_q.value > self.witness_weight:
            raise ContractViolation(
                f"closed-form d_q {d_q.to_json()['value']} exceeds the weight "
                f"{self.witness_weight} of a logical witness"
            )
        return d_q

    @functools.cached_property
    def d_ss(self) -> Distance:
        floor = css.single_shot_distance(self.complex_, self.floor_weight)
        if self.closed is None or self.complex_.length != 4:
            return floor
        closed = self.closed.distances
        return _agreeing("d_ss", css.combine_distances(closed["d_1"], closed["d_-2^T"]), floor)

    def budget(self, bound: bounds.PolyBound) -> decoder.SingleShotBudget:
        t = self.t  # first: a missing threshold fails before any search
        return decoder.single_shot_budget(self.d_ss, t, self.d_q, bound)

    def report_json(self, report: css.CodeReport) -> dict:
        """report's statistics with d_q and d_ss."""
        return {**report.to_json(), "d_q": self.d_q.to_json(), "d_ss": self.d_ss.to_json()}


def cmd_report(args: argparse.Namespace) -> int:
    complex_ = load_stored(args.complex)
    rep = css.code_report(complex_)
    payload = Parameters(complex_, args.max_weight).report_json(rep)
    text = (
        f"[[{rep.n}, {rep.k}]]  d_q: {payload['d_q']}  d_ss: {payload['d_ss']}\n"
        f"max check weight {rep.max_check_weight}, "
        f"mean {float(rep.mean_check_weight):.5f}, "
        f"max qubit degree {rep.max_qubit_degree}, "
        f"redundancy {float(rep.redundancy):.5f}"
    )
    emit(args, payload, text)
    return EXIT_OK


def _code_with_metachecks(complex_: ChainComplex, command: str) -> css.CssCode:
    """The code of complex_, which must carry metachecks for command to run."""
    code = css.from_complex(complex_)
    if not code.has_metachecks:
        raise InputError(
            f"{command} needs a code with metachecks (a length-4 complex, as "
            f"build --stages 2 writes); this complex has length {complex_.length}"
        )
    return code


def _load_syndrome_bits(path: str, bits: int, what: str) -> np.ndarray:
    """The syndrome file at path as a vector: it must hold a 1 x bits
    matrix, bits being what `what` counts, and any other shape is an
    input error that names it."""
    m = _read(path, "syndrome", gf2.read_pcm)
    if m.shape != (1, bits):
        raise InputError(
            f"syndrome has {m.size} bits in a {m.shape[0]} x {m.shape[1]} matrix, "
            f"but {what}: a syndrome is a 1 x {bits} matrix"
        )
    return gf2.flatten_matrix(m)


def _load_syndrome(path: str, code: css.CssCode) -> css.Syndrome:
    want = code.num_z_checks + code.num_x_checks
    v = _load_syndrome_bits(path, want, f"the code has {want} checks")
    return css.Syndrome(v[: code.num_z_checks], v[code.num_z_checks :])


def cmd_decode(args: argparse.Namespace) -> int:
    code = _code_with_metachecks(load_stored(args.complex), "decode")
    s = _load_syndrome(args.syndrome, code)
    result = decoder.single_shot_decode(code, s, args.max_weight)
    payload = {
        "metacheck_failure": result.metacheck_failure,
        "s_rec_weight": result.s_rec.weight(),
        "s_rec_support": _support_1based(
            np.concatenate([result.s_rec.z_part, result.s_rec.x_part])
        ),
        "e_rec_x_support": _support_1based(result.e_rec.e),
        "e_rec_z_support": _support_1based(result.e_rec.f),
        "minimality_certified": result.minimality_certified,
    }
    emit(args, payload, json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _support_1based(v: np.ndarray) -> list[int]:
    return [int(i) + 1 for i in np.flatnonzero(v)]


def cmd_sweep(args: argparse.Namespace) -> int:
    complex_ = load_stored(args.complex)
    code = _code_with_metachecks(complex_, "sweep")
    budget = Parameters(complex_, args.max_weight, d_q=args.dq, t=args.t).budget(args.f)
    report = decoder.adversarial_sweep(
        code, budget, args.umax, args.emax,
        samples=args.samples, seed=args.seed, max_weight=args.max_weight,
    )
    payload = {"budget": budget.to_json(), **report.to_json()}
    text = (
        f"swept {report.pairs_tested} in-contract pairs "
        f"({'sampled' if report.sampled else 'exhaustive'}): "
        f"{len(report.violations)} violations"
    )
    emit(args, payload, text)
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


def _support_vector(entry: dict, key: str, length: int, k: int) -> np.ndarray:
    """0/1 vector of a schedule round's 1-based support list under key."""
    support = entry.get(key, [])
    if not isinstance(support, list):
        raise InputError(f"schedule round {k}: {key} is not a list")
    v = np.zeros(length, dtype=np.uint8)
    for i in support:
        if type(i) is not int or not 1 <= i <= length:
            raise InputError(
                f"schedule round {k}: {key} index {i!r} is not an integer "
                f"in 1..{length}"
            )
        if v[i - 1]:
            raise InputError(f"schedule round {k}: {key} index {i} is given twice")
        v[i - 1] = 1
    return v


def cmd_rounds(args: argparse.Namespace) -> int:
    complex_ = load_stored(args.complex)
    code = _code_with_metachecks(complex_, "rounds")
    raw = _read(args.schedule, "schedule", _read_json)
    if not isinstance(raw, list):
        raise InputError("schedule must be a JSON array of rounds")
    schedule = []
    m = code.num_z_checks + code.num_x_checks
    for k, entry in enumerate(raw, 1):
        if not isinstance(entry, dict):
            raise InputError(f"schedule round {k} is not an object")
        for key in entry:
            if key not in ("e_support", "f_support", "u_support"):
                raise InputError(f"schedule round {k}: unknown key {key!r}")
        e = _support_vector(entry, "e_support", code.n, k)
        f = _support_vector(entry, "f_support", code.n, k)
        u = _support_vector(entry, "u_support", m, k)
        schedule.append((css.PauliError(e, f), u))
    if not schedule:
        raise InputError("schedule is empty")
    schedule = [schedule[k % len(schedule)] for k in range(args.rounds)]
    budget = Parameters(complex_, args.max_weight, d_q=args.dq, t=args.t).budget(args.f)
    records = decoder.simulate_rounds(
        code, budget, schedule, max_weight=args.max_weight
    )
    bad = [
        r for r in records if r.in_contract and r.residual_bounded is not True
    ]
    payload = {
        "budget": budget.to_json(),
        "rounds": [r.to_json() for r in records],
        "in_contract_violations": len(bad),
    }
    emit(
        args,
        payload,
        f"ran {len(records)} rounds; in-contract violations: {len(bad)}",
    )
    return EXIT_OK if not bad else EXIT_COUNTEREXAMPLE


# -- soundness front ends --------------------------------------------------------


def _select_map(complex_: ChainComplex, name: str) -> np.ndarray:
    options = {
        "z": lambda: complex_.delta(0),
        "x": lambda: complex_.delta(-1).T,
        "zt": lambda: complex_.delta(0).T,
        "xt": lambda: complex_.delta(-1),
    }
    if name not in options:
        raise InputError("map must be one of z, x, zt, xt")
    return options[name]()


def cmd_profile(args: argparse.Namespace) -> int:
    delta = _select_map(load_stored(args.complex), args.map)
    profile = soundness.profile_map(delta, args.xmax, args.max_weight)
    payload = profile.to_json()
    text = "syndrome weight -> worst min preimage\n" + "\n".join(
        f"  {x}: {w}" for x, w in sorted(profile.worst.items())
    )
    emit(args, payload, text)
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    complex_ = load_stored(args.complex)
    delta = _select_map(complex_, args.map)
    t = Parameters(complex_, args.max_weight, t=args.t).t
    profile = soundness.certify_map(delta, t.value, args.f)
    payload = profile.to_json()
    emit(args, payload, f"verdict: {profile.verdict.kind} ({profile.verdict.detail})")
    return EXIT_OK if profile.verdict.certified else EXIT_COUNTEREXAMPLE


def cmd_witness(args: argparse.Namespace) -> int:
    complex_ = load_stored(args.complex)
    params = Parameters(complex_, args.max_weight, t=args.t)
    if params.base is None:
        raise InputError("witness generation needs classical.pcm beside the complex")
    h = params.base.delta(0)
    # a single product's syndromes sit at its middle level, a double's at level 1
    level = 0 if complex_.length == 2 else 1
    size = complex_.size(level)
    s = _load_syndrome_bits(args.syndrome, size, f"level {level} of the complex has {size}")
    # the witness bounds are proven only below min(d(H), d(H^T)); above it a
    # remainder term inside the claimed range can have no preimage
    d_h, d_ht = params.classical
    if args.t is not None and args.t > min(d_h.value, d_ht.value):
        raise InputError(
            f"--t {args.t} is above the proven threshold min(d(H), d(H^T)) = "
            f"min({d_h.to_json()['value']}, {d_ht.to_json()['value']})"
        )
    t = params.t
    threshold = None if math.isinf(t.value) else int(t.value)
    try:
        # the loader sets a factor only on a single or double product
        if complex_.length == 2:
            side = {"xt": "from_redundancy", "zt": "from_checks"}.get(args.map)
            if side is None:
                raise InputError("single-product witnesses need --map zt or xt")
            out = soundness.single_product_preimage(h, s, side, threshold, tilde=complex_)
        else:
            out = soundness.double_product_preimage(
                h, complex_.factor, complex_, s, threshold=threshold
            )
    except soundness.PreimageError as exc:
        raise InputError(str(exc)) from exc
    r, flag = out.r, out.bound_guaranteed
    payload = {
        "weight": gf2.weight(r),
        "support": _support_1based(r),
        "bound_guaranteed": flag,
        "syndrome_weight": gf2.weight(s),
    }
    emit(
        args,
        payload,
        f"witness weight {payload['weight']} for syndrome weight "
        f"{payload['syndrome_weight']} (bound guaranteed: {flag})",
    )
    return EXIT_OK


# -- stabiliser front ends --------------------------------------------------------


def _load_checks(path: str) -> stab.SymplecticChecks:
    h = _read(path, "check matrix", gf2.read_pcm)
    try:
        return stab.SymplecticChecks(h)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cmd_diag(args: argparse.Namespace) -> int:
    checks = _load_checks(args.checks)
    diag = stab.diagonalize(checks)
    os.makedirs(args.out, exist_ok=True)
    gf2.write_pcm(os.path.join(args.out, "generators.pcm"), diag.generators)
    # pure error j is Z on qubit j of the transformed frame
    pure = np.eye(diag.num_generators, 2 * diag.n, k=diag.n, dtype=np.uint8)
    gf2.write_pcm(os.path.join(args.out, "pure_errors.pcm"), pure)
    frame = {
        "qubit_permutation": [q + 1 for q in diag.qubit_permutation],
        "local_maps": [m.tolist() for m in diag.local_maps],
    }
    _write_json(os.path.join(args.out, "frame.json"), frame, args.seed)
    verdict = soundness.certify_checks(
        diag.generators, math.inf, bounds.LINEAR
    ) if diag.n <= soundness.PAULI_TABLE_MAX_QUBITS else None
    payload = {
        "generators": diag.num_generators,
        "logical": diag.num_logical,
        "soundness": None if verdict is None else verdict.kind,
    }
    emit(
        args,
        payload,
        f"diagonalized {diag.num_generators} generators on {diag.n} qubits "
        f"({diag.num_logical} logical) -> {args.out}",
    )
    return EXIT_OK


def cmd_barrier(args: argparse.Namespace) -> int:
    checks = _load_checks(args.checks)
    try:
        report = stab.energy_barrier(checks, args.sector)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    payload = report.to_json()
    emit(
        args,
        payload,
        f"{args.sector}-sector energy barrier: {report.barrier} "
        f"(walk of {len(report.walk)} steps to a weight-{report.target_weight} logical)",
    )
    return EXIT_OK


# -- end-to-end pipeline -----------------------------------------------------------


def cmd_pipeline(args: argparse.Namespace) -> int:
    base = _load_base(args.classical, args.allow_redundant)
    h = base.delta(0)
    if gf2.rank(h) == h.shape[1]:
        # no codeword: t = min(d(H), d(H^T)) can be infinite, and certify_map
        # would enumerate syndromes of every weight
        raise InputError(
            f"check matrix {args.classical!r} has k = 0 (rank(H) = n = {h.shape[1]}): "
            "it has no nonzero codeword"
        )
    breve = save_stages(args.out, base, 2)

    params = Parameters(breve, min(args.max_weight, 3))
    report = css.code_report(breve)
    cube = bounds.CUBIC_OVER_4
    budget = params.budget(cube)
    cert_z = soundness.certify_map(breve.delta(0), params.t.value, cube)
    cert_x = soundness.certify_map(breve.delta(-1).T, params.t.value, cube)
    d = params.classical[0].to_json()["value"]
    summary = {
        "classical": {"n": h.shape[1], "checks": h.shape[0], "distance": d},
        "code": params.report_json(report),
        "d_q": params.d_q.to_json(),
        "d_q_witness_upper": params.witness_weight,
        "soundness_z": cert_z.to_json(),
        "soundness_x": cert_x.to_json(),
        "single_shot_budget": budget.to_json(),
    }
    _write_json(os.path.join(args.out, "summary.json"), summary, args.seed)
    certified = cert_z.verdict.certified and cert_x.verdict.certified
    emit(
        args,
        summary,
        f"[[{report.n}, {report.k}, {summary['d_q']['value']}]] "
        f"d_ss={summary['code']['d_ss']['value']} "
        f"soundness={'certified' if certified else 'NOT certified'} "
        f"budgets p={budget.to_json()['measurement_budget']}, "
        f"q={budget.to_json()['qubit_budget']}",
    )
    return EXIT_OK if certified else EXIT_COUNTEREXAMPLE


# -- argument parsing ---------------------------------------------------------------


def _bound(name: str) -> bounds.PolyBound:
    """--f converter: an unknown name is a usage error that lists the valid ones."""
    try:
        return bounds.from_name(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _at_least(floor: int):
    """Converter for a count flag: a value below floor is a usage error."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value

    return convert


def make_parser() -> argparse.ArgumentParser:
    # the global flags, shared by the top level and every command; SUPPRESS
    # leaves a flag unset unless given, so main's namespace holds the defaults
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=_at_least(0), help="RNG seed, recorded in outputs")
    common.add_argument(
        "--max-weight", type=_at_least(1),
        help="enumeration budget for distances, decoding and profile's preimages",
    )
    common.add_argument("--json", dest="json_path", help="write JSON output here")
    common.add_argument("--quiet", action="store_true", help="suppress text output")
    parser = argparse.ArgumentParser(
        prog="homprod",
        parents=[common],
        description="homological-product CSS codes with metachecks: "
        "construction, reporting, decoding, certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=[common])
        p.set_defaults(func=handler)
        return p

    p = add("build", "build a product complex from a classical code", cmd_build)
    p.add_argument("--classical", required=True)
    p.add_argument("--stages", type=int, choices=(1, 2), default=2)
    p.add_argument("--out", required=True)
    p.add_argument("--allow-redundant", action="store_true")

    p = add("report", "code parameters of a stored complex", cmd_report)
    p.add_argument("--complex", required=True)

    p = add("decode", "single-shot decode one syndrome", cmd_decode)
    p.add_argument("--complex", required=True)
    p.add_argument("--syndrome", required=True)

    p = add("sweep", "adversarial (E, u) sweep", cmd_sweep)
    p.add_argument("--complex", required=True)
    p.add_argument("--umax", type=_at_least(0), default=1)
    p.add_argument("--emax", type=_at_least(0), default=2)
    p.add_argument("--samples", type=_at_least(1), default=None)
    p.add_argument("--t", type=_at_least(1), default=None, help="soundness threshold")
    p.add_argument("--dq", type=_at_least(1), default=None, help="code distance override")
    p.add_argument(
        "--f", type=_bound, default="x3",
        help="soundness function (x, x2, x^2/4, x3, x^3/4)",
    )

    p = add("rounds", "multi-round containment simulation", cmd_rounds)
    p.add_argument("--complex", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("-n", dest="rounds", type=_at_least(1), default=10)
    p.add_argument("--t", type=_at_least(1), default=None)
    p.add_argument("--dq", type=_at_least(1), default=None)
    p.add_argument("--f", type=_bound, default="x3")

    p = add("profile", "soundness profile of one boundary map", cmd_profile)
    p.add_argument("--complex", required=True)
    p.add_argument("--map", required=True, help="z, x, zt, or xt")
    p.add_argument("--xmax", type=_at_least(0), default=6)

    p = add("witness", "constructive bounded preimage for a syndrome", cmd_witness)
    p.add_argument("--complex", required=True)
    p.add_argument("--syndrome", required=True)
    p.add_argument("--map", default="zt", help="zt or xt (length-2); ignored for length-4")
    p.add_argument("--t", type=_at_least(1), default=None)

    p = add("certify", "certify a (t, f) soundness claim", cmd_certify)
    p.add_argument("--complex", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--t", type=_at_least(1), default=None)
    p.add_argument("--f", type=_bound, default="x2")

    p = add("diag", "diagonalize a symplectic check set", cmd_diag)
    p.add_argument("--checks", required=True)
    p.add_argument("--out", required=True)

    p = add("barrier", "exact energy barrier by bottleneck search", cmd_barrier)
    p.add_argument("--checks", required=True)
    p.add_argument("--sector", choices=("x", "z", "full"), default="x")

    add("table1", "reproduce the four reference double products", cmd_table1)

    p = add("pipeline", "classical code -> certified single-shot code", cmd_pipeline)
    p.add_argument("--classical", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--allow-redundant", action="store_true")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # a global flag given on either side of the command replaces its default
    # here, and the later of two replaces the earlier
    defaults = argparse.Namespace(
        seed=0, max_weight=chain.DEFAULT_DISTANCE_BUDGET, json_path=None, quiet=False
    )
    args = make_parser().parse_args(argv, defaults)
    try:
        return args.func(args)
    except (InputError, css.NotACssComplex) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        # every read is wrapped as an InputError, so this is a failed write
        print(f"input error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except decoder.BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:
        # numpy's _ArrayMemoryError is one: an allocation no cap foresaw
        print(f"memory exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE


if __name__ == "__main__":
    sys.exit(main())
