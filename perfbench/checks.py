"""Per-job correctness checks.

Analytic jobs are compared with the reference outputs recorded in
``reference.json``: the stdout is split into numbers and the text between
them, the text must match exactly (through its sha256), and every number
must match within 1e-12 relative (absolute below magnitude 1), with NaN
where the reference has NaN.

Oracle jobs are compared with the closed form, computed through the public
API after the job's timed region, so the check does not depend on the
sampler's random stream.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import re
import sys
import zlib
from array import array
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REL_TOL = 1e-12
Z_LIMIT = 6.0

_NUMBER = re.compile(
    r"(?<![\w.])([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan|Infinity|NaN))(?![\w.])"
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def split_numbers(text: str) -> tuple[str, list[float]]:
    """(sha256 of the text with numbers blanked out, the numbers in order)."""
    parts = _NUMBER.split(text)
    skeleton = "\0".join(parts[0::2])
    values = [float(v.replace("Infinity", "inf")) for v in parts[1::2]]
    return sha256(skeleton), values


def encode_values(values: list[float]) -> str:
    raw = array("d", values)
    if sys.byteorder == "big":
        raw.byteswap()
    return base64.b64encode(zlib.compress(raw.tobytes(), 9)).decode("ascii")


def decode_values(blob: str) -> list[float]:
    raw = array("d")
    raw.frombytes(zlib.decompress(base64.b64decode(blob)))
    if sys.byteorder == "big":
        raw.byteswap()
    return raw.tolist()


def reference_record(stdout: str) -> dict:
    skeleton, values = split_numbers(stdout)
    return {"skeleton": skeleton, "values": encode_values(values)}


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload, {})


def _close(got: float, want: float) -> bool:
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def check_reference(ref: dict | None, stdout: str) -> str | None:
    """None when stdout matches the recorded output, else the reason."""
    if ref is None:
        return "no reference output recorded for this job"
    skeleton, values = split_numbers(stdout)
    if skeleton != ref["skeleton"]:
        return "output text differs from the reference"
    want = decode_values(ref["values"])
    if len(values) != len(want):
        return f"{len(values)} numbers, reference has {len(want)}"
    for i, (g, w) in enumerate(zip(values, want)):
        if not _close(g, w):
            return f"number {i}: {g!r} against reference {w!r}"
    return None


# ---------------------------------------------------------------------------
# oracle jobs


def _z_probs(est, exact, trials: int) -> float:
    """Largest |z| of estimated against exact occupancy probabilities.

    The variance is the exact binomial one plus a floor of four squared
    counts, so states with an expected count near zero are not judged by a
    normal approximation that does not hold there.
    """
    worst = 0.0
    for e, p in zip(est, exact):
        se = math.sqrt((trials * p * (1.0 - p) + 4.0)) / trials
        worst = max(worst, abs(e - p) / se)
    return worst


def check_oracle(bl, models: dict, job, stdout: str) -> str | None:
    """None when the estimate is within Z_LIMIT standard errors of the closed form."""
    import numpy as np

    try:
        out = json.loads(stdout)
    except ValueError:
        return "oracle output is not JSON"
    p = job.oracle
    kind = job.argv[1]
    if kind == "chain":
        q = bl.kernel_from_p(p["p11"], p["p22"])
        exact = bl.finite_n_distribution(q, p["theta"], p["K"], p["N"])
        z = _z_probs(out["estimate"], exact, p["trials"])
    elif kind == "ladder":
        model = models["autocorr10"]
        K = p["K"]
        moves = [np.eye(3 * K + 1)]
        for i in (1, 2, 3):
            onehot = np.zeros((3, 3))
            onehot[i - 1, :] = 1.0
            moves.append(bl.ladder_transition(onehot, K, 1))
        rows = bl.evidence_table(model, p["beta"])
        z = 0.0
        for theta in (1, 2, 3):
            step = np.zeros_like(moves[0])
            for row in rows:
                direction = row.direction if row.processed else 0
                step += row.probs[theta - 1] * moves[direction]
            law = np.linalg.matrix_power(step, p["N"])[0]
            z = max(z, _z_probs(out["estimate"][theta - 1], law, p["trials"]))
    else:
        model = models[p["model"]] if p["model"] != "tilt" else bl.tilt_model(p["lam"])
        pi = 0.5
        spec = bl.ProblemSpec(
            pi=pi,
            gamma=p["gamma"],
            prior=bl.PriorModel(rho=pi / (1.0 - pi), sigma_log=p["sigma_log"]),
            K=p["K"],
        )
        strategy = bl.BeliefStrategy(d=p["d"], lam=1.0)
        q = bl.censored_transitions(model, p["beta"])
        exact = bl.finite_n_welfare(q, spec, strategy, p["N"])
        if not out["stderr"] > 0.0:
            return f"zero standard error with estimate {out['estimate']!r}"
        z = abs(out["estimate"] - exact) / out["stderr"]
    if not z <= Z_LIMIT:
        return f"|z| = {z:.2f} exceeds {Z_LIMIT}"
    return None
