"""Self-test of the benchmark on tiny geometries.

    python3 benchmark/selftest.py

Runs every workload end to end on a small geometry, checks that its outputs
pass, then corrupts one output per check and requires the check to reject it:
one flipped decoded bit (chain), one flipped extractor-level bit and a
perturbed divergence (covert), a shifted detector mean (detect).  It also
checks the reference computations on small cases, that a traced run of
each workload calls exactly the traced functions it is documented to call,
the span recorder's self-time arithmetic and restore, and that ``run.py``
exits non-zero without printing a result where the library is absent.  Exit
code 0 when all pass.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from covertppm import channels, polar, ppm  # noqa: E402

import reference as ref  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    ChainGeometry, ChainWorkload, CovertGeometry, CovertWorkload,
    DetectGeometry, DetectWorkload,
)

SEED = 7
TINY = {
    ChainWorkload: ChainGeometry(q=2, ell=64, rate_scale=0.5, construction_trials=200,
                                 reencoded_rounds=2),
    CovertWorkload: CovertGeometry(q=9, ell=8, construction_trials=50, checked_blocks=4),
    DetectWorkload: DetectGeometry(n=64, k=16, round_trials=2000),
}

failures: list[str] = []


def expect(cond: bool, what: str):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run_tiny(cls, rounds: int = 2, recorder=None):
    wl = cls(SEED, TINY[cls])
    with recorder.installed() if recorder else spans.patched([]):
        with wl.hooks():
            wl.setup()
            for r in range(rounds):
                wl.run_round(r)
    return wl


def rejects(wl, what: str):
    failed, problems = wl.evaluate()
    expect(bool(problems), f"{wl.name}: check rejects {what}")
    return failed


def test_chain():
    wl = run_tiny(ChainWorkload)
    failed, problems = wl.evaluate()
    expect(failed == 0 and not problems, f"{wl.name}: tiny run passes ({problems})")
    decoded = wl.rounds[0][1]
    level = min(decoded[0])
    good = decoded[0][level]
    decoded[0][level] = good ^ np.eye(1, good.shape[0], dtype=np.uint8)[0]
    expect(rejects(wl, "one flipped decoded bit") == 1, f"{wl.name}: flipped bit counts as failed")
    decoded[0][level] = good


def test_covert():
    wl = run_tiny(CovertWorkload)
    failed, problems = wl.evaluate()
    expect(failed == 0 and not problems, f"{wl.name}: tiny run passes ({problems})")
    est, sent = wl.rounds[0]
    tx = sent[0]
    bits = tx.level_bits.copy()
    bits[wl.session.u, 0] ^= 1
    sent[0] = dataclasses.replace(tx, level_bits=bits)
    rejects(wl, "one flipped extractor-level bit")
    sent[0] = tx
    wl.rounds[0] = (dataclasses.replace(est, d_qppm_q0_exact=est.d_qppm_q0_exact * (1 + 1e-7)),
                    sent)
    rejects(wl, "a perturbed divergence")
    wl.rounds[0] = (est, sent)


def test_detect():
    wl = run_tiny(DetectWorkload)
    failed, problems = wl.evaluate()
    expect(failed == 0 and not problems, f"{wl.name}: tiny run passes ({problems})")
    rep = wl.rounds[0]
    _, _, var1 = ref.detector_moments(wl.willie.row0, wl.willie.row1)
    sigma = (var1 / (wl.geo.k * wl.geo.round_trials)) ** 0.5
    wl.rounds[0] = dataclasses.replace(rep, mean_t_h1=rep.mean_t_h1 + 10 * sigma)
    rejects(wl, "a shifted detector mean")
    wl.rounds[0] = rep


def test_references():
    rng = np.random.default_rng(SEED)
    g = ref.kron_generator(64)
    same = all(np.array_equal(ref.encode_reference(g, u), polar.polar_transform(u))
               for u in rng.integers(0, 2, size=(20, 64), dtype=np.uint8))
    expect(same, "reference: u G_64 equals the polar transform")

    def clmul_mod(a: int, b: int, f: int) -> int:  # integer shift-and-add
        w, out = f.bit_length() - 1, 0
        for t in range(b.bit_length()):
            if (b >> t) & 1:
                out ^= a << t
        for d in range(out.bit_length() - 1, w - 1, -1):
            if (out >> d) & 1:
                out ^= f << (d - w)
        return out

    f = (1 << 64) | 0b11011  # x^64 + x^4 + x^3 + x + 1
    ok = True
    for _ in range(20):
        a, b = (int(v) for v in rng.integers(0, 2**63, size=2))
        bits = ref.gf2w_mul(ref.int_bits(a, 64), ref.int_bits(b, 64), ref.int_bits(f, 65))
        ok &= np.array_equal(bits, ref.int_bits(clmul_mod(a, b, f), 64))
    expect(ok, "reference: schoolbook GF(2^64) product equals shift-and-add")
    wil = channels.bsc(0.1)
    d = ref.ppm_divergence(wil.row0, wil.row1, 64, 3)
    expect(abs(d - 3 * ppm.ppm_output_divergence(wil, 64)) <= 1e-12 * d,
           "reference: binomial divergence equals the library's at m=64")


#: traced functions each workload calls; a traced run must show calls of
#: these and of no other (README, "Which end-to-end metric each layer should
#: move")
SESSION_CALLS = {
    "codec.build_session", "codec.encode_block", "codec.transmit_block",
    "codec.level_llr_sampler", "polar.construct_code", "polar.polar_transform",
    "levels.msd_rate_plan", "levels.level_llrs", "levels.select_positions_batch",
    "ppm.transmit_super", "ppm.frame_from_bits", "ppm.ppm_output_divergence",
}
CALLS = {
    ChainWorkload: SESSION_CALLS | {"codec.decode_block", "codec.run_chain",
                                    "polar.sc_decode"},
    CovertWorkload: SESSION_CALLS | {
        "extractor.make_field", "extractor.is_irreducible", "extractor.inv",
        "extractor.bits_to_int", "extractor.int_to_bits", "adversary.covertness_estimate"},
    DetectWorkload: {"adversary.detect_linear_code", "adversary.distinct_column_set"},
}


def library_attributes() -> dict:
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name.split(".")[0] == "covertppm" for attr, value in vars(mod).items()}


def test_spans():
    before = library_attributes()
    for cls, called in CALLS.items():
        rec = spans.SpanRecorder()
        wl = run_tiny(cls, rounds=1, recorder=rec)
        m = rec.metrics()
        wrong = [fn for fn in spans.TRACED if (m[f"{fn}.calls"] > 0) != (fn in called)]
        expect(not wrong, f"spans: {wl.name} calls exactly its traced functions "
                          f"(wrong: {wrong})")
        expect(all(m[f"{fn}.self_s"] <= m[f"{fn}.total_s"] + 1e-9 for fn in spans.TRACED),
               f"spans: {wl.name} self time never exceeds busy time")
        if cls is ChainWorkload:
            B, u = wl.chain_blocks, wl.session.u
            expect(m["polar.sc_decode.calls"] == B * u and
                   m["polar.sc_decode.bits"] == B * u * wl.geo.ell,
                   "spans: sc_decode calls and bits")
            expect(m["codec.level_llr_sampler.llrs"] > 0, "spans: sampler draws counted")
        if cls is CovertWorkload:
            expect(m["ppm.transmit_super.symbols"] > 0, "spans: channel outputs counted")
    after = library_attributes()
    expect(all(after.get(k) is v for k, v in before.items()),
           "spans: originals restored after the runs")

    rec = spans.SpanRecorder()
    inner = rec.wrap("polar.construct_code", lambda: time.sleep(0.02))
    outer = rec.wrap("codec.build_session", lambda: (inner(), time.sleep(0.02)))
    outer()
    m = rec.metrics()
    expect(abs(m["codec.build_session.self_s"]
               - (m["codec.build_session.total_s"] - m["polar.construct_code.total_s"])) < 1e-9
           and m["codec.build_session.self_s"] >= 0.015,
           "spans: self time = busy time minus traced children")


def test_missing_library():
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run(
            [sys.executable, *cmd[1:], "--workload", "detect-k128", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"run.py without the library exits {proc.returncode} and prints no result")


def main() -> int:
    for test in (test_references, test_spans, test_chain, test_covert, test_detect,
                 test_missing_library):
        test()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
