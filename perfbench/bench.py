"""Child side of the benchmark.  Each mode runs in a fresh interpreter started
by ``perfbench/run.py`` and prints one JSON object as its last line:

    python3 perfbench/bench.py import
        time one ``import signbalance321``.
    python3 perfbench/bench.py pass WORKLOAD SEED TRACE SPANS_FILE
        one workload pass; with TRACE=1 every public call the pass makes is
        recorded as a span and the spans are written to SPANS_FILE.
    python3 perfbench/bench.py replay SEED SPANS_FILE
        replay every workload's inputs through each module's public
        functions and measure the per-layer metrics listed in layers.json.
    python3 perfbench/bench.py inputs SEED
        write the point-large inputs of SEED under .bench_build/perfbench.
    python3 perfbench/bench.py record
        rewrite expected.json with the digests of the current code's reports.

The package is imported from ``src/`` of the checkout this file sits in, and
nowhere else.  Inputs are built from the seed by this file; the package only
sees the generated inputs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED_FILE = HERE / "expected.json"

ELEMENTWISE_LABELS = (
    "prop2.1",
    "lemma2.2",
    "prop3.1",
    "phi-involution",
    "lemma4.2-parity",
    "prop4.3",
    "thm5.1",
    "srs-matching-consistency",
)
ELEMENTWISE_N = 10
AGGREGATE_LABELS = ("thm1.1", "thm4.1", "eo-identities", "cor4.4")
AGGREGATE_N = 12
STATS_BY = ("lis", "ldes", "lind", "sign")
WARM_ROUNDS = 5
PARALLEL_LABEL = "prop4.3"
PARALLEL_N = 11
PARALLEL_WORKERS = 2
POINT_COUNT = 2000
POINT_MIN_N = 50
POINT_MAX_N = 400
PHI_BRANCHES = ("P-side", "Q-side", "fixed")
PSI_BRANCHES = ("P-side", "Q-phi", "Q-psi-forward", "Q-psi-inverse", "fixed")

pc = time.perf_counter


def import_package():
    sys.path.insert(0, str(SRC))
    import signbalance321

    where = Path(signbalance321.__file__).resolve().parent
    if where != SRC / "signbalance321":
        raise SystemExit(f"imported signbalance321 from {where}, expected {SRC}")
    return signbalance321


def import_with_cli():
    sb = import_package()
    import signbalance321.cli  # noqa: F401  (sets sb.cli)

    return sb


# --------------------------------------------------------------------------
# Tracing

class Tracer:
    """Spans kept in memory and written out once, at the end of the process.

    Each span records its name, start and end (perf_counter seconds), the id
    of the span open around it, and the run id shared by every span of one
    process.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": pc(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = pc()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


class NoTracer:
    """Tracing off: calls go straight through."""

    spans = ()

    def span(self, name: str):
        return contextlib.nullcontext()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


# --------------------------------------------------------------------------
# Output checks

class Checks:
    """Counts checks attempted and failed, keeping the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first) < 5:
                self.first.append(what)
        return ok

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "first": self.first}


def digest(document: str) -> str:
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Document:
    """One rendered report: its digest key, whether it passes, its text."""

    key: str
    passed: bool
    text: str


def check_documents(checks: Checks, expected: dict, documents) -> None:
    for doc in documents:
        checks.expect(doc.passed, f"{doc.key}: does not pass")
        checks.expect(
            expected.get(doc.key) == digest(doc.text), f"{doc.key}: digest differs"
        )


def corrupt(digest_map: dict, key: str) -> dict:
    out = dict(digest_map)
    out[key] = "0" * 64 if out.get(key) != "0" * 64 else "f" * 64
    return out


# Independent oracles on one-line value tuples, used to check the maps'
# images without calling back into the package.

def oracle_sign(values) -> int:
    """(-1)^(n - number of cycles)."""
    seen = [False] * (len(values) + 1)
    cycles = 0
    for start in range(1, len(values) + 1):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = values[x - 1]
    return -1 if (len(values) - cycles) % 2 else 1


def oracle_lis(values) -> int:
    tails: list[int] = []
    for x in values:
        i = bisect_right(tails, x)
        if i == len(tails):
            tails.append(x)
        else:
            tails[i] = x
    return len(tails)


def oracle_ldes(values) -> int:
    for i in range(len(values) - 1, 0, -1):
        if values[i - 1] > values[i]:
            return i
    return 0


# --------------------------------------------------------------------------
# Seeded inputs

def shuffled(items, seed: int, salt: str) -> list:
    out = list(items)
    random.Random(f"{salt}:{seed}").shuffle(out)
    return out


@lru_cache(maxsize=None)
def _cumulative_weights(n: int) -> tuple[int, ...]:
    """Cumulative B(n, k)^2 over k: the number of 321-avoiding permutations
    of size n whose ballot pair has k entries +1."""
    acc, total = [], 0
    for k in range(n + 1):
        num = 2 * k - n + 1
        b = num * comb(n + 1, k + 1) // (n + 1) if num > 0 else 0
        total += b * b
        acc.append(total)
    return tuple(acc)


def random_ballot(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    """A uniform ballot sequence of length n with k entries +1 (2k >= n).

    Cycle lemma: of the n + 1 rotations of a shuffled word with k + 1 ups
    and n - k downs, exactly 2k + 1 - n have all prefix sums positive;
    a uniform one of them, less its leading up, is uniform among ballot
    sequences.
    """
    steps = [1] * (k + 1) + [-1] * (n - k)
    rng.shuffle(steps)
    size = n + 1
    prefix = [0] * (size + 1)
    for i, s in enumerate(steps):
        prefix[i + 1] = prefix[i] + s
    total = prefix[size]
    suffix_min = [0] * (size + 1)
    suffix_min[size] = float("inf")
    for i in range(size - 1, -1, -1):
        suffix_min[i] = min(prefix[i + 1], suffix_min[i + 1])
    good = []
    running_min = float("inf")
    for i in range(size):
        if prefix[i] < suffix_min[i] and prefix[i] - running_min < total:
            good.append(i)
        running_min = min(running_min, prefix[i + 1])
    assert len(good) == total, (len(good), total)
    start = rng.choice(good)
    rotated = steps[start:] + steps[:start]
    return tuple(rotated[1:])


def point_inputs(seed: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """POINT_COUNT same-weight ballot pairs.  Sizes are spread evenly over
    POINT_MIN_N..POINT_MAX_N for every seed; the seed picks their order, the
    weight k (with the uniform-permutation weight B(n, k)^2) and the pair."""
    rng = random.Random(f"point-large:{seed}")
    span = POINT_MAX_N - POINT_MIN_N + 1
    sizes = [POINT_MIN_N + i * span // POINT_COUNT for i in range(POINT_COUNT)]
    rng.shuffle(sizes)
    pairs = []
    for n in sizes:
        acc = _cumulative_weights(n)
        k = bisect_right(acc, rng.randrange(acc[-1]))
        pairs.append((random_ballot(rng, n, k), random_ballot(rng, n, k)))
    return pairs


def inputs_file(seed: int) -> Path:
    return HERE.parent / ".bench_build" / "perfbench" / f"inputs-point-large-seed{seed}.json"


def write_point_inputs(seed: int) -> dict:
    """Generate point_inputs(seed) once per run, outside every timed and
    memory-measured process."""
    pairs = point_inputs(seed)
    path = inputs_file(seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pairs, fh)
    return {"pairs": len(pairs)}


def read_point_inputs(seed: int):
    with open(inputs_file(seed), encoding="utf-8") as fh:
        return [(tuple(p), tuple(q)) for p, q in json.load(fh)]


def build_point_perms(sb, pairs):
    """Permutations of the ballot pairs, through the public inverse_rsk."""
    out = []
    for p, q in pairs:
        pair = sb.TableauPair(
            sb.ballot_to_tableau(sb.BallotSequence(p)),
            sb.ballot_to_tableau(sb.BallotSequence(q)),
        )
        out.append((sb.inverse_rsk(pair), pair))
    return out


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def perms_in_verify(sb, label: str, n_max: int) -> int:
    return sum(catalan(n) for n in sb.identities.applicable_sizes(label, n_max))


# --------------------------------------------------------------------------
# Workload passes.  Each returns (ops, perms, documents, sample): the wall
# times, in seconds, of the workload's operations in order; the permutations
# they cover; the rendered reports; and, on point-large, the first
# permutation's map results for the negative self-check.

def _verify_doc(sb, tr, label, n_max, workers=1) -> Document:
    report = tr.call("identities.verify", sb.verify, label, n_max, workers=workers)
    text = tr.call("identities.report_json", sb.report_json, report)
    return Document(f"verify {label} {n_max}", report.passed, text)


def _stats_doc(sb, tr, by) -> Document:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tr.call(
            "cli.main.stats",
            sb.cli.main,
            ["stats", "--n", str(AGGREGATE_N), "--by", by, "--json"],
        )
    return Document(f"stats {by} {AGGREGATE_N}", code == 0, buf.getvalue())


def _timed_ops(tr, checks, thunks):
    """Run each (name, thunk) as one operation; a call that raises counts as
    a failed check."""
    ops, docs = [], []
    for name, thunk in thunks:
        t0 = pc()
        try:
            with tr.span(name):
                docs.append(thunk())
        except Exception as exc:  # keep measuring; the failure is counted
            checks.expect(False, f"{name}: raised {exc!r}")
        ops.append(pc() - t0)
    return ops, docs


def pass_sweep_elementwise(sb, seed, tr, checks):
    labels = shuffled(ELEMENTWISE_LABELS, seed, "sweep-elementwise")
    ops, docs = _timed_ops(
        tr,
        checks,
        [(f"op verify {lb}", partial(_verify_doc, sb, tr, lb, ELEMENTWISE_N)) for lb in labels],
    )
    perms = sum(perms_in_verify(sb, lb, ELEMENTWISE_N) for lb in labels)
    return ops, perms, docs, None


def pass_sweep_aggregate(sb, seed, tr, checks):
    # The first verify pays the cold _joint_rows sweep.  It is always
    # thm1.1, so every seed times the same cold call.  The warm calls that
    # follow take milliseconds; they are repeated so that their latency is
    # taken over many samples.  Repeats are not counted in perms.
    first, *rest = AGGREGATE_LABELS
    labels = shuffled(rest, seed, "sweep-aggregate")
    stats = shuffled(STATS_BY, seed, "sweep-aggregate-stats")
    thunks = [(f"op verify {first}", partial(_verify_doc, sb, tr, first, AGGREGATE_N))]
    for _ in range(WARM_ROUNDS):
        thunks += [(f"op verify {lb}", partial(_verify_doc, sb, tr, lb, AGGREGATE_N)) for lb in labels]
        thunks += [(f"op stats {by}", partial(_stats_doc, sb, tr, by)) for by in stats]
    ops, docs = _timed_ops(tr, checks, thunks)
    perms = sum(perms_in_verify(sb, lb, AGGREGATE_N) for lb in AGGREGATE_LABELS)
    perms += len(stats) * catalan(AGGREGATE_N)
    return ops, perms, docs, None


def pass_verify_parallel(sb, seed, tr, checks):
    thunk = partial(_verify_doc, sb, tr, PARALLEL_LABEL, PARALLEL_N, PARALLEL_WORKERS)
    ops, docs = _timed_ops(tr, checks, [(f"op verify {PARALLEL_LABEL}", thunk)])
    return ops, perms_in_verify(sb, PARALLEL_LABEL, PARALLEL_N), docs, None


@dataclass(frozen=True)
class MapSet:
    """Results of one permutation's full set of public map calls."""

    pair: object
    phi1: object
    phi2: object
    psi1: object
    psi2: object
    shifted: object
    unshifted: object
    pairs: tuple
    srs: int
    sign_inv: int
    sign_srs: int
    lis: int
    ldes: int
    lind: int


def map_set(sb, tr, w) -> MapSet:
    c = tr.call
    phi1 = c("involutions.capital_phi", sb.capital_phi, w)
    psi1 = c("involutions.capital_psi", sb.capital_psi, w)
    shifted = c("involutions.ldes_lind_bijection", sb.ldes_lind_bijection, w)
    return MapSet(
        pair=c("tableaux.rsk", sb.rsk, w),
        phi1=phi1,
        phi2=c("involutions.capital_phi", sb.capital_phi, phi1.image),
        psi1=psi1,
        psi2=c("involutions.capital_psi", sb.capital_psi, psi1.image),
        shifted=shifted,
        unshifted=c("involutions.ldes_lind_inverse", sb.ldes_lind_inverse, shifted),
        pairs=c("matching.match_pairs", sb.match_pairs, w).pairs,
        srs=c("matching.srs", sb.srs, w, cross_check=True),
        sign_inv=c("permutations.sign_by_inversions", sb.sign_by_inversions, w),
        sign_srs=c("matching.sign_by_srs", sb.sign_by_srs, w),
        lis=c("permutations.lis_oracle", sb.lis_oracle, w),
        ldes=c("permutations.ldes", sb.ldes, w),
        lind=c("permutations.lind", sb.lind, w),
    )


def check_map_set(checks: Checks, w, pair, r: MapSet) -> None:
    v = w.values
    n = len(v)
    sign, lis, ldes = oracle_sign(v), oracle_lis(v), oracle_ldes(v)
    tag = f"n={n} {v[:8]}..."
    checks.expect(r.pair == pair, f"{tag}: rsk(inverse_rsk(x)) != x")
    for name, first, second in (("Phi", r.phi1, r.phi2), ("Psi", r.psi1, r.psi2)):
        img = first.image.values
        checks.expect(second.image.values == v, f"{tag}: {name} is not involutive")
        checks.expect(oracle_lis(img) == lis, f"{tag}: {name} changes lis")
        if first.fixed:
            ok = img == v
        else:
            ok = oracle_sign(img) == -sign
        checks.expect(ok, f"{tag}: {name} does not reverse the sign off fixed points")
    checks.expect(
        oracle_ldes(r.psi1.image.values) == ldes, f"{tag}: Psi changes ldes"
    )
    shifted = r.shifted.values
    checks.expect(
        shifted.index(n) + 1 == ldes + 1, f"{tag}: ldes_lind_bijection misplaces n"
    )
    checks.expect(r.unshifted.values == v, f"{tag}: ldes_lind_inverse does not undo")
    checks.expect(
        r.sign_srs == r.sign_inv == sign, f"{tag}: sign_by_srs != sign_by_inversions"
    )
    checks.expect(
        (r.lis, r.ldes, r.lind) == (lis, ldes, v.index(n) + 1),
        f"{tag}: lis/ldes/lind differ from the oracle",
    )
    checks.expect(
        len(r.pairs) == n - lis
        and r.srs == sum(v[i - 1] + j for i, j in r.pairs),
        f"{tag}: matching disagrees with srs",
    )


def pass_point_large(sb, seed, tr, checks):
    perms = build_point_perms(sb, read_point_inputs(seed))
    ops = []
    first = None
    for w, pair in perms:
        t0 = pc()
        try:
            with tr.span("op map-set"):
                result = map_set(sb, tr, w)
        except Exception as exc:  # keep measuring; the failure is counted
            ops.append(pc() - t0)
            checks.expect(False, f"n={w.n}: map call raised {exc!r}")
            continue
        ops.append(pc() - t0)
        check_map_set(checks, w, pair, result)
        if first is None:
            first = (w, pair, result)
    return ops, len(perms), [], first


PASSES = {
    "sweep-elementwise": pass_sweep_elementwise,
    "sweep-aggregate": pass_sweep_aggregate,
    "point-large": pass_point_large,
    "verify-parallel": pass_verify_parallel,
}


def negative_self_check(expected: dict, docs, sample) -> dict:
    """Feed the checks one corrupted expectation and one corrupted property;
    each must be caught, so the gate cannot pass vacuously."""
    bad_digest, bad_property = Checks(), Checks()
    if docs:
        doc = docs[0]
        check_documents(bad_digest, corrupt(expected, doc.key), [doc])
        check_documents(bad_property, expected, [replace(doc, passed=False)])
    else:
        # point-large renders no reports: check a recorded key against a
        # document that is not the recorded one.
        key = min(expected)
        check_documents(bad_digest, expected, [Document(key, True, "")])
    if sample is not None:
        w, pair, r = sample
        check_map_set(bad_property, w, pair, replace(r, sign_srs=-r.sign_srs))
    return {
        "digest_error_rate": bad_digest.failed / max(bad_digest.attempted, 1),
        "property_error_rate": bad_property.failed / max(bad_property.attempted, 1),
    }


def run_pass(workload: str, seed: int, trace: bool, spans_file: str) -> dict:
    sb = import_with_cli()
    tr = Tracer(f"{workload}-{seed}-pass") if trace else NoTracer()
    checks = Checks()
    expected = load_expected()
    with tr.span(f"pass {workload}"):
        ops, perms, docs, sample = PASSES[workload](sb, seed, tr, checks)
    check_documents(checks, expected, docs)
    selfcheck = negative_self_check(expected, docs, sample)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        tr.write(spans_file)
    return {
        "ops": ops,
        "wall_s": sum(ops),
        "perms": perms,
        "peak_rss_mib": rss_kib / 1024,
        "checks": checks.as_dict(),
        "selfcheck": selfcheck,
        "spans": len(tr.spans),
    }


# --------------------------------------------------------------------------
# Per-layer replay

def per_call_us(tr, name, fn, inputs, reps=3) -> float:
    """Median over reps of one batch over all inputs, per input, in µs."""
    times = []
    for _ in range(reps):
        with tr.span(name):
            t0 = pc()
            for x in inputs:
                fn(x)
            times.append(pc() - t0)
    return statistics.median(times) / len(inputs) * 1e6


def _timed(tr, name, fn, *args, **kwargs):
    t0 = pc()
    out = tr.call(name, fn, *args, **kwargs)
    return out, pc() - t0


def run_replay(seed: int, spans_file: str) -> dict:
    sb = import_with_cli()
    tr = Tracer(f"replay-{seed}")
    checks = Checks()
    m: dict[str, float] = {}

    # sweep-aggregate: the cold enumeration sweep comes first in this
    # process, as it does in the workload.
    _, m["enumeration.signed_distribution.cold_s"] = _timed(
        tr, "enumeration.signed_distribution", sb.signed_distribution, AGGREGATE_N, "lis"
    )
    m["enumeration.signed_distribution.warm_us"] = per_call_us(
        tr,
        "enumeration.signed_distribution",
        lambda s: sb.signed_distribution(AGGREGATE_N, s),
        ["lis", "ldes", "lind"] * 50,
    )
    for label in AGGREGATE_LABELS:
        check, m[f"identities.check_identity_at.{label}.n{AGGREGATE_N}.s"] = _timed(
            tr, "identities.check_identity_at", sb.check_identity_at, label, AGGREGATE_N
        )
        checks.expect(check.passed, f"{label} n={AGGREGATE_N} does not pass")
    reports = [sb.verify(label, AGGREGATE_N) for label in AGGREGATE_LABELS]
    m["identities.report_json.ms"] = (
        per_call_us(tr, "identities.report_json", sb.report_json, reports * 10) / 1000
    )
    with contextlib.redirect_stdout(io.StringIO()):
        m["cli.main.stats.ms"] = (
            per_call_us(
                tr,
                "cli.main.stats",
                lambda by: sb.cli.main(["stats", "--n", str(AGGREGATE_N), "--by", by, "--json"]),
                list(STATS_BY) * 5,
            )
            / 1000
        )

    # sweep-elementwise: enumeration of T_1..T_10.
    times = []
    for _ in range(3):
        with tr.span("enumeration.generate_Tn_ballot"):
            t0 = pc()
            sizes = [list(sb.generate_Tn_ballot(n)) for n in range(1, ELEMENTWISE_N + 1)]
            times.append(pc() - t0)
    visited = sum(len(s) for s in sizes)
    checks.expect(
        visited == sum(catalan(n) for n in range(1, ELEMENTWISE_N + 1)),
        f"generate_Tn_ballot visited {visited} permutations",
    )
    m["enumeration.perms_visited"] = visited
    m["enumeration.generate_Tn_ballot.us_per_perm"] = statistics.median(times) / visited * 1e6
    t10 = sizes[-1]
    del sizes

    # Per-call probes on a fixed eighth of T_10 and on a size-stratified
    # seventh of the point-large inputs.
    small = t10[::8]
    built = build_point_perms(sb, read_point_inputs(seed))
    large = sorted((w for w, _pair in built), key=lambda w: w.n)[::7]
    probes = (
        ("permutations.Permutation", sb.Permutation, lambda w: w.values),
        ("permutations.sign_by_inversions", sb.sign_by_inversions, None),
        ("permutations.lis_oracle", sb.lis_oracle, None),
        ("permutations.ldes", sb.ldes, None),
        ("tableaux.rsk", sb.rsk, None),
        ("tableaux.inverse_rsk", sb.inverse_rsk, sb.rsk),
        ("involutions.capital_phi", sb.capital_phi, None),
        ("involutions.capital_psi", sb.capital_psi, None),
        ("involutions.ldes_lind_bijection", sb.ldes_lind_bijection, None),
        ("matching.match_pairs", sb.match_pairs, None),
        ("matching.srs", partial(sb.srs, cross_check=True), None),
    )
    for suffix, perms in (("", large), ("_n10", small)):
        for name, fn, prepare in probes:
            inputs = [prepare(w) for w in perms] if prepare else perms
            m[f"{name}.us_per_call{suffix}"] = per_call_us(tr, name, fn, inputs)

    # ballots at length 10, as prop3.1 and lemma4.2-parity walk them.
    seqs = []
    times = []
    for _ in range(10):
        with tr.span("ballots.generate_ballot_sequences"):
            t0 = pc()
            seqs = list(sb.generate_ballot_sequences(ELEMENTWISE_N))
            times.append(pc() - t0)
    m["ballots.generate_ballot_sequences.us_per_seq"] = statistics.median(times) / len(seqs) * 1e6
    m["ballots.classify.us_per_call"] = per_call_us(tr, "ballots.classify", sb.classify, seqs, reps=10)
    swappable = [b for b in seqs if sb.epsilon(b) > 0]
    m["ballots.phi.us_per_call"] = per_call_us(tr, "ballots.phi", sb.phi, swappable, reps=10)

    matched = [(w, pair) for w in small for pair in sb.match_pairs(w).pairs]
    m["matching.region_counts.us_per_call"] = per_call_us(
        tr, "matching.region_counts", lambda x: sb.region_counts(*x), matched
    )

    # Exact branch counts of Phi and Psi over T_10.
    for map_name, fn, branches in (
        ("capital_phi", sb.capital_phi, PHI_BRANCHES),
        ("capital_psi", sb.capital_psi, PSI_BRANCHES),
    ):
        counts = dict.fromkeys(branches, 0)
        with tr.span(f"involutions.{map_name} branches"):
            for w in t10:
                b = fn(w).branch
                checks.expect(b in counts, f"{map_name}: unknown branch {b!r}")
                counts[b] = counts.get(b, 0) + 1
        for b in branches:
            m[f"involutions.{map_name}.branch.{b}"] = counts[b]
    del t10

    for label in ELEMENTWISE_LABELS:
        check, m[f"identities.check_identity_at.{label}.n{ELEMENTWISE_N}.s"] = _timed(
            tr, "identities.check_identity_at", sb.check_identity_at, label, ELEMENTWISE_N
        )
        checks.expect(check.passed, f"{label} n={ELEMENTWISE_N} does not pass")

    # verify-parallel: how much of the parallel verify the largest size takes.
    check, largest = _timed(
        tr, "identities.check_identity_at", sb.check_identity_at, PARALLEL_LABEL, PARALLEL_N
    )
    checks.expect(check.passed, f"{PARALLEL_LABEL} n={PARALLEL_N} does not pass")
    m[f"identities.check_identity_at.{PARALLEL_LABEL}.n{PARALLEL_N}.s"] = largest
    report, whole = _timed(
        tr, "identities.verify", sb.verify, PARALLEL_LABEL, PARALLEL_N, workers=PARALLEL_WORKERS
    )
    checks.expect(report.passed, f"{PARALLEL_LABEL} verify does not pass")
    m["identities.verify.largest_size_share"] = largest / whole

    tr.write(spans_file)
    return {"metrics": m, "checks": checks.as_dict(), "spans": len(tr.spans)}


# --------------------------------------------------------------------------

def run_import() -> dict:
    t0 = pc()
    import_package()
    return {"import_s": pc() - t0}


def run_record() -> dict:
    """Digests of every report the workloads render, from the current code."""
    sb = import_with_cli()
    tr = NoTracer()
    docs = [_verify_doc(sb, tr, lb, ELEMENTWISE_N) for lb in ELEMENTWISE_LABELS]
    docs += [_verify_doc(sb, tr, lb, AGGREGATE_N) for lb in AGGREGATE_LABELS]
    docs += [_stats_doc(sb, tr, by) for by in STATS_BY]
    docs.append(_verify_doc(sb, tr, PARALLEL_LABEL, PARALLEL_N, PARALLEL_WORKERS))
    failing = [d.key for d in docs if not d.passed]
    if failing:
        raise SystemExit(f"refusing to record failing reports: {failing}")
    table = {d.key: digest(d.text) for d in docs}
    with open(EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"recorded": len(table)}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "import":
        out = run_import()
    elif mode == "pass":
        workload, seed, trace, spans_file = argv[1], int(argv[2]), argv[3] == "1", argv[4]
        out = run_pass(workload, seed, trace, spans_file)
    elif mode == "replay":
        out = run_replay(int(argv[1]), argv[2])
    elif mode == "inputs":
        out = write_point_inputs(int(argv[1]))
    elif mode == "record":
        out = run_record()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
