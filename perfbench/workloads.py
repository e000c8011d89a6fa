"""The benchmark's workloads: seeded inputs, one closed-loop client, golden gate.

Each workload hands the engine only token lists (or verify flags) generated
from the seed, times every operation with the host-speed probe, and checks
every output against a golden derived from `oracle_forward_swa` after the
timed loop, so the oracle's cost and memory stay out of the measurements.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io

import numpy as np

#: Larger desk preset for long prefill: 64-row chunks, 16 chunks at most.
DESK = dict(
    dim=128, n_layers=6, head_dim=16, hidden_dim=384,
    n_heads=8, n_kv_heads=2, window_size=64, context_len=2048, vocab_size=1024,
)


def digest(row) -> str:
    return hashlib.sha256(np.ascontiguousarray(row, dtype=np.float32).tobytes()).hexdigest()


@dataclasses.dataclass
class Stats:
    """Everything a run records: per-operation times, work counts, failures."""

    raw: dict = dataclasses.field(default_factory=dict)      # series -> [seconds]
    scaled: dict = dataclasses.field(default_factory=dict)   # series -> [seconds]
    work: dict = dataclasses.field(default_factory=dict)     # counter -> int
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    cache_bytes: int = 0
    peak_rss_mib: float = 0.0
    notes: list = dataclasses.field(default_factory=list)

    def add(self, series, raw, scaled):
        self.raw.setdefault(series, []).append(raw)
        self.scaled.setdefault(series, []).append(scaled)

    def count(self, counter, n=1):
        self.work[counter] = self.work.get(counter, 0) + n

    def fail(self, note):
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


@dataclasses.dataclass(frozen=True)
class Request:
    prompt: tuple
    n_new: int  # tokens sampled; the last one is not fed back


class Generation:
    """Shared generation client: prefill plus first sample, then decode steps."""

    whole_cycles = False
    warm_up_prompt = [0]
    warm_up_tokens = 2

    def __init__(self, m, rng, seed):
        self.rng = rng
        self.vocab_size = self.make_config(m).vocab_size

    @classmethod
    def warm_up(cls, m, weights, seed):
        m.model.GenerationSession(weights).generate(cls.warm_up_prompt, cls.warm_up_tokens)

    def run(self, m, weights, request, probe, stats):
        greedy = m.model.SamplerSpec()
        session = m.model.GenerationSession(weights)

        def first():
            logits = session.prefill(list(request.prompt))
            return logits, m.model.sample_token(logits, greedy, None)

        def step(token):
            logits = session.forward_decode(token)
            return logits, m.model.sample_token(logits, greedy, None)

        (logits, token), raw, scaled = probe.time(first)
        stats.add("ttft", raw, scaled)
        stats.count("prompt_tokens", len(request.prompt))
        tokens, digests = [token], [digest(logits)]
        while len(tokens) < request.n_new:
            (logits, token), raw, scaled = probe.time(step, tokens[-1])
            stats.add("itl", raw, scaled)
            stats.count("decode_tokens")
            tokens.append(token)
            digests.append(digest(logits))
        stats.cache_bytes = session.total_cache_bytes
        return request, tokens, digests

    def gate(self, m, weights, outputs, stats):
        """Compare each output with the oracle's greedy stream and logits.

        The oracle runs once over prompt + sampled tokens. Its argmax at each
        position is the greedy token the engine must have sampled there; by
        induction, equality at every position means the engine stream is the
        oracle's own greedy stream. The logits behind every sampled token,
        from prefill and from each decode step, must match bit for bit.
        """
        goldens = {}
        for request, tokens, digests in outputs:
            key = (request, tuple(tokens))
            if key not in goldens:
                seq = list(request.prompt) + tokens[:-1]
                logits = m.oracle.oracle_forward_swa(weights, weights.config, seq)
                rows = logits[len(request.prompt) - 1:]
                goldens[key] = ([int(np.argmax(row)) for row in rows], [digest(row) for row in rows])
            if goldens[key] != (tokens, digests):
                stats.mismatched += 1
                stats.fail(f"golden mismatch on a prompt of {len(request.prompt)} tokens")


class DecodeSteady(Generation):
    """Toy preset; prompts of 1-8 tokens, greedy decode up to position 120."""

    name = "decode_steady"
    latency_series, work_counter = "itl", "decode_tokens"
    probe_shapes = ((1, 64, 256),)
    probe_period_s = None  # steps are shorter than a period; probes between them suffice
    last_position = 120

    @staticmethod
    def make_config(m):
        return m.config.PRESET_TOY

    def cycle(self):
        requests = []
        for length in self.rng.permutation(np.arange(1, 9)):
            prompt = tuple(int(t) for t in self.rng.integers(0, self.vocab_size, size=length))
            requests.append(Request(prompt, self.last_position + 1 - int(length)))
        return requests


class PrefillLong(Generation):
    """Desk preset; a pool of five long prompts, each a prefill plus one sample."""

    name = "prefill_long"
    latency_series, work_counter = "ttft", "prompt_tokens"
    probe_shapes = ((1, 64, 256), (64, 32, 128))
    probe_period_s = 0.025
    whole_cycles = True
    warm_up_prompt = list(range(8))
    warm_up_tokens = 1
    #: 150..1000 tokens; 576 is exactly 9 windows, the others end mid-window.
    lengths = (150, 363, 576, 789, 1000)

    @staticmethod
    def make_config(m):
        return m.config.ModelConfig(**DESK)

    def __init__(self, m, rng, seed):
        super().__init__(m, rng, seed)
        self.pool = [
            Request(tuple(int(t) for t in rng.integers(0, self.vocab_size, size=n)), 1)
            for n in self.lengths
        ]

    def cycle(self):
        return [self.pool[i] for i in self.rng.permutation(len(self.pool))]


#: verify configurations as CLI flags: the default toy, a small one, and a
#: 4-layer W=16 one whose reach check fails at most seeds (a known defect).
VERIFY_CONFIGS = (
    (),
    ("--window", "4", "--layers", "2"),
    ("--window", "16"),
)

#: The `--seed` given to every verify call. Which calls fail the reach check
#: depends on it (the toy config fails at some seeds and not at others), so a
#: seed that varied with the run's --seed would make `failed` vary with it
#: too. At seed 0 the `--window 16` call fails and the other two pass, so one
#: call in every sweep fails.
VERIFY_SEED = 0

#: The golden gate's marker of bit-exact agreement in a verify report.
EXACT = "max |dlogit| 0.00e+00"


def _verify(m, flags):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = m.cli.main(["verify", *flags, "--seed", str(VERIFY_SEED)])
    return code, err.getvalue()


class VerifySweep:
    """In-process `rollwin verify` over a fixed list of toy-derived configs."""

    name = "verify_sweep"
    latency_series, work_counter = "verify", "verify_calls"
    # A toy verify call is mostly 1-row decode steps (about 200 of them),
    # the oracle passes up to 128 rows.
    probe_shapes = ((1, 64, 256), (64, 32, 128))
    probe_period_s = 0.025
    #: A run makes round(seconds / sweep_s) whole sweeps, a fixed number,
    #: rather than stopping on the clock, so `attempted` and `failed` repeat
    #: exactly. One sweep takes about 8 s, raw, on a shared 2-core x86-64
    #: host (Python 3.11, numpy 2.4).
    sweep_s = 8.0

    @staticmethod
    def make_config(m):
        return m.config.PRESET_TOY

    def __init__(self, m, rng, seed):
        self.rng = rng
        toy = m.config.PRESET_TOY
        self.total_cache_bytes = 0
        for flags in VERIFY_CONFIGS:
            given = dict(zip(flags[0::2], flags[1::2]))
            config = dataclasses.replace(
                toy,
                window_size=int(given.get("--window", toy.window_size)),
                n_layers=int(given.get("--layers", toy.n_layers)),
            )
            self.total_cache_bytes += config.n_layers * m.cache.new_cache(config).nbytes

    @staticmethod
    def warm_up(m, weights, seed):
        _verify(m, ("--window", "2", "--layers", "1"))

    def cycle(self):
        return [VERIFY_CONFIGS[i] for i in self.rng.permutation(len(VERIFY_CONFIGS))]

    def run(self, m, weights, flags, probe, stats):
        (code, report), raw, scaled = probe.time(_verify, m, flags)
        stats.add("verify", raw, scaled)
        stats.count("verify_calls")
        stats.cache_bytes = self.total_cache_bytes
        if code != 0:
            failing = [line for line in report.splitlines() if line.endswith(": fail")]
            stats.fail(f"verify {' '.join(flags) or '(toy)'} exited {code}: {failing}")
        return flags, code, report

    def gate(self, m, weights, outputs, stats):
        """Each config's report must repeat byte for byte and show engine == oracle.

        The oracle-equivalence and prefill-decode lines compare the engine's
        logits with `oracle_forward_swa` and with stepped decoding; anything
        but an exact pass there is a wrong output. A failing reach or
        cache-bound check is a failed call (counted in `run`), not a wrong
        output.
        """
        first = {}
        for flags, code, report in outputs:
            first.setdefault(flags, report)
            lines = report.splitlines()
            exact = all(
                any(line.startswith(f"{check}: {EXACT}") and line.endswith(": pass") for line in lines)
                for check in ("oracle-equivalence", "prefill-decode")
            )
            if report != first[flags] or not exact:
                stats.mismatched += 1
                if code == 0:  # a non-zero exit was already counted as failed
                    stats.fail(f"verify {' '.join(flags) or '(toy)'} report differs from its golden")


WORKLOADS = {w.name: w for w in (DecodeSteady, PrefillLong, VerifySweep)}
