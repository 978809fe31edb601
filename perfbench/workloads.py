"""The benchmark's inputs, their known answers, and the serve-mix request draw.

Every known answer restates a claim of the paper as the repository's tests
encode it; none comes from running gemcheck. HOLDS means the program
satisfies its problem specification, FAILS that it does not. A verdict of
"inconclusive" is never scored against an answer: it only lowers
decided_share.
"""

import random
from dataclasses import dataclass
from typing import Optional, Tuple

HOLDS = "holds"
FAILS = "fails"

# Where each claim is encoded.
PAPER_RP = ("test/test_problems.ml paper-readers-priority: the paper's monitor solves "
            "readers-priority and free-for-all (checked there at 2R+1W)")
PAPER_1R2W = "test/test_problems.ml buggy-loses-priority: paper monitor ok at 1R+2W"
BUGGY_RP = "test/test_problems.ml buggy-loses-priority: the buggy monitor violates readers-priority at 1R+2W"
RWD_CSP = "test/test_rw_distributed.ml csp 1r1w-sat"
RWD_CSP_NOPRI = "test/test_rw_distributed.ml csp no-priority-refuted"
RWD_ADA = "test/test_rw_distributed.ml ada 1r1w-sat"
RWD_ADA_NOPRI = "test/test_rw_distributed.ml ada no-priority-refuted"
BUFFER = ("test/test_problems.ml one-slot-monitor/csp/ada and bounded-2: "
          "the buffer solutions satisfy the bounded-buffer problem")
DB = "test/test_problems.ml converges-2/converges-3: no deadlock, every site converges"


@dataclass(frozen=True)
class Input:
    name: str
    request: str  # the `gemcheck serve` wire request, without the leading "check"
    known: str  # HOLDS or FAILS
    source: str
    argv: Optional[Tuple[str, ...]] = None  # the one-shot command line

    @property
    def line(self):
        return "check " + self.request


def one_shot(name, argv, request, known, source):
    return Input(name, request, known, source, tuple(argv.split()))


# Checking dominates: exploration is a small share of wall time, and every
# rw input's computations hit the run cap.
CHECK_HEAVY = [
    one_shot("rw-paper-2r1w", "rw --readers 2 --writers 1",
             "rw readers=2 writers=1", HOLDS, PAPER_RP),
    one_shot("rw-paper-1r2w", "rw --readers 1 --writers 2",
             "rw readers=1 writers=2", HOLDS, PAPER_1R2W),
    one_shot("rw-buggy-1r2w", "rw --readers 1 --writers 2 --monitor buggy",
             "rw monitor=buggy readers=1 writers=2", FAILS, BUGGY_RP),
    one_shot("rwd-csp-1r1w", "rwd", "rwd", HOLDS, RWD_CSP),
    one_shot("rwd-csp-nopri-1r1w", "rwd --no-priority", "rwd broken=true", FAILS, RWD_CSP_NOPRI),
    one_shot("rwd-ada-1r1w", "rwd --lang ada", "rwd lang=ada", HOLDS, RWD_ADA),
]

# Exploration and leaf merge dominate. All three interpreters, the db
# update, and all three reduction engines (sleep sets by default).
EXPLORE_HEAVY = [
    one_shot("buffer-csp-c2p2c2i3",
             "buffer --lang csp --capacity 2 --producers 2 --consumers 2 --items 3",
             "buffer lang=csp capacity=2 producers=2 consumers=2 items=3", HOLDS, BUFFER),
    one_shot("buffer-monitor-c2p2c2i2-source",
             "buffer --lang monitor --capacity 2 --producers 2 --consumers 2 --items 2 --reduction source",
             "buffer lang=monitor capacity=2 producers=2 consumers=2 items=2 reduction=source",
             HOLDS, BUFFER),
    one_shot("buffer-ada-c1p2c2i1",
             "buffer --lang ada --capacity 1 --producers 2 --consumers 2 --items 1",
             "buffer lang=ada capacity=1 producers=2 consumers=2 items=1", HOLDS, BUFFER),
    one_shot("db-3-none", "db --sites 3 --reduction none", "db sites=3 reduction=none", HOLDS, DB),
]


def _variants(prefix, request, known, source, restricts):
    """A program's serve-mix entries: the request itself plus one entry per
    client restriction. Conjoining a restriction that holds on every run
    leaves the answer unchanged; conjoining one that holds on none makes it
    FAILS, since every program here has at least one computation."""
    out = [Input(prefix, request, known, source)]
    for tag, formula, effect in restricts:
        answer = FAILS if effect == "never" else known
        out.append(Input(f"{prefix}+{tag}", f'{request} restrict="{formula}"', answer,
                         source + f"; restrict {formula} holds {effect}"))
    return out


ALWAYS = [("true", "true", "always"), ("box-true", "[]true", "always")]
NEVER = [("false", "false", "never")]

# Cheap-to-moderate requests, several restriction variants per program so
# that misses share an exploration. 32 entries, below the daemon's default
# cache size of 128, so nothing is evicted. The list is in popularity order:
# the cheapest requests are drawn most often and the costliest least.
SERVE_POOL = (
    _variants("buffer-monitor-c1p1c1i2", "buffer", HOLDS, BUFFER, ALWAYS + NEVER)
    + _variants("buffer-csp-c1p1c1i2", "buffer lang=csp", HOLDS, BUFFER, NEVER)
    + _variants("rw-paper-1r1w", "rw readers=1 writers=1", HOLDS, PAPER_RP, ALWAYS + NEVER)
    + _variants("rw-paper-1r1w-ffa", "rw readers=1 writers=1 version=free-for-all", HOLDS,
                PAPER_RP, NEVER)
    + _variants("buffer-monitor-c2p2c1i1", "buffer capacity=2 producers=2 consumers=1 items=1",
                HOLDS, BUFFER, [("diamond-true", "<>true", "always")] + NEVER)
    + _variants("buffer-ada-c1p1c1i2", "buffer lang=ada", HOLDS, BUFFER, ALWAYS)
    + [Input("db-2", "db sites=2", HOLDS, DB)]
    + _variants("rwd-ada-1r1w", "rwd lang=ada", HOLDS, RWD_ADA, ALWAYS + NEVER)
    + _variants("rwd-ada-nopri-1r1w", "rwd lang=ada broken=true", FAILS, RWD_ADA_NOPRI, [])
    + _variants("rwd-csp-1r1w", "rwd", HOLDS, RWD_CSP, ALWAYS + NEVER)
    + _variants("rwd-csp-nopri-1r1w", "rwd broken=true", FAILS, RWD_CSP_NOPRI, ALWAYS[:1])
    + [Input("db-3", "db sites=3", HOLDS, DB)]
    + [Input("rw-buggy-1r2w", "rw monitor=buggy readers=1 writers=2", FAILS, BUGGY_RP)]
)

WORKLOADS = {
    "check-heavy": CHECK_HEAVY,
    "explore-heavy": EXPLORE_HEAVY,
    "serve-mix": SERVE_POOL,
}
ONE_SHOT = {"check-heavy", "explore-heavy"}

SEQUENCE_LENGTH = 1000
ZIPF_EXPONENT = 1.0


def request_sequence(seed, pool_size, length=SEQUENCE_LENGTH):
    """Indices into a pool of `pool_size` requests, drawn from `seed`.

    Entry r (the pool is in popularity order) first appears at position
    r * length // pool_size, so every pass makes the same cold computations
    in the same order whatever the seed. Every other position is a
    Zipf-like draw among the entries already introduced; only these draws
    depend on the seed."""
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(pool_size)]
    first = {rank * length // pool_size: rank for rank in range(pool_size)}
    rng = random.Random(seed)
    sequence = []
    for position in range(length):
        if position in first:
            rank = first[position]
        else:
            introduced = sum(1 for p in first if p < position)
            rank = rng.choices(range(introduced), weights=weights[:introduced])[0]
        sequence.append(rank)
    return sequence


def judge(known, status):
    """'correct', 'undecided' or 'contradiction' for a verdict status."""
    if status == "inconclusive":
        return "undecided"
    if (status, known) in (("verified", HOLDS), ("falsified", FAILS)):
        return "correct"
    return "contradiction"


SEQUENCES_PER_RUN = 16


def request_sequences(seed, pool_size):
    """The run's request sequences: pass k of a serve run sends sequence k
    (cycling), so one run averages over several draws of its seed."""
    return [request_sequence(seed * 1_000_003 + k, pool_size) for k in range(SEQUENCES_PER_RUN)]
