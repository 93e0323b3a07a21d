"""CLI invocations whose byte-exact output is pinned under tests/golden/.

Regenerate with tests/regen_golden.py after a deliberate format change.
Every command uses --no-timing so the bytes carry no clock noise.
"""

BATTERY = [
    ("prop713-d1", ["verify", "prop713", "--d", "1", "--no-timing"], 0),
    ("prop714-d1", ["verify", "prop714", "--d", "1", "--no-timing"], 0),
    (
        "recursion-5-4",
        ["verify", "recursion", "--a", "5", "--b", "4", "--cycles", "[8,12]",
         "--no-timing"],
        1,
    ),
    (
        "mn-eval-neg2",
        ["mn", "eval", "--kind", "B", "--lambda", "[[1,1],[]]", "--cycles", "[-2]",
         "--no-timing"],
        0,
    ),
    (
        "flambda-cuspidal",
        ["flambda", "--kind", "B", "--S", "0,1,2", "--T", "", "--cycles", "[-2]",
         "--no-timing"],
        0,
    ),
    ("fab-2-1", ["fab", "--a", "2", "--b", "1", "--cycles", "[-2]", "--no-timing"], 0),
    (
        "pairing-matrix",
        ["family", "pairing-matrix", "--kind", "B", "--Z1", "0,1,2", "--no-timing"],
        0,
    ),
    (
        "pab-2-2-unordered",
        ["enumerate", "pab", "2", "2", "--unordered", "--no-timing"],
        0,
    ),
    ("m2-n4", ["verify", "m2", "--n", "4", "--kind", "both", "--no-timing"], 0),
    ("d-swap-n3", ["diagnose", "d-swap", "--n", "3", "--no-timing"], 0),
    ("orthogonality-n2", ["verify", "orthogonality", "--n", "2", "--no-timing"], 0),
    (
        "family-list-d6",
        ["family", "list", "--kind", "D", "--n", "6", "--no-timing"],
        0,
    ),
    (
        "involution-b8",
        ["family", "involution-check", "--kind", "B", "--n", "8", "--no-timing"],
        0,
    ),
    (
        "symbol-info",
        ["symbol", "info", "--S", "0,1,2", "--T", "", "--kind", "B", "--no-timing"],
        0,
    ),
]
