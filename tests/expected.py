"""Hand-checked expected values shared by several test modules.

Everything here was derived independently (by hand or from the naive
oracles) and is frozen so regressions in the library cannot silently
re-derive themselves into the expectations.
"""

from __future__ import annotations

# --- roster shapes: 1 + x^a (x+1)^b for M_k, 1 + x^a (x+1)^b M_1^c for S_k ---

MERSENNE_PARAMS = {
    "M_1": (1, 1),
    "M_2": (1, 2),
    "M_3": (2, 1),
    "M_4": (1, 3),
    "M_5": (3, 1),
    "M_6": (3, 2),
    "M_7": (3, 4),
    "M_8": (6, 1),
    "M_9": (2, 3),
    "M_10": (4, 3),
    "M_11": (1, 6),
    "M_12": (1, 8),
    "M_13": (8, 1),
}

STYPE_PARAMS = {
    "S_1": (1, 1, 1),
    "S_2": (2, 2, 1),
    "S_3": (1, 3, 4),
    "S_4": (3, 1, 1),
    "S_5": (1, 3, 1),
    "S_6": (3, 1, 4),
    "S_7": (1, 1, 3),
    "S_8": (3, 3, 1),
    "S_9": (1, 1, 5),
    "S_10": (4, 1, 1),
    "S_11": (1, 2, 1),
    "S_12": (2, 1, 2),
    "S_13": (1, 4, 1),
    "S_14": (2, 1, 1),
    "S_15": (1, 2, 2),
}

# Perfect polynomials x^a (x+1)^b M_1^c1..M_5^c5 S_1^d1..S_8^d8 as
# (a, b, (c1..c5), (d1..d8)).
PERFECT_PARAMS = {
    "T_1": (2, 1, (1, 0, 0, 0, 0), (0,) * 8),
    "T_2": (1, 2, (1, 0, 0, 0, 0), (0,) * 8),
    "T_3": (4, 3, (0, 0, 0, 1, 0), (0,) * 8),
    "T_4": (3, 4, (0, 0, 0, 0, 1), (0,) * 8),
    "T_5": (4, 4, (0, 0, 0, 1, 1), (0,) * 8),
    "T_6": (6, 3, (0, 1, 1, 0, 0), (0,) * 8),
    "T_7": (3, 6, (0, 1, 1, 0, 0), (0,) * 8),
    "T_8": (4, 6, (0, 1, 1, 1, 0), (0,) * 8),
    "T_9": (6, 4, (0, 1, 1, 0, 1), (0,) * 8),
    "T_10": (2, 1, (2, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0)),
    "T_11": (1, 2, (2, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0)),
}

# Explicit printed forms for the small members (checked by hand).
EXPLICIT_TEXT = {
    "M_1": "x^2+x+1",
    "M_2": "x^3+x+1",
    "M_3": "x^3+x^2+1",
    "M_4": "x^4+x^3+x^2+x+1",
    "M_5": "x^4+x^3+1",
    "S_1": "x^4+x+1",
}

# --- conjugation maps ---

BAR_PARTNERS = {
    "M_1": "M_1", "M_2": "M_3", "M_3": "M_2", "M_4": "M_5", "M_5": "M_4",
    "M_6": "M_9", "M_9": "M_6", "M_7": "M_10", "M_10": "M_7",
    "M_8": "M_11", "M_11": "M_8", "M_12": "M_13", "M_13": "M_12",
    "S_1": "S_1", "S_2": "S_2", "S_7": "S_7", "S_8": "S_8", "S_9": "S_9",
    "S_3": "S_6", "S_6": "S_3", "S_4": "S_5", "S_5": "S_4",
    "S_10": "S_13", "S_13": "S_10", "S_11": "S_14", "S_14": "S_11",
    "S_12": "S_15", "S_15": "S_12",
    "T_1": "T_2", "T_2": "T_1", "T_3": "T_4", "T_4": "T_3", "T_5": "T_5",
    "T_6": "T_7", "T_7": "T_6", "T_8": "T_9", "T_9": "T_8",
    "T_10": "T_11", "T_11": "T_10",
}

STAR_PARTNERS = {
    "M_1": "M_1", "M_4": "M_4", "S_3": "S_3", "S_4": "S_4",
    "M_2": "M_3", "M_3": "M_2", "M_12": "M_13", "M_13": "M_12",
    "M_5": "S_1", "S_1": "M_5", "M_6": "S_14", "S_14": "M_6",
    "M_7": "S_10", "S_10": "M_7", "M_8": "S_15", "S_15": "M_8",
    "S_2": "S_5", "S_5": "S_2", "S_6": "S_9", "S_9": "S_6",
}

NO_STAR_PARTNER = {"M_9", "M_10", "M_11", "S_7", "S_8", "S_11", "S_12", "S_13"}

# --- the three sigma-of-even-powers tables, as name -> multiplicity maps ---

X2H_TABLE = {
    ("x", 2): {"M_1": 1},
    ("x+1", 2): {"M_1": 1},
    ("x", 4): {"M_4": 1},
    ("x+1", 4): {"M_5": 1},
    ("x", 6): {"M_2": 1, "M_3": 1},
    ("x+1", 6): {"M_2": 1, "M_3": 1},
    ("x", 8): {"M_1": 1, "S_4": 1},
    ("x+1", 8): {"M_1": 1, "S_5": 1},
    ("x", 12): {"S_3": 1},
    ("x+1", 12): {"S_6": 1},
    ("x", 14): {"M_1": 1, "M_4": 1, "M_5": 1, "S_1": 1},
    ("x+1", 14): {"M_1": 1, "M_4": 1, "M_5": 1, "S_1": 1},
}

MERSENNE_TABLE = {
    ("M_1", 2): {"S_1": 1},
    ("M_1", 4): {"S_8": 1},
    ("M_1", 6): {"M_2": 1, "M_3": 1, "S_2": 1},
    ("M_1", 14): {"M_4": 1, "M_5": 1, "S_1": 1, "S_7": 1, "S_8": 1},
    ("M_2", 2): {"M_1": 1, "M_5": 1},
    ("M_3", 2): {"M_1": 1, "M_4": 1},
}

S_TABLE = {
    ("S_1", 2): {"M_4": 1, "M_5": 1},
    ("S_2", 2): {"S_1": 1, "S_7": 1},
}

# --- admissible families and the perfect polynomials built over them ---

FAMILY_EXAMPLES = [
    (["M_1"], ["T_1", "T_2"]),
    (["M_4"], ["T_3"]),
    (["M_5"], ["T_4"]),
    (["M_2", "M_3"], ["T_6", "T_7"]),
    (["M_4", "M_5"], ["T_5"]),
    (["M_2", "M_3", "M_4"], ["T_8"]),
    (["M_2", "M_3", "M_5"], ["T_9"]),
    (["M_1", "M_2", "M_3", "M_4", "M_5"],
     ["T_1", "T_2", "T_3", "T_4", "T_5", "T_6", "T_7", "T_8", "T_9"]),
    (["M_1", "S_1"], ["T_10", "T_11"]),
]

# --- the pipeline's search box ---

# (top, odd parts) of each shape prime's box, in exponent order x, x+1,
# M_1..M_5, S_1..S_8: the exponents 2^t s - 1 for t = 0..top and each odd
# part s, t outermost.  S_2 has only s = 1 although sigma(S_2^2) = S_1 * S_7
# splits, because step 2 solves S_1, S_2 and S_7 together.
SEARCH_BOXES = (
    (4, (1, 3, 5, 7, 9, 13, 15)),
    (4, (1, 3, 5, 7, 9, 13, 15)),
    (4, (1, 3, 5, 7, 15)),
    (3, (1, 3)),
    (3, (1, 3)),
    (5, (1,)),
    (5, (1,)),
    (3, (1, 3)),
    *((1, (1,)),) * 7,
)

# --- enumeration pipeline calibration ---

# Reference targets for the three stage counts; stage 1 matches exactly,
# stages 2 and 3 land elsewhere under the constraint set implemented here
# (see README, "Enumeration calibration").
CALIBRATION_TARGETS = (10944, 4484, 44)
MEASURED_COUNTS = (10944, 2159, 10)

SURVIVOR_NAMES = {"T_2", "T_4", "T_5", "T_7", "T_8", "T_11"}
ALL_PERFECT_NAMES = {f"T_{k}" for k in range(1, 12)}
