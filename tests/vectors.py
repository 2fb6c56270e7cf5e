"""Reference tables shared across the test suite.

SEED4/CLONE4 are a 4-bit seed and its clone under (SIGMA1_4, SIGMA2_4);
AES_SBOX/AES_CLONE8 are the AES s-box and its clone under
(SIGMA1_8, SIGMA2_8). ROWPERM_4 is the index permutation SIGMA1_4 induces
on the 16 table positions, and SEED4_LSB_COLUMN is the low-bit coordinate
of SEED4.

The byte goldens below pin what the command-line front end prints: HELP
maps None (for `sboxforge -h`) and each command (for `sboxforge COMMAND
-h`) to its help text, and each *_REPORT_* string is the text or JSON
report of AES_SBOX, of N2 (n = 2, nl_bound 0) or of NONBIJECTIVE4.
"""

SEED4 = [9, 13, 10, 15, 11, 14, 7, 3, 12, 8, 6, 2, 4, 1, 0, 5]
SIGMA1_4 = (1, 2, 0, 3)
SIGMA2_4 = (3, 2, 0, 1)
CLONE4 = [10, 6, 14, 13, 11, 15, 7, 12, 3, 5, 1, 0, 2, 4, 8, 9]

ROWPERM_4 = (0, 2, 4, 6, 1, 3, 5, 7, 8, 10, 12, 14, 9, 11, 13, 15)

SEED4_LSB_COLUMN = (1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 1)

AES_SBOX = [
    99, 124, 119, 123, 242, 107, 111, 197, 48, 1, 103, 43, 254, 215, 171, 118,
    202, 130, 201, 125, 250, 89, 71, 240, 173, 212, 162, 175, 156, 164, 114, 192,
    183, 253, 147, 38, 54, 63, 247, 204, 52, 165, 229, 241, 113, 216, 49, 21,
    4, 199, 35, 195, 24, 150, 5, 154, 7, 18, 128, 226, 235, 39, 178, 117,
    9, 131, 44, 26, 27, 110, 90, 160, 82, 59, 214, 179, 41, 227, 47, 132,
    83, 209, 0, 237, 32, 252, 177, 91, 106, 203, 190, 57, 74, 76, 88, 207,
    208, 239, 170, 251, 67, 77, 51, 133, 69, 249, 2, 127, 80, 60, 159, 168,
    81, 163, 64, 143, 146, 157, 56, 245, 188, 182, 218, 33, 16, 255, 243, 210,
    205, 12, 19, 236, 95, 151, 68, 23, 196, 167, 126, 61, 100, 93, 25, 115,
    96, 129, 79, 220, 34, 42, 144, 136, 70, 238, 184, 20, 222, 94, 11, 219,
    224, 50, 58, 10, 73, 6, 36, 92, 194, 211, 172, 98, 145, 149, 228, 121,
    231, 200, 55, 109, 141, 213, 78, 169, 108, 86, 244, 234, 101, 122, 174, 8,
    186, 120, 37, 46, 28, 166, 180, 198, 232, 221, 116, 31, 75, 189, 139, 138,
    112, 62, 181, 102, 72, 3, 246, 14, 97, 53, 87, 185, 134, 193, 29, 158,
    225, 248, 152, 17, 105, 217, 142, 148, 155, 30, 135, 233, 206, 85, 40, 223,
    140, 161, 137, 13, 191, 230, 66, 104, 65, 153, 45, 15, 176, 84, 187, 22,
]

SIGMA1_8 = (1, 2, 0, 6, 5, 7, 3, 4)
SIGMA2_8 = (5, 7, 3, 4, 1, 2, 0, 6)

AES_CLONE8 = [
    165, 175, 199, 189, 31, 183, 181, 105, 48, 28, 178, 147, 224, 146, 157, 68,
    238, 226, 142, 239, 127, 140, 190, 89, 67, 212, 161, 166, 253, 247, 57, 104,
    121, 162, 187, 9, 24, 93, 234, 170, 214, 44, 26, 78, 23, 156, 204, 201,
    69, 150, 49, 12, 134, 144, 136, 27, 101, 82, 53, 216, 87, 34, 115, 74,
    6, 173, 223, 244, 32, 180, 235, 143, 131, 203, 52, 188, 182, 230, 229, 72,
    14, 109, 39, 38, 108, 103, 83, 42, 41, 128, 3, 250, 119, 191, 30, 84,
    73, 159, 13, 50, 236, 62, 59, 167, 85, 15, 177, 240, 123, 186, 126, 208,
    193, 92, 98, 77, 227, 133, 106, 55, 242, 232, 217, 20, 154, 117, 43, 251,
    209, 113, 215, 169, 192, 63, 51, 71, 163, 0, 4, 102, 99, 125, 95, 179,
    8, 164, 18, 40, 233, 225, 202, 210, 35, 1, 194, 22, 228, 248, 122, 111,
    5, 185, 132, 66, 96, 91, 148, 80, 7, 110, 17, 207, 158, 141, 160, 152,
    237, 174, 120, 153, 81, 61, 107, 116, 88, 112, 254, 129, 100, 56, 205, 21,
    124, 196, 90, 135, 75, 252, 76, 65, 149, 222, 145, 19, 241, 54, 25, 249,
    168, 64, 245, 198, 130, 197, 172, 47, 94, 211, 2, 231, 206, 36, 255, 195,
    137, 86, 219, 176, 221, 10, 155, 243, 37, 171, 200, 58, 46, 118, 97, 218,
    29, 79, 45, 220, 139, 213, 151, 16, 33, 60, 70, 246, 114, 184, 11, 138,
]

# n=3 bijection whose dependence matrix is exactly 1/2 everywhere.
ALL_HALF_SAC_3 = [0, 1, 2, 4, 3, 5, 6, 7]

N2 = [1, 3, 0, 2]
NONBIJECTIVE4 = [0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]

HELP_TOP = (
    "usage: sboxforge [-h] {clone,analyze,derive,enumerate,verify} ...\n"
    "\n"
    "Clone s-box generation and analysis\n"
    "\n"
    "commands:\n"
    "  clone                 generate a clone s-box from a seed\n"
    "  analyze               report the four algebraic criteria\n"
    "  derive                show the permutations a key produces\n"
    "  enumerate             sweep permutation pairs, emit CSV\n"
    "  verify                compare two s-boxes' criteria\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "\n"
    "Run 'sboxforge COMMAND -h' for the options of one command.\n"
)

HELP_CLONE = (
    "usage: sboxforge clone [-h] [options] seed\n"
    "\n"
    "generate a clone s-box from a seed\n"
    "\n"
    "positional arguments:\n"
    "  seed                  seed s-box file\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --key KEY             hex key; permutations derived from it\n"
    "  --sigma1 SIGMA1       input-bit permutation, comma-separated images\n"
    "  --sigma2 SIGMA2       output-bit permutation, comma-separated images\n"
    "  --remove-fixed-points\n"
    "                        retry until the clone has no fixed or reverse fixed points\n"
    "  --max-attempts MAX_ATTEMPTS\n"
    "                        cap on removal attempts (default min(n!, 10!); n! tries every class)\n"
    "  -o OUTPUT, --output OUTPUT\n"
    "                        write the clone here instead of stdout\n"
)

HELP_ANALYZE = (
    "usage: sboxforge analyze [-h] [options] sbox\n"
    "\n"
    "report the four algebraic criteria\n"
    "\n"
    "positional arguments:\n"
    "  sbox                  s-box file\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --format {text,json}  report format (default text)\n"
)

HELP_DERIVE = (
    "usage: sboxforge derive [-h] --key KEY --n N\n"
    "\n"
    "show the permutations a key produces\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --key KEY             hex key\n"
    "  --n N                 bit width\n"
)

HELP_ENUMERATE = (
    "usage: sboxforge enumerate [-h] (--all | --sample SAMPLE) [options] seed\n"
    "\n"
    "sweep permutation pairs, emit CSV\n"
    "\n"
    "positional arguments:\n"
    "  seed                  seed s-box file\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --all                 every pair (n <= 6 only)\n"
    "  --sample SAMPLE       number of random pairs\n"
    "  --rng-seed RNG_SEED   sampling seed (default 0; needs --sample)\n"
    "  --check-invariance    compare every clone's report against the seed's\n"
    "  --out OUT             write CSV here instead of stdout\n"
)

HELP_VERIFY = (
    "usage: sboxforge verify [-h] seed clone\n"
    "\n"
    "compare two s-boxes' criteria\n"
    "\n"
    "positional arguments:\n"
    "  seed                  first s-box file\n"
    "  clone                 second s-box file\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
)

AES_REPORT_JSON = (
    "{\n"
    '  "n": 8,\n'
    '  "bijective": true,\n'
    '  "fixed_points": [],\n'
    '  "reverse_fixed_points": [],\n'
    '  "nl": {\n'
    '    "min": 112,\n'
    '    "max": 112,\n'
    '    "avg": 112.0\n'
    "  },\n"
    '  "nl_bound": 112,\n'
    '  "sac": {\n'
    '    "min": 0.453125,\n'
    '    "max": 0.5625,\n'
    '    "avg": 0.504883,\n'
    '    "sd": 0.015678\n'
    "  },\n"
    '  "bic_nl": {\n'
    '    "min": 112,\n'
    '    "max": 112,\n'
    '    "avg": 112.0,\n'
    '    "sd": 0.0\n'
    "  },\n"
    '  "bic_sac": {\n'
    '    "min": 0.480469,\n'
    '    "max": 0.525391,\n'
    '    "avg": 0.504604,\n'
    '    "sd": 0.011271\n'
    "  }\n"
    "}\n"
)

N2_REPORT_TEXT = (
    "n: 2\n"
    "bijective: true\n"
    "fixed_points: []\n"
    "reverse_fixed_points: []\n"
    "nl: min=0 max=0 avg=0.000000\n"
    "nl_bound: 0\n"
    "sac: min=0.000000 max=1.000000 avg=0.500000 sd=0.250000\n"
    "bic_nl: min=0 max=0 avg=0.000000 sd=0.000000\n"
    "bic_sac: min=1.000000 max=1.000000 avg=1.000000 sd=0.000000\n"
)

N2_REPORT_JSON = (
    "{\n"
    '  "n": 2,\n'
    '  "bijective": true,\n'
    '  "fixed_points": [],\n'
    '  "reverse_fixed_points": [],\n'
    '  "nl": {\n'
    '    "min": 0,\n'
    '    "max": 0,\n'
    '    "avg": 0.0\n'
    "  },\n"
    '  "nl_bound": 0,\n'
    '  "sac": {\n'
    '    "min": 0.0,\n'
    '    "max": 1.0,\n'
    '    "avg": 0.5,\n'
    '    "sd": 0.25\n'
    "  },\n"
    '  "bic_nl": {\n'
    '    "min": 0,\n'
    '    "max": 0,\n'
    '    "avg": 0.0,\n'
    '    "sd": 0.0\n'
    "  },\n"
    '  "bic_sac": {\n'
    '    "min": 1.0,\n'
    '    "max": 1.0,\n'
    '    "avg": 1.0,\n'
    '    "sd": 0.0\n'
    "  }\n"
    "}\n"
)

NONBIJECTIVE4_REPORT_TEXT = (
    "n: 4\n"
    "bijective: false\n"
    "fixed_points: [0]\n"
    "reverse_fixed_points: [8]\n"
    "nl: min=1 max=3 avg=1.500000\n"
    "nl_bound: 4\n"
    "sac: min=0.125000 max=0.875000 avg=0.390625 sd=0.168105\n"
    "bic_nl: min=0 max=4 avg=2.333333 sd=1.374369\n"
    "bic_sac: min=0.250000 max=0.687500 avg=0.510417 sd=0.132173\n"
)

NONBIJECTIVE4_REPORT_JSON = (
    "{\n"
    '  "n": 4,\n'
    '  "bijective": false,\n'
    '  "fixed_points": [\n'
    "    0\n"
    "  ],\n"
    '  "reverse_fixed_points": [\n'
    "    8\n"
    "  ],\n"
    '  "nl": {\n'
    '    "min": 1,\n'
    '    "max": 3,\n'
    '    "avg": 1.5\n'
    "  },\n"
    '  "nl_bound": 4,\n'
    '  "sac": {\n'
    '    "min": 0.125,\n'
    '    "max": 0.875,\n'
    '    "avg": 0.390625,\n'
    '    "sd": 0.168105\n'
    "  },\n"
    '  "bic_nl": {\n'
    '    "min": 0,\n'
    '    "max": 4,\n'
    '    "avg": 2.333333,\n'
    '    "sd": 1.374369\n'
    "  },\n"
    '  "bic_sac": {\n'
    '    "min": 0.25,\n'
    '    "max": 0.6875,\n'
    '    "avg": 0.510417,\n'
    '    "sd": 0.132173\n'
    "  }\n"
    "}\n"
)

HELP = {None: HELP_TOP, "clone": HELP_CLONE, "analyze": HELP_ANALYZE, "derive": HELP_DERIVE,
        "enumerate": HELP_ENUMERATE, "verify": HELP_VERIFY}
