"""Known answers for the verdict benchmark.

Every value here is written down from the paper's worked instance, from the
exit codes documented at the top of ``xmod2/cli.py``, or from the algebra of
the inputs the workloads build.  Nothing is read back from the code under
test, so a speed-up that checks less or answers wrongly shows up as a wrong
verdict.
"""

# Exit codes documented by the CLI: 0 all checks pass, 1 check failures,
# 3 I/O or parse errors.
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 3

# The standard simplicial identities at levels 0..3, in the CLI's naming:
# d_i d_j = d_{j-1} d_i (i < j) applied at levels 2 and 3, s_{j+1} s_i =
# s_i s_j (i <= j) from levels 0 and 1, and the three d_i s_j cases from
# levels 0, 1 and 2.  33 in all; a tower verdict must report every one.
SIMPLICIAL_IDENTITIES = frozenset([
    "d0.d1=d0.d0@2", "d0.d2=d1.d0@2", "d1.d2=d1.d1@2",
    "d0.d1=d0.d0@3", "d0.d2=d1.d0@3", "d1.d2=d1.d1@3",
    "d0.d3=d2.d0@3", "d1.d3=d2.d1@3", "d2.d3=d2.d2@3",
    "s1.s0=s0.s0@0",
    "s1.s0=s0.s0@1", "s2.s0=s0.s1@1", "s2.s1=s1.s1@1",
    "d0.s0=id@0", "d1.s0=id@0",
    "d0.s0=id@1", "d1.s0=id@1", "d2.s0=s0.d1@1",
    "d0.s1=s0.d0@1", "d1.s1=id@1", "d2.s1=id@1",
    "d0.s0=id@2", "d1.s0=id@2", "d2.s0=s0.d1@2", "d3.s0=s0.d2@2",
    "d0.s1=s0.d0@2", "d1.s1=id@2", "d2.s1=id@2", "d3.s1=s1.d2@2",
    "d0.s2=s1.d0@2", "d1.s2=s1.d1@2", "d2.s2=id@2", "d3.s2=id@2",
])

# Replacing the face d2 at level 2, (r, e, e', l) -> (r + d1 e, e' + d2 l),
# by (r + d1 e, e') changes it exactly on simplices with l != 0.  With
# d2 injective and L != 0 these identities, and only these, compose that
# face with a level-3 face or degeneracy that carries an l into the slot it
# reads, so exactly they must fail.
BROKEN_D2_FAILS = frozenset([
    "d0.d3=d2.d0@3", "d1.d3=d2.d1@3", "d2.d3=d2.d2@3",
    "d3.s0=s0.d2@2", "d3.s1=s1.d2@2",
])

# Laws one composable triple must report from tcm_groupoid_check and
# cm_groupoid_check (samples=1, so every name carries the index 00).
TCM_TRIPLE_LAWS = frozenset(
    "tcm/00/" + law for law in (
        "targets-valid", "reflexive-zero", "identity-left", "identity-right",
        "symmetric", "inverse-right", "inverse-left", "s-associative",
        "t-associative", "transitive", "w-change",
    )
)
CM_TRIPLE_LAWS = frozenset(
    "cm/00/" + law for law in (
        "target-valid", "reflexive-zero", "identity-left", "identity-right",
        "inverse-right", "inverse-left", "symmetric", "associative", "transitive",
    )
)

# The worked instance over Q: F3 -> F2 with f0(x) = p and s = s' = s'' = a
# on the free basis {x}.  Values are coefficient maps over the basis labels
# of E' = <a, b; a^2 = b> and L' = <b-hat>; X is the tuple (r, e, e', l).
BH = "b̂"
WORKED = {
    "s(x^2)": {"b": 1},
    "X(x^2)": ({}, {"b": 1}, {"b": 3}, {BH: -2}),
    "w(x^2)": {BH: -2},
    "(s[+]s')(x^2)": {"b": 4},
    "sbar(x)": {"a": -1},
    "w-change(x^2)": {BH: -6},
}

# Composition and inversion over a domain with no recorded free basis must
# refuse with this error (the homotopy relation is not an equivalence there).
GUARDRAIL_ERROR = "FreeBasisRequired"

# Each corrupted F2 document must exit 1 and name the law it breaks.
CORRUPTION_LAWS = {
    "lift-dropped": "2XM1",
    "lift-extra-term": "2XM1",
    "L-product-nonnilpotent": "2XM2",
    "d2-misses-kernel": "d1.d2=0",
    "action-breaks-peiffer": "2XM1",
    "d1-not-multiplicative": "multiplicativity",
    "level-one-not-peiffer": "XM2",
    "asymmetric-table": "commutativity",
}

# Malformed documents are parse errors, documented to exit 3.  At the
# commit that introduced this benchmark each one is a known defect with
# the answer recorded here (an uncaught exception by type name, or the
# exit code).  A run may give either the documented or the recorded
# answer; both count toward fail_share unless documented.
MALFORMED_KNOWN_DEFECTS = {
    "basis-not-a-list": "TypeError",
    "products-a-list": "AttributeError",
    "algebra-spec-null": "AttributeError",
    "free-basis-a-string": EXIT_PASS,
    "prime-not-prime": EXIT_FAIL,
}


def exhaustive(cert):
    """A finite input gets an exhaustive certificate."""
    return cert == {"exhaustive": True}
