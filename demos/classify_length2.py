"""Classifying the self-orthogonal length-2 codes, start to finish.

Component lists in, inequivalent codes out.  Permuting coordinates moves
the free component around while the governing one pins the symplectic
structure, so the classes for a component pair are the double cosets of
the two automorphism groups in S_n.  The run ends with the independent
verifier sweeping every permutation to confirm nothing is missing,
nothing is redundant.
"""

from symhex.classify import classify, verify_classification
from symhex.gf import LinearCode
from symhex.perms import automorphism_group, double_cosets
from symhex.ring import RingId

la = [LinearCode(2, [[1, 0]]), LinearCode(2, [[1, 1]])]
lb = [LinearCode(3, [[1, 0]]), LinearCode(3, [[1, 1]]), LinearCode(3, [[1, 2]])]

print("component automorphism groups:")
for label, codes in (("binary", la), ("ternary", lb)):
    for code in codes:
        group = automorphism_group(code)
        gens = "".join(str(int(x)) for x in code.gen[0])
        print(f"  {label} <{gens}>: order {group.order}")
print()

# the double cosets for one pair, spelled out
ga = automorphism_group(la[0])
gb = automorphism_group(lb[0])
cosets = double_cosets(ga, gb)
print(f"pair (<10>, <10>): {len(cosets)} double cosets in S_2, "
      f"sizes {[size for _, size in cosets]}")
print()

records = classify(RingId.H23, la, lb, "SO")
print(f"{len(records)} inequivalent self-orthogonal codes over H23 at length 2:")
for rec in records:
    ca_s = "".join(str(int(x)) for x in rec.code.ca.gen[0])
    cb_s = "".join(str(int(x)) for x in rec.code.cb.gen[0])
    print(f"  ca=<{ca_s}> cb=<{cb_s}>  sigma={rec.sigma.cycle_string()}  size {rec.size}  "
          + " ".join(k for k, v in rec.flags.items() if v))
print()

# raises VerificationFailed, naming the failed check and its witness, unless all pass
verify_classification(records, RingId.H23, la, lb, "SO")
print("exhaustive verification: ok")

# the mirrored ring gives the same count, with sigma acting on the binary side
mirror = classify(RingId.H32, la, lb, "SO")
print(f"over H32 the same lists give {len(mirror)} codes")
