"""Integral, rational and mod-p homology tables for finite groups.

One list of integer elementary divisors per boundary matrix serves
every ring: the divisors give betti numbers and torsion over the
integers, ranks over the rationals, and ranks prime to p over a prime
field.  They are read off a certified elimination of the unit pivots
and a Smith normal form of what it leaves.

Cyclic and dihedral groups, and products of such groups, read their
tables off small free resolutions, certified exact before they are
read, so deep tables take milliseconds; any other finite group reads
the normalized bar complex.
"""

from coarsehom.groups import cyclic_group, finite_dihedral
from coarsehom.homology import h0_coinvariants, homology_finite


def table(title, rows):
    print(f"--- {title}")
    for h in rows:
        tor = " + ".join(f"Z/{d}" for d in h["torsion"]) or "0"
        free = f"Z^{h['betti']}" if h["betti"] else ""
        body = " + ".join(t for t in (free, tor) if t and t != "0") or "0"
        print(f"  H_{h['degree']} = {body}")
    print()


# the cyclic group of order 4 with trivial integer coefficients:
# torsion Z/4 in every odd degree
table("Z/4, trivial integer coefficients",
      homology_finite(cyclic_group(4), 3, module="trivial"))

# the triangle symmetries: H_1 = Z/2 (the sign), 4-periodic pattern
table("triangle group D3, trivial integer coefficients",
      homology_finite(finite_dihedral(3), 3, module="trivial"))

# deep tables off Wall's resolution, of rank n + 1 in degree n where
# the bar complex has rank 5^n: period 4, Z/2, 0, Z/6, 0
table("triangle group D3 to degree 9, trivial integer coefficients",
      homology_finite(finite_dihedral(3), 9, module="trivial"))

# group-ring coefficients are induced from the trivial subgroup, so
# everything above degree zero dies
table("Z/6 with its own group ring as coefficients",
      homology_finite(cyclic_group(6), 2, module="group-ring"))

# over the rationals all torsion disappears
table("Z/4, rational coefficients",
      homology_finite(cyclic_group(4), 3, ring_name="Q", module="trivial"))

# over the field with two elements every degree of Z/4 survives
table("Z/4 over the field with two elements",
      homology_finite(cyclic_group(4), 3, ring_name="Z/2",
                      module="trivial"))

# degree zero two ways: Smith reduction against the orbit count
rep = h0_coinvariants(cyclic_group(4))
print("H_0 as coinvariants:", rep)
