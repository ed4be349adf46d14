"""Moments of compact complex manifolds: Chern numbers give chi, and chi gives Gamma.

The chi vector (chi_0, ..., chi_n) gives the moment series directly.  The
Chern numbers give the chi vector: the Hirzebruch-Riemann-Roch expansion at
nu = 0, carried to t^(2 floor(n/2)), and a Vandermonde solve.  The universal
polynomials q_kj of the same expansion integrate the Chern numbers at any
nu, and agree.

Run as: python demos/05_manifolds_and_chern_numbers.py
"""

from bermoments import (
    ChiVector,
    bernoulli_moment_from_chern,
    bernoulli_moments,
    chern_data_k3,
    chern_data_pn,
    chern_moment_poly,
    gamma_k3_closed,
    gamma_pn_closed,
    moment_from_chern,
    moments_of_chi,
)
from bermoments.chern import chi_vector
from bermoments.oracles import bernoulli_moments_by_expansion

print("=== the universal Chern-coefficient polynomials ===")
for k in (1, 2):
    for j in range(0, 2 * k):
        print(f"q_{k},{j} = {chern_moment_poly(k, j)}")

print()
print("=== K3 surface ===")
k3_chern = chern_data_k3()
k3_chi = ChiVector((2, 20, 2))
assert chi_vector(k3_chern) == k3_chi
print("chi vector from Chern data:", [str(c) for c in chi_vector(k3_chern).chi])
v = moments_of_chi(k3_chi, 12)
print("V_0, V_2 from chi vector :", v.moment(0), v.moment(2))
print("V_0, V_2 from Chern data :", moment_from_chern(k3_chern, 0), moment_from_chern(k3_chern, 1))
gamma = gamma_k3_closed(12)
print("signed Bernoulli moments at nu = 2 (zero at k=1, then positive):")
print("  ", [str((-1) ** k * gamma.moment(2 * k)) for k in range(7)])

print()
print("=== projective spaces ===")
for n in (2, 3, 5):
    data = chern_data_pn(n)
    chi = ChiVector(tuple([1] * (n + 1)))
    route = bernoulli_moments(moments_of_chi(chi, 8), n)
    chern_route = [bernoulli_moment_from_chern(data, n, k) for k in range(4)]
    # the expansion at nu itself, without the chi vector
    assert chern_route == [route.moment(2 * k) for k in range(4)] == bernoulli_moments_by_expansion(data, n, 3)
    closed = gamma_pn_closed(n, 8)
    print(f"P^{n}: Gamma_0..Gamma_6 = {[str(closed.moment(2 * k)) for k in range(4)]}")
print("below the dimension the signed moments keep the opposite sign pattern,")
print("so the singularity-style sign prediction fails for projective spaces.")
