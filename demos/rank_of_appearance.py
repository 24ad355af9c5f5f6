#!/usr/bin/env python3
"""Walkthrough: the rank of appearance z(m) and ell(m) = lcm(m, z(m)).

z(m) is the first index at which m divides a Fibonacci number.  The fast
path assembles it multiplicatively from prime-power ranks; the naive scan
just walks residues until it sees zero.  This script shows both agreeing,
and the structural facts that make the fast path work.
"""

from fibrank import ell_of, fib_exact, jacobi, rank, rank_naive, rank_prime, rank_prime_power
from fibrank.arith import primes_upto


def main():
    print("=" * 64)
    print("First ranks of appearance")
    print("=" * 64)
    print(f"{'m':>4} {'z(m)':>6} {'ell(m)':>7}   F_z(m)")
    for m in range(1, 13):
        rec = rank(m)
        print(f"{m:>4} {rec.z:>6} {rec.ell:>7}   {fib_exact(rec.z)}")

    print()
    print("Fast multiplicative rank vs naive residue scan (m <= 3000):")
    mismatches = sum(1 for m in range(1, 3001) if rank(m).z != rank_naive(m))
    print(f"  mismatches: {mismatches}")

    print()
    print("=" * 64)
    print("Prime ranks divide p - (p/5)  (Legendre symbol at 5)")
    print("=" * 64)
    print(f"{'p':>6} {'(p/5)':>6} {'p-(p/5)':>8} {'z(p)':>6}  divides?")
    for p in primes_upto(60):
        e = p - jacobi(p, 5)
        z = rank_prime(p)
        print(f"{p:>6} {jacobi(p, 5):>6} {e:>8} {z:>6}  {e % z == 0}")

    print()
    print("Prime-power ranks lift stepwise (never assuming z(p^2) != z(p)):")
    for p, top in ((2, 6), (3, 4), (5, 3), (7, 3)):
        chain = [rank_prime_power(p, e) for e in range(1, top + 1)]
        print(f"  z({p}^e) for e = 1..{top}: {chain}")
    print("  note z(4) = z(8) = 6: the lift really can stall")

    print()
    print("ell(p) = p z(p) for every prime except ell(5) = 5:")
    for p in (2, 3, 5, 7, 11, 13):
        print(f"  ell({p}) = {ell_of(p)}" + ("" if p != 5 else "   <-- the lone exception"))


if __name__ == "__main__":
    main()
