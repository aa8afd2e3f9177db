"""Return times and the slope bound through the return map.

A point in the return rectangle takes u0 iterates of the saddle map to expand
back out to unit scale; each level-n rectangle has its own exponent i_n, and
the sheared arc beta needs j iterates.  The slope lemma says a horizontal-ish
curve (slope at most eps^{5/2}) comes back horizontal-ish after the full
return word, with the intermediate slope never worse than eps^{-5/2}.
"""

import tangencylab as tl


def main():
    sys = tl.reference_system()
    eps = sys.epsilon
    cap = eps**2.5

    target = tl.return_rectangle(eps)
    corner = (target.x_lo, target.y_lo)
    print(f"return rectangle R_eps: x in [{target.x_lo:.4g}, {target.x_hi:.4g}], "
          f"y in [{target.y_lo:.4g}, {target.y_hi:.4g}]")
    print(f"  u0(corner) = {tl.u0(sys, corner)} saddle iterates to reach unit scale")
    print()

    print("per-level exponents:")
    for n in (8, 10, 12):
        beta = tl.beta_arc(sys, n, 0.1)
        print(f"  n={n:2d}: i_n={tl.i_n(sys, n)}  "
              f"beta j={beta.j}  t window [{beta.t_lo:.6e}, {beta.t_hi:.6e}]")
    print()

    print(f"slope transport (cap eps^(5/2) = {cap:.4e}):")
    for slope in (0.0, cap / 2, cap):
        inter, out = tl.slope_through_return(sys, corner, slope)
        print(f"  in={slope:.3e}  intermediate={inter:10.3f} (bound {1 / cap:.1f})  "
              f"out={out.slope:.3e}")
    print()

    search = tl.find_s_n0(sys)
    print(f"shear search: s={search.s:g} works from n0={search.n0} "
          f"(levels checked: {search.levels})")
    for rep in search.reports:
        print(f"  n={rep.n}: max slope {rep.max_slope:.3e} vs threshold {rep.threshold:.3e} "
              f"over {rep.samples} samples ({rep.excluded} excluded) "
              f"-> {'pass' if rep.passed else 'fail'}")


if __name__ == "__main__":
    main()
