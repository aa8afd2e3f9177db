"""Cascade of renormalization boxes inside the return rectangle.

Starting from the sub-box B_1 cut out by the level-n arc, each cascade step
pushes a box through the transition map and back under the saddle map,
producing a wider, flatter, thinner box: widths grow by at least a decade per
step while heights and deviations shrink by at least a decade.  Those are
far below the double range (the doubles print 0.000e+00), so each is also
printed as the power of ten the cascade transports in log space.  Every box
is crossed by exactly three arcs of the lamination.  The cascade ends when the
next box would leave the return rectangle.
"""

import math

import tangencylab as tl


def main():
    sys = tl.reference_system()

    for n in (10, 12, 14):
        res = tl.run_cascade(sys, n)
        print(f"n={n}: reached k0={res.k0} boxes, saddle exponents u={res.u_exponents}")
        for k in range(res.k0):
            arcs = tl.count_crossing_arcs(sys, n, res.boxes[k])
            log10_h, log10_d = (v[k] / math.log(10.0) for v in (res.log_heights, res.log_dists))
            print(f"  B_{k + 1}: width={res.widths[k]:.6e}  height={res.heights[k]:.3e} (10^{log10_h:.2f})  "
                  f"deviation={res.dists[k]:.3e} (10^{log10_d:.2f})  crossing arcs={arcs}")
        for k in range(res.k0 - 1):
            print(f"  W_{k + 2}/W_{k + 1} = {res.widths[k + 1] / res.widths[k]:.1f}")
        if res.violations:
            print(f"  growth violations: {res.violations}")
        print()

    # a single step, spelled out: the transition image of B_1 is cut to its
    # middle abscissa span, then pulled back under the saddle map
    n = 12
    b1 = tl.build_b1(sys, tl.build_sn(sys, n))
    cut, u, b2 = tl.cascade_step(sys, b1)
    print(f"one step at n={n}:")
    print(f"  B_1 x-range [{b1.x_lo:.6e}, {b1.x_hi:.6e}]")
    print(f"  cut x-range [{cut.x_lo:.6e}, {cut.x_hi:.6e}] in the image chart")
    print(f"  u={u} saddle iterates bring it back: B_2 x-range [{b2.x_lo:.6e}, {b2.x_hi:.6e}]")
    print(f"  edge slopes stay shallow: max |slope| = {tl.max_edge_slope(sys, b2):.3f}")


if __name__ == "__main__":
    main()
