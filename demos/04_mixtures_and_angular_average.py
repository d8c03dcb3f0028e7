"""The coincidence survives dephasing, as long as the width is shared.

Incoherent two-angle mixtures and the fully angle-averaged state are not
pure, yet adding and subtracting a photon still agree. The angular average
also has a closed-form purity (complete elliptic integral), checked here
against the grid value 2 pi integral W^2.
"""

import math

from sqvac import (
    AngularAverageSpec,
    GaussianWignerSpec,
    angular_average_purity,
    grid_metrics,
    identity_residual,
    rasterize,
    refined_geometry,
)


def main():
    print("equal-width two-angle mixtures at sigma_x = 2.2:")
    for weight, th1, th2 in ((0.5, 0.0, math.pi / 4), (0.3, 0.2, 1.0)):
        spec = GaussianWignerSpec.two_angle_mixture(weight, th1, th2, 2.2)
        chk = identity_residual(rasterize(spec, refined_geometry(spec)))
        print(f"  P={weight:.2f} th=({th1:.2f},{th2:.2f}): "
              f"residual {chk.residual:.2e}, R_used {chk.ratio_used:.5f}")

    spec = AngularAverageSpec(2.2)
    grid = rasterize(spec, refined_geometry(spec))
    chk = identity_residual(grid)
    print(f"continuous angular average:    residual {chk.residual:.2e}, "
          f"R_used {chk.ratio_used:.5f}")

    print()
    print("purity of the angular average (closed form vs grid):")
    print(f"{'sigma_x':>8} {'closed':>10} {'grid':>10}")
    for sx in (1.0, 1.5, 2.2, 3.0, 5.0):
        spec = AngularAverageSpec(sx)
        grid_purity = grid_metrics(rasterize(spec, refined_geometry(spec)))
        print(f"{sx:8.1f} {angular_average_purity(spec):10.6f} {grid_purity:10.6f}")
    print("purity drops with squeezing; only sigma_x = 1 (the vacuum) is pure.")


if __name__ == "__main__":
    main()
