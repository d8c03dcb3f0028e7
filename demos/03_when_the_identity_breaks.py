"""Inputs for which adding and subtracting a photon do NOT coincide.

Four controls: an impure squeezed-thermal state, a displaced (coherent)
state, an incoherent sum of two different widths, and a second round of the
operation applied to an already photon-added state.
"""

from sqvac import (
    GaussianComponent,
    GaussianWignerSpec,
    coherent_state,
    identity_residual,
    photon_outcomes,
    rasterize,
    refined_geometry,
    renormalize,
    state_grid,
)


def show(name, residual, floor):
    print(f"  {name:<28} residual {residual:8.4f}  (floor {floor})")


def main():
    print("states that break the added == subtracted coincidence:")

    impure = GaussianWignerSpec.single(4.0, 0.5)
    chk = identity_residual(rasterize(impure, refined_geometry(impure)))
    show("impure sigma_x=4 sigma_p=1/2", chk.residual, 0.05)
    # the same pass gives the largest gap between the renormalized outcomes
    print(f"  {'':<28} max|W+ - W-| = {chk.max_gap:.4f}")

    coh = state_grid(coherent_state(1.0, 40))
    show("coherent alpha=1", identity_residual(coh).residual, 0.1)

    unequal = GaussianWignerSpec((GaussianComponent.pure(0.0, 2.0, 0.5),
                                  GaussianComponent.pure(0.0, 3.0, 0.5)))
    chk = identity_residual(rasterize(unequal, refined_geometry(unequal)))
    show("mixture of widths 2 and 3", chk.residual, 0.01)

    # the added outcome is itself no longer a squeezed vacuum
    pure = GaussianWignerSpec.pure_state(2.0)
    once = renormalize(photon_outcomes(rasterize(pure, refined_geometry(pure)))[0])
    show("second round on added state", identity_residual(once).residual, 0.01)

    print()
    print("compare demo 01: equal-width pure inputs sit at ~1e-5.")


if __name__ == "__main__":
    main()
