#!/usr/bin/env python3
"""Step-size refinement study for the constrained integrator.

Integrates each requested system without per-step projection over a range of
step sizes, prints the max energy drift per run and the observed convergence
order between consecutive step sizes, with the largest constraint residual
|c| the run reached. With projection the drift sits at the roundoff floor, so
the unprojected runs are the ones that expose the truncation order; they run
without a residual bound (the finiteness checks still hold), since the
residual drifts with the energy.
"""

import argparse
import math

import numpy as np

from nonholo import catalog, dynamics, geometry
from nonholo.system import PhasePoint

STARTS = {
    "nonholonomic_particle": ([0.0, 0.2, 0.0], [1.0, 1.0, 1.0]),
    "chaplygin_sleigh": ([0.0, 0.0, 0.9], [0.3, -0.4, 2.0]),
    "vertical_rolling_disk": ([0.0, 0.0, 0.7, 0.0], [1.0, 0.5, 0.8, 0.6]),
}


def drift_for(sysd, x0, t1, dt):
    """max |H - H0| and max |c| over an unprojected run."""
    traj = dynamics.integrate(sysd, x0, 0.0, t1, dt, project_each_step=False, on_m_tol=math.inf)
    hs = np.array([pt.H for pt in traj])
    return float(np.max(np.abs(hs - hs[0]))), max(float(np.max(np.abs(pt.c))) for pt in traj)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--systems", nargs="*", default=list(STARTS))
    ap.add_argument("--t1", type=float, default=10.0)
    ap.add_argument("--dts", nargs="*", type=float, default=[0.08, 0.04, 0.02, 0.01])
    args = ap.parse_args(argv)

    for name in args.systems:
        sysd = catalog.get_system(name)
        q0, p_raw = STARTS[name]
        x0 = PhasePoint(q=q0, p=geometry.eden_project(sysd, q0, p_raw))
        print(f"\n{name}  (t in [0, {args.t1}], unprojected)")
        print(f"  {'dt':>10}  {'max |H - H0|':>14}  {'max |c|':>10}  {'order':>6}")
        prev = None
        for dt in args.dts:
            d, c = drift_for(sysd, x0, args.t1, dt)
            order = ""
            if prev is not None and d > 0:
                order = f"{math.log(prev[1] / d) / math.log(prev[0] / dt):6.2f}"
            print(f"  {dt:>10g}  {d:>14.3e}  {c:>10.3e}  {order:>6}")
            prev = (dt, d)


if __name__ == "__main__":
    main()
