"""Where compress-and-forward stops beating amplify-and-forward.

On the stock point (alpha 0.2, beta 1, gamma 1, eta 0.2) this script finds,
for each relay echo mu and uplink power P, the relay power Q* at which the
two schemes' rates cross. It scans Q over [-40, 60] dB in 0.5 dB steps for
sign changes of cf - af and bisects each change 50 times. CF is ahead above
Q* and AF below it. "none" means the scan saw no sign change: without the
echo (mu = 0) and at P = -10 dB, AF is ahead at every grid point.

A crossing counts only when its bracket's two grid ends are resolved: at
each, |cf - af| must exceed cf's certified error |cf_residual| plus the
quadrature's default tolerance, 1e-10 * max(1, af). Otherwise it is
printed as "unresolved", not as a number. Expected table:

    mu \\ P dB   -10     0     10    20    30
    0.8         -5.2  -3.5   0.4   3.4   4.2
    0.4         -1.1   0.2   2.8   4.1   4.3
    0           none  13.6   4.8   4.3   4.3
"""

from wynerrelay import af_rate, cf_solve, optimal_gain, parse_config
from wynerrelay.model import DEFAULT_CONFIG_MAPPING, DEFAULT_QUADRATURE

MUS = (0.8, 0.4, 0.0)
P_DB = (-10.0, 0.0, 10.0, 20.0, 30.0)
Q_GRID_DB = [-40.0 + 0.5 * k for k in range(201)]
BISECTIONS = 50


def gap(mu, p_db, q_db):
    """(cf - af, the error that cf - af may carry) at one point."""
    config = parse_config({**DEFAULT_CONFIG_MAPPING, "mu": mu, "P_dB": p_db,
                           "Q_dB": q_db})
    cf = cf_solve(config)
    af = af_rate(config, optimal_gain(config).gain)
    return cf.rate - af, abs(cf.residual) + DEFAULT_QUADRATURE.rel_tol * max(1.0, af)


def crossings(mu, p_db):
    """Q* of each sign change of cf - af on the grid, or None if unresolved."""
    scan = [gap(mu, p_db, q_db) for q_db in Q_GRID_DB]
    found = []
    for k in range(len(Q_GRID_DB) - 1):
        (left, left_error), (right, right_error) = scan[k], scan[k + 1]
        if (left > 0.0) == (right > 0.0):
            continue
        if abs(left) <= left_error or abs(right) <= right_error:
            found.append(None)
            continue
        low, high = Q_GRID_DB[k], Q_GRID_DB[k + 1]
        for _ in range(BISECTIONS):
            middle = 0.5 * (low + high)
            if (gap(mu, p_db, middle)[0] > 0.0) == (left > 0.0):
                low = middle
            else:
                high = middle
        found.append(0.5 * (low + high))
    return found


def cell(found):
    if not found:
        return "none"
    return ", ".join("unresolved" if q is None else f"{q:.1f}" for q in found)


def main():
    print("Q* (dB) where cf = af; CF is ahead above Q*, AF below")
    print("mu \\ P dB  " + "".join(f"{p_db:>8g}" for p_db in P_DB))
    for mu in MUS:
        cells = [cell(crossings(mu, p_db)) for p_db in P_DB]
        print(f"{mu:<11g}" + "".join(f"{text:>8}" for text in cells))


if __name__ == "__main__":
    main()
