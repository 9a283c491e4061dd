"""Regenerate the bundled synthetic decay curves.

Curves are produced by the joint magnetization model at the reference
experimental parameter set (a1z=0.0230, a2z=1.00, a1x=0.019, a2x=0.99,
B = (83, 3.8, 0.18) Hz), sampled like the experiment (24 inversion-recovery
delays, 265 echo delays at multiples of 1/5969 s) with 1% Gaussian noise,
seed 20.  The CSVs are written next to this script, whatever the working
directory:  python data/generate.py
"""

from pathlib import Path

import numpy as np

from quadrelax import DecayCurve, joint_model_curves, write_curve

PARAMS = dict(a1z=0.0230, a2z=1.00, a1x=0.019, a2x=0.99, b0=83.0, b1=3.8, b2=0.18)
NOISE = 0.01
SEED = 20
HERE = Path(__file__).resolve().parent


def main():
    times_long = np.logspace(np.log10(2e-3), np.log10(1.5), 24)
    times_trans = np.arange(1, 266) / 5969.0
    sz, sx = joint_model_curves(PARAMS, times_long, times_trans)
    rng = np.random.default_rng(SEED)
    sz = sz + NOISE * rng.standard_normal(sz.size)
    sx = sx + NOISE * rng.standard_normal(sx.size)
    paths = HERE / "synthetic_longitudinal.csv", HERE / "synthetic_transverse.csv"
    write_curve(paths[0], DecayCurve(times_long, sz))
    write_curve(paths[1], DecayCurve(times_trans, sx))
    print(f"wrote {paths[0]} and {paths[1]}")


if __name__ == "__main__":
    main()
